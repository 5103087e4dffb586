"""Command-line pipelines over the library.

Subcommands
-----------
simulate   model config -> rendered series file plus stability report
truth      model config -> exact spectral grid, coeff and kernel layouts
estimate   series file -> smoothed spectral grid plus invariants report
evaluate   Monte Carlo checks -> one report document per check
reproduce  figure presets (far1 | far2) -> truth and replicated estimates
check      stability report plus the local stationarity diagnostic

Each check of ``evaluate`` and ``check`` is one call of a check in the
``evaluate`` module (``mc_imse``, ``mc_mean_bias``, ``mc_covariance``,
``mc_normality``, ``local_stationarity_check``), which builds the report;
``cli`` resolves the call's settings and writes the report through
``ingest.write_report``.

Every run copies its configuration into the output directory and writes a
manifest recording input and output SHA-256 hashes, the package version, and
the seed.  Nothing written depends on wall-clock time, so rerunning a command
with the same config and seed reproduces every output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 stability failure,
4 estimation band violation, 5 I/O or parse error; 1 means the pipeline ran
but a Monte Carlo or diagnostic check did not pass.  The whole config is
checked against one key table (``_TABLE``) before any command logic runs, and
each command resolves its settings before it writes anything, so codes 2 and
4 leave the output directory empty, and code 3 leaves only ``stability.json``,
``config.json`` and ``manifest.json`` where the command runs the stability gate.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
from dataclasses import asdict, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import __version__, evaluate, ingest
from .estimator import (
    BoundaryError,
    EstimatorConfig,
    TaperSpec,
    _smoothing_band,
    estimate_grid,
    fourier_frequencies,
)
from .funspace import BasisSpec, adjoint, kernel_grid
from .model import (
    PRESETS,
    StabilityError,
    _row_bytes,
    check_stability,
    replication_seed,
    require_stable,
    simulate,
)
from .spectrum import SpectralGrid, TransferSingularError, truth_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_BOUNDARY = 4
EXIT_IO = 5

REPRODUCE_LENGTHS = (2**9, 2**12, 2**16)
REPRODUCE_REPLICATIONS = 20
# far1 figure slices are (u, omega); far2 slices pin omega = 1.5 - cos(pi u).
FAR1_SLICES = ((0.25, 0.0), (0.5, 0.3 * np.pi), (0.25, 0.9 * np.pi))
FAR2_SLICE_US = (0.1, 0.25, 0.375, 0.5, 0.625, 0.75, 0.9)


class ConfigError(ValueError):
    """Configuration that cannot be turned into a runnable pipeline."""


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Key(NamedTuple):
    """Table entry of one config key.  ``kind`` is int, float (any number), str, bool
    or dict (bool is no int, so true is no count); a tuple of the values allowed;
    or "axis": one number, a list of numbers or {"count": n}."""

    kind: object
    least: float | None = None  # bound of the value, of each list entry, or of an axis count
    many: int = 0  # a list of at least this many distinct entries
    once: bool = False  # a list in which no entry repeats
    fallback: bool = False  # a check setting that reads the top-level key if its section lacks it
    unit: bool = False  # a rescaled time: the value, or each point of an axis, lies in [0, 1]


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               dict: "an object", "axis": "a number, list or object"}


# settings of every check that estimates at one (T, u); each takes sample deviations (ddof=1)
_ESTIMATING = {"replications": _Key(int, 2, fallback=True), "T": _Key(int, 1, fallback=True),
               "u": _Key(float)}


# Every config key any command reads; a dict is a section.  ``model`` is this
# preset section unless it is an inline model document (see ``_validate``).
_TABLE = {
    "seed": _Key(int, 0), "out": _Key(str), "T": _Key(int, 1), "replications": _Key(int, 1),
    "u": _Key("axis", 1, unit=True), "omega": _Key("axis", 1), "render": _Key(int, 2),
    "basis_size": _Key(int, 1), "kernel": _Key(bool),
    "checks": _Key(("imse", "bias", "covariance", "normality", "stationarity"), many=1, once=True),
    "model": {"preset": _Key(tuple(PRESETS)), "path": _Key(str),
              "size": _Key(int, 1), "seed": _Key(int, 0), "eta": _Key(float),
              "decay": _Key(float), "knots": _Key(int, 1), "sigma": _Key(float, 0, many=1)},
    # the estimator's own classes bound these values; _resolve_estimator names a rejected key
    "estimator": {"segment": _Key(int), "half_width": _Key(float),
                  "taper": {"name": _Key(str), "rho": _Key(float)}},
    "imse": {"replications": _Key(int, 1, fallback=True), "T_list": _Key(int, 1, many=2),
             "u": _Key("axis", 1), "omega": _Key("axis", 1, fallback=True)},
    "bias": {**_ESTIMATING, "omega": _Key(float), "projection": _Key(int, 0, many=1)},
    "covariance": {**_ESTIMATING, "omega1": _Key(float), "omega2": _Key(float)},
    "normality": {**_ESTIMATING, "omega": _Key(float)},
    "stationarity": {"u": _Key(float, unit=True), "T_list": _Key(int, 1, many=2, once=True),
                     "replications": _Key(int, 1)},
}

# the ``model`` keys each preset (its builder's parameters), and the document path form, reads
_MODEL_FORMS = {**{name: ("preset", *inspect.signature(build).parameters)
                   for name, build in PRESETS.items()}, "path": ("path",)}


def _check(value, rule, path):
    """``value`` checked against ``rule``, numbers as floats; errors name ``path``."""
    if type(rule) is dict:
        if type(value) is not dict:
            raise ConfigError(f"{path} must be an object, got {value!r}")
        paths = {key: f"{path}.{key}" if path else key for key in value}
        for key in value:
            if key not in rule:
                import difflib  # only on this error path, so no run pays for the import
                close = difflib.get_close_matches(key, rule, n=1)
                hint = f"did you mean {close[0]}?" if close else f"known keys: {', '.join(rule)}"
                raise ConfigError(f"unknown key {paths[key]}; {hint}")
        return {key: _check(item, rule[key], paths[key]) for key, item in value.items()}
    if rule.many:
        if type(value) is not list:
            raise ConfigError(f"{path} must be a list, got {value!r}")
        one = rule._replace(many=0, once=False)
        items = [_check(item, one, f"{path}[{i}]") for i, item in enumerate(value)]
        if len(set(items)) < rule.many:
            raise ConfigError(f"{path} needs {rule.many} or more distinct entries, got {value}")
        if rule.once and len(set(items)) < len(items):
            i = next(i for i, item in enumerate(items) if item in items[:i])
            raise ConfigError(f"{path}[{i}] repeats {value[i]!r}; each entry may appear once")
        return items
    if type(rule.kind) is tuple:
        if value not in rule.kind:
            raise ConfigError(f"{path} must be one of {', '.join(map(str, rule.kind))}, "
                              f"got {value!r}")
        return value
    types = {float: (int, float), "axis": (int, float, list, dict)}.get(rule.kind, (rule.kind,))
    if type(value) not in types:
        raise ConfigError(f"{path} must be {_KIND_NAMES[rule.kind]}, got {value!r}")
    if rule.kind == "axis":
        return _check(value, {"count": _Key(int, rule.least)} if type(value) is dict
                      else _Key(float, many=1 if type(value) is list else 0, unit=rule.unit), path)
    # json reads NaN, Infinity and 1e999 as floats; the bounds also stop too large an int
    if rule.kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if rule.least is not None and value < rule.least:
        check, _, key = path.rpartition(".")
        raise ConfigError(f"{check} check needs at least {rule.least} replications, got {value}"
                          if check and key == "replications"
                          else f"{path} must be at least {rule.least}, got {value!r}")
    if rule.unit and not 0 <= value <= 1:
        raise ConfigError(f"{path} must lie in [0, 1], got {value!r}")
    return float(value) if rule.kind is float else value


def _validate(config):
    """The whole config checked against the table, whichever command reads it, and a
    preset or path model against ``_MODEL_FORMS``: numbers as floats, an "auto"
    estimator as {}, and the section of each check the config runs holding the
    top-level settings that check falls back to."""
    table = dict(_TABLE)
    model = config.get("model")
    if type(model) is dict and not {"preset", "path"} & model.keys():
        table["model"] = _Key(dict)  # an inline model document: ingest checks it
    if config.get("estimator") == "auto":
        config = {**config, "estimator": {}}  # every estimator setting at its default
    config = _check(config, table, "")
    if type(table["model"]) is dict and "model" in config:
        _check_model_form(config["model"])
    for check in config.get("checks", ["imse"]):
        section = config.setdefault(check, {})
        for key, rule in _TABLE[check].items():
            if rule.fallback and key in config and key not in section:
                section[key] = _check(config[key], rule, f"{check}.{key}")
    return config


def _check_model_form(spec):
    """Reject a key that the preset or path ``model`` does not read, and a white
    ``sigma`` whose length differs from a given ``size``."""
    form = spec.get("preset", "path")
    reads = _MODEL_FORMS[form]
    name = "a model path" if form == "path" else f"preset {form}"
    for key in spec:
        if key not in reads:
            raise ConfigError(f"model.{key} is not read by {name} (it reads {', '.join(reads)})")
    if {"sigma", "size"} <= spec.keys() and len(spec["sigma"]) != spec["size"]:
        raise ConfigError(f"model.sigma has {len(spec['sigma'])} entries, "
                          f"but model.size is {spec['size']}")


def _get(config, path, default=None):
    """Value at the dotted ``path`` of a validated config, or ``default`` when unset."""
    section, _, key = path.rpartition(".")
    return (config.get(section, {}) if section else config).get(key, default)


class Run:
    """One command invocation: resolved config, output directory, manifest."""

    def __init__(self, command, args):
        self.command = command
        self.config_bytes = b"{}\n"
        try:
            if args.config is not None:
                with open(args.config, "rb") as fh:
                    self.config_bytes = fh.read()
            config = json.loads(self.config_bytes)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not UTF-8 text: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        self.config_hash = hashlib.sha256(self.config_bytes).hexdigest()
        # a bad flag or "out" exits before the output directory exists
        for flag, rule in (("seed", _TABLE["seed"]), ("T", _TABLE["T"]), ("threads", _Key(int, 1))):
            if getattr(args, flag, None) is not None:
                _check(getattr(args, flag), rule, f"--{flag}")
        self.out = args.out or _check(config.get("out", f"tvfspec-{command}"), _TABLE["out"],
                                      "out")
        os.makedirs(self.out, exist_ok=True)
        self.config = _validate(config)
        self.seed = _get(self.config, "seed", 0) if args.seed is None else args.seed
        self.threads = getattr(args, "threads", 1)
        self.inputs = {}
        self.outputs = []

    def path(self, name):
        return os.path.join(self.out, name)

    def write_json(self, name, payload):
        self.emit(name, partial(ingest.write_json, payload))

    def emit(self, name, writer):
        """Write one output file through ``writer(path)`` and track it."""
        writer(self.path(name))
        self.outputs.append(name)

    def finish(self, extra=None):
        """Copy the config verbatim, then write the manifest."""
        with open(self.path("config.json"), "wb") as fh:
            fh.write(self.config_bytes)
        self.outputs.append("config.json")
        manifest = {
            "command": self.command,
            "config_sha256": self.config_hash,
            "inputs": self.inputs,
            "outputs": {name: _sha256(self.path(name)) for name in self.outputs},
            "package": "tvfspec",
            "version": __version__,
            "seed": self.seed,
        }
        if extra:
            manifest.update(extra)
        ingest.write_json(manifest, self.path("manifest.json"))


def _resolve_model(config):
    """Model from a preset name, a document path, or an inline document."""
    spec = config.get("model")
    if spec is None:
        raise ConfigError("config needs a 'model' entry (preset, path, or document)")
    if "preset" in spec:
        # _validate has rejected the keys this preset's builder does not take
        build = PRESETS[spec["preset"]]
        keys = {key: value for key, value in spec.items() if key != "preset"}
        defaults = {key: p.default for key, p in inspect.signature(build).parameters.items()}
        args = {**defaults, **keys}
        # a model of size K holds K x K operators, and a curve one of them per knot
        size = args["size"]
        _preflight([("model.size", size, size * size, "one operator of that size"),
                    ("model.knots", args["knots"], args["knots"] * size * size,
                     "one curve of that many knots") if "knots" in args else None])
        return build(**keys), args.get("seed")  # None for a builder without one
    if "path" in spec:
        path = spec["path"]
        try:
            return ingest.read_model(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load model {path}: {exc}") from exc
    try:
        return ingest.model_from_document(spec)
    except ValueError as exc:
        raise ConfigError(f"bad inline model document: {exc}") from exc


def _configured(settings, section, spec, fields):
    """``settings`` with the keys of config ``section`` set one at a time, in the
    order of ``fields`` (config key -> field); a value the estimator's own classes
    reject is a ConfigError that names its key."""
    for key, name in fields.items():
        if key in spec:
            try:
                settings = replace(settings, **{name: spec[key]})
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
    return settings


def _resolve_estimator(config, T, key):
    """The estimator settings for sample size ``T``, which the config or series gives at
    ``key``: the reference bandwidths for T with the config's ``estimator`` applied."""
    spec = config.get("estimator", {})
    taper = _configured(TaperSpec(), "estimator.taper", spec.get("taper", {}),
                        {"name": "name", "rho": "rho"})
    if "rho" in spec.get("taper", {}) and taper.name != "cosine_flat":
        raise ConfigError(f"estimator.taper.rho: not read by taper {taper.name} "
                          "(only cosine_flat reads it)")
    try:
        auto = EstimatorConfig.auto(T, taper=taper)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return _configured(auto, "estimator", spec, {"segment": "N", "half_width": "b_f"})


def _axis(config, path, default, grid):
    """Grid axis at ``path``: explicit points (one number or a list), else
    ``grid(n)`` for {"count": n}, or ``grid(default)`` when unset."""
    spec = _get(config, path, {})
    if type(spec) is dict:
        count = spec.get("count", default)
        _preflight([(f"{path}.count", count, count, "an axis of that many points")])
        return grid(count)
    return np.atleast_1d(np.asarray(spec, dtype=float))


def _preflight(arrays, estimates=()):
    """Check a command's plan before it writes anything.  An array entry, (key, value,
    floats, what) or None, is a setting ``key`` = ``value`` whose ``what`` of ``floats``
    float64 values must fit in physical memory.  An estimate entry (key, cfg, T, us,
    omegas, row) places every u's segment inside [1, T] (else ``BoundaryError``), bounds
    ``row``, None or (key, value, model), one replication row of ``model`` over those
    segments, and needs a Fourier frequency in each omega's kernel band.  Every other
    failure is a ConfigError naming its key."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

    def fit(key, value, floats, what):
        if 8 * floats > memory:
            # in the largest unit that keeps the amount at least 1
            power, unit = next(((p, u) for p, u in ((30, "GiB"), (20, "MiB")) if memory >= 2**p),
                               (10, "KiB"))
            raise ConfigError(f"{key} = {value} is too large: {what} needs more than the "
                              f"{memory / 2**power:.1f} {unit} of physical memory")

    for entry in filter(None, arrays):
        fit(*entry)
    for _, cfg, T, us, _, row in estimates:
        windows = [cfg.segment(T, u) for u in us]
        if row:
            fit(*row[:2], _row_bytes(row[2], windows, 1) // 8,
                f"one replication row of its segments at T = {T}")
    for key, cfg, _, _, omegas, _ in estimates:
        try:
            _smoothing_band(cfg, np.asarray(omegas, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc


def _grid(section, us, omegas, dim):
    """Array entry of the (u, omega) grid of dim x dim complex operators on the
    ``u`` and ``omega`` axes of config ``section`` ("" or "imse.")."""
    return (f"{section}u x {section}omega", f"{us.size} x {omegas.size}",
            2 * us.size * omegas.size * dim * dim,
            f"a grid of {dim} x {dim} complex operators on those points")


def _render(config, floats=lambda count: 2 * count * count, what="one rendered kernel surface"):
    """The ``render`` count and the array entry of ``what``, the ``floats(count)`` float64
    values made on that many points (by default one complex kernel surface)."""
    count = _get(config, "render", 64)
    return count, ("render", count, floats(count), what)


def _checked_stability(run, model):
    """Write ``stability.json``; on failure finish the run, then let the gate raise."""
    report = check_stability(model)
    worst_u, worst_radius = report.worst()
    run.write_json("stability.json", {**asdict(report), "passed": report.passed,
                                      "worst_u": worst_u, "worst_radius": worst_radius})
    if not report.passed:
        run.finish()
    require_stable(model)


def _emit_grid(run, stem, grid, render):
    """Write ``<stem>_coeff.csv`` and, given a render count, ``<stem>_kernel.csv``."""
    run.emit(f"{stem}_coeff.csv", partial(ingest.write_spectral_grid, grid, mode="coeff"))
    if render is not None:
        run.emit(f"{stem}_kernel.csv", partial(ingest.write_spectral_grid, grid, mode="kernel",
                                               taus=ingest.render_grid(render)))


def cmd_simulate(args):
    run = Run("simulate", args)
    model, model_seed = _resolve_model(run.config)
    T = args.T or _get(run.config, "T")  # --T was checked to be at least 1
    if T is None:
        raise ConfigError("sample size T required (config 'T' or --T)")
    render, entry = _render(run.config, lambda count: T * count, "the series on that many points")
    _preflight([("--T" if args.T else "T", T, T * model.dim, "one series of that length"), entry])
    grid = ingest.render_grid(render)
    if model.ar:
        _checked_stability(run, model)
    x = simulate(model, T, seed=run.seed)
    data = x @ model.basis.evaluate(grid).T
    raw = ingest.RawSeries(grid=grid, data=data)
    run.emit("series.csv", lambda p: ingest.write_series(raw, p))
    run.write_json("model.json", ingest.model_document(model, seed=model_seed))
    run.finish(extra={"T": T})
    return EXIT_OK


def cmd_truth(args):
    run = Run("truth", args)
    model, _ = _resolve_model(run.config)
    us = _axis(run.config, "u", 5, partial(np.linspace, 0.1, 0.9))
    omegas = _axis(run.config, "omega", 64, fourier_frequencies)
    render, entry = _render(run.config)
    _preflight([_grid("", us, omegas, model.dim), entry])
    _emit_grid(run, "truth", truth_grid(model, us, omegas), render)
    run.finish(extra={"u_count": us.size, "omega_count": omegas.size})
    return EXIT_OK


def cmd_estimate(args):
    run = Run("estimate", args)
    # keyed by role, so the manifest does not depend on how the path was typed
    run.inputs["series"] = _sha256(args.series)
    raw = ingest.read_series(args.series)
    if "model" in run.config:
        model, _ = _resolve_model(run.config)
        basis, key = model.basis, "model"
    else:
        basis, key = BasisSpec(size=_get(run.config, "basis_size", 15)), "basis_size"
    try:
        projection = ingest.project_to_basis(raw, basis)
    except ValueError as exc:  # more basis functions than grid points
        raise ConfigError(f"{key}: {exc}") from exc
    x = projection.coefficients
    T = x.shape[0]
    cfg = _resolve_estimator(run.config, T, "series")
    lo, hi = cfg.valid_band(T)
    us = _axis(run.config, "u", 5, partial(np.linspace, lo, hi))
    omegas = _axis(run.config, "omega", 64, fourier_frequencies)
    render, entry = _render(run.config) if _get(run.config, "kernel") else (None, None)
    _preflight([entry, _grid("", us, omegas, basis.size),
                # the estimator stacks the N observations of every u's segment
                ("u", f"{us.size} points", us.size * cfg.N * basis.size,
                 f"one segment of N = {cfg.N} observations per point")],
               [("series", cfg, T, us, omegas, None)])
    grid = estimate_grid(x, cfg, T, us, omegas)
    _emit_grid(run, "estimate", grid, render)
    adj = adjoint(grid.values)
    herm = float(np.abs(grid.values - adj).max())
    eigs = np.linalg.eigvalsh(0.5 * (grid.values + adj))
    scale = float(np.abs(eigs).max())
    min_eig = float(eigs.min())
    traces = np.einsum("uwkk->uw", grid.values).real
    tol = 1e-10 * max(scale, 1.0)  # relative to the estimates' scale, as rounding is
    report = {
        "hermitian_max_deviation": herm,
        "hermitian": herm <= tol,
        "min_eigenvalue": min_eig,
        "psd": min_eig >= -tol,
        "trace_mean_over_omega": traces.mean(axis=1),
        "projection_residual_max": float(projection.residuals.max()),
        "projection_residual_mean": float(projection.residuals.mean()),
        "segment": cfg.N,
        "valid_band": [lo, hi],
        "u": us,
        "config_sha256": run.config_hash,
    }
    run.write_json("estimate_report.json", report)
    run.finish(extra={"T": T})
    return EXIT_OK


# Each resolver validates one check's settings and returns its ready call, so
# every check is resolved before the first output is written.

def _resolve_imse(run, model):
    config = run.config
    R = _get(config, "imse.replications", 20)
    listed = _get(config, "imse.T_list", [2**9, 2**12])
    t_list = sorted(set(listed))
    cfgs = {T: _resolve_estimator(config, T, f"imse.T_list[{listed.index(T)}]") for T in t_list}
    lo = max(cfgs[T].valid_band(T)[0] for T in t_list)
    hi = min(cfgs[T].valid_band(T)[1] for T in t_list)
    if not lo < hi:
        raise ConfigError("no common valid band across the requested sample sizes")
    us = _axis(config, "imse.u", 3, partial(np.linspace, lo, hi))
    # the trapezoid integral runs over the sorted distinct frequencies (not np.unique,
    # which imports numpy.ma; see test_no_command_imports_numpy_ma)
    omegas = np.array(sorted(set(_axis(config, "imse.omega", 64, fourier_frequencies))))
    evaluate.require_frequency_axis(omegas, "imse.omega")
    row = ("imse.u", f"{us.size} points", model)
    _preflight([_grid("imse.", us, omegas, model.dim)],
               [(f"imse.omega at T = {T}", cfgs[T], T, us, omegas, row) for T in t_list])
    return partial(evaluate.mc_imse, model, cfgs, us, omegas, R, seed=run.seed,
                   workers=run.threads)


# the frequency keys of each estimating check, with their defaults, in call order
_FREQUENCIES = {"bias": {"omega": 0.0}, "covariance": {"omega1": np.pi / 2, "omega2": np.pi / 4},
                "normality": {"omega": np.pi / 2}}


def _resolve_estimating(run, model, check):
    """Bias, covariance or normality check of the smoother at one (T, u)."""
    config = run.config
    R = _get(config, f"{check}.replications", 200)
    T = _get(config, f"{check}.T", 2**12)
    cfg = _resolve_estimator(config, T, f"{check}.T")
    u = _get(config, f"{check}.u", 0.5)
    reach = evaluate.DERIV_REACH  # of the bias check's finite-difference stencil
    if check == "bias" and not (u - reach >= 0 and u + reach <= 1):
        raise ConfigError(f"bias.u must keep the derivative stencil u +- {reach:g} "
                          f"inside [0, 1], got {u!r}")
    projection = tuple(_get(config, "bias.projection", (0, 0)))
    evaluate.require_projections(check, model.dim, projection)
    keys = _FREQUENCIES[check]
    omegas = [_get(config, f"{check}.{key}", default) for key, default in keys.items()]
    _preflight([], [(f"{check}.{key}", cfg, T, [u], [omega], (f"{check}.T", T, model))
                    for key, omega in zip(keys, omegas)])
    common = {"seed": run.seed, "workers": run.threads}
    if check == "bias":
        return partial(evaluate.mc_mean_bias, model, cfg, T, u, *omegas, R,
                       projection=projection, **common)
    call = evaluate.mc_covariance if check == "covariance" else evaluate.mc_normality
    return partial(call, model, cfg, T, u, *omegas, R, **common)


def _resolve_stationarity(run, model):
    """Local stationarity diagnostic, of 16 replications under ``check`` unless set, else 32."""
    config = run.config
    t_list = _get(config, "stationarity.T_list", [2**8, 2**10, 2**12])
    # a row holds the model's series and its frozen companion's
    runs = evaluate._CouplingTask.runs
    _preflight([(f"stationarity.T_list[{i}]", T, runs * _row_bytes(model, [(1, T)], 1) // 8,
                 "one series of that length") for i, T in enumerate(t_list)])
    return partial(
        evaluate.local_stationarity_check,
        model,
        u=_get(config, "stationarity.u", 0.25),
        T_list=t_list,
        R=_get(config, "stationarity.replications", 16 if run.command == "check" else 32),
        seed=run.seed,
        workers=run.threads,
    )


_RESOLVERS = {
    "imse": _resolve_imse,
    "bias": partial(_resolve_estimating, check="bias"),
    "covariance": partial(_resolve_estimating, check="covariance"),
    "normality": partial(_resolve_estimating, check="normality"),
    "stationarity": _resolve_stationarity,
}


def _run_checks(run, model, checks, gate):
    """Resolve every check, gate on stability, then write each report, config hash last."""
    calls = [(check, _RESOLVERS[check](run, model)) for check in checks]
    if gate:
        _checked_stability(run, model)
    reports = []
    for check, call in calls:
        reports.append(call())
        reports[-1].notes.append(f"config_sha256={run.config_hash}")
        run.emit(f"{check}.json", partial(ingest.write_report, reports[-1]))
    run.finish()
    return reports


def cmd_evaluate(args):
    run = Run("evaluate", args)
    model, _ = _resolve_model(run.config)
    checks = _get(run.config, "checks", ["imse"])
    reports = _run_checks(run, model, checks, gate=bool(model.ar))
    for check, report in zip(checks, reports):
        print(f"{check}: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if all(report.passed for report in reports) else 1


def _median_iqr(stack):
    """Median over the grid of the interquartile range of the finite ``stack``, sorted
    along its first axis: bitwise ``np.median(upper - lower)`` of ``lower, upper =
    np.percentile(stack, [25, 75], axis=0)``, without either call, as each imports
    numpy.ma (about 1 MB of a run's peak)."""
    quartiles = []
    for q in (0.25, 0.75):
        # numpy's linear rule at the virtual index (R - 1) q, in the arithmetic of its _lerp
        index = (len(stack) - 1) * q
        t = index - int(index)
        a, b = stack[int(index)], stack[int(index) + 1]
        quartiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    gaps = np.sort(quartiles[1] - quartiles[0], axis=None)
    # the middle one or two, averaged as np.median does
    return float(gaps[(gaps.size - 1) // 2:gaps.size // 2 + 1].mean())


def cmd_reproduce(args):
    run = Run("reproduce", args)
    T = _check(args.T or _get(run.config, "T", 2**9), _Key(REPRODUCE_LENGTHS), "T")
    model = PRESETS[args.figure]()
    slices = (list(FAR1_SLICES) if args.figure == "far1"
              else [(u, 1.5 - np.cos(np.pi * u)) for u in FAR2_SLICE_US])
    R = REPRODUCE_REPLICATIONS
    # each replication's amplitudes and its complex kernel, for one slice at a time
    count, entry = _render(run.config, lambda count: 3 * R * count * count,
                           "the replications' rendered kernel surfaces")
    _preflight([entry])
    render = ingest.render_grid(count)
    _checked_stability(run, model)
    # Figure presets taper with sqrt-Epanechnikov so the induced time kernel
    # is the same Epanechnikov kernel the frequency smoother uses.
    cfg = EstimatorConfig.auto(T, taper=TaperSpec(name="sqrt_epanechnikov"))
    t0, t_end = 1 - cfg.N // 2, T + cfg.N // 2
    run.write_json(
        "slices.json",
        [
            {"index": i, "u": u, "omega": omega, "truth": f"slice{i}_truth.csv"}
            for i, (u, omega) in enumerate(slices)
        ],
    )
    for i, (u, omega) in enumerate(slices):
        run.emit(f"slice{i}_truth.csv", partial(ingest.write_spectral_grid, truth_grid(
            model, [u], [omega]), mode="kernel", taus=render))
    estimates = evaluate.replicate(
        model, T, [replication_seed(run.seed, r) for r in range(R)],
        evaluate._EstimatePoints(cfg, T, slices, t0, t_end), workers=run.threads)
    # one slice at a time: its R surfaces, one buffer reused for every slice
    amplitudes = np.empty((R, render.size, render.size))
    dispersion = {}
    for i, (u, omega) in enumerate(slices):
        # one render of the slice's replications serves its files and amplitudes
        kernels = kernel_grid(estimates[:, i], model.basis, render, render)
        # the amplitudes the files' abs column holds (np.abs differs in the last bit)
        np.hypot(kernels.real, kernels.imag, out=amplitudes)
        for r in range(R):
            grid = SpectralGrid(
                u=np.array([u]),
                omega=np.array([omega]),
                values=estimates[r, i][None, None],
                provenance="smoothed",
            )
            run.emit(f"slice{i}_rep{r}.csv", partial(ingest.write_spectral_grid, grid,
                                                     mode="kernel", taus=render,
                                                     kernels=kernels[r][None, None]))
        amplitudes.sort(axis=0)
        dispersion[f"slice{i}"] = _median_iqr(amplitudes)
        del kernels  # freed before the next render, so two never coexist
    run.write_json(
        "dispersion.json",
        {"T": T, "replications": R, "median_pointwise_iqr": dispersion},
    )
    run.finish(extra={"figure": args.figure, "T": T})
    return EXIT_OK


def cmd_check(args):
    run = Run("check", args)
    model, _ = _resolve_model(run.config)
    (stat,) = _run_checks(run, model, ["stationarity"], gate=True)
    print(f"stability: pass; local stationarity: {'pass' if stat.passed else 'FAIL'}")
    return EXIT_OK if stat.passed else 1


# subcommand: its function and its help line
_COMMANDS = {
    "simulate": (cmd_simulate, "simulate a series and write it on a render grid"),
    "truth": (cmd_truth, "exact spectral density grid for a model"),
    "estimate": (cmd_estimate, "estimate the spectral density of a series file"),
    "evaluate": (cmd_evaluate, "run Monte Carlo checks from a config"),
    "reproduce": (cmd_reproduce, "figure-data pipeline for the built-in presets"),
    "check": (cmd_check, "stability and local stationarity report"),
}

# exit code and stderr message of each error a command may raise; first match wins
_FAILURES = (
    ((StabilityError, TransferSingularError), EXIT_STABILITY, "stability: FAIL ({})"),
    ((BoundaryError,), EXIT_BOUNDARY, "boundary error: {}"),
    ((ingest.ParseError,), EXIT_IO, "parse error: {}"),
    ((OSError,), EXIT_IO, "i/o error: {}"),
    ((ValueError,), EXIT_CONFIG, "config error: {}"),  # ConfigError is a ValueError
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvfspec",
        description="Simulation, exact spectra, and spectral estimation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", metavar="PATH", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="master seed (default: config, then 0)")
        p.add_argument("--out", metavar="DIR", help="output directory")
    # the arguments only some subcommands read
    for name in ("evaluate", "reproduce", "check"):
        sub.choices[name].add_argument("--threads", type=int, default=1, help="number of worker "
                                       "processes for Monte Carlo replications; outputs are "
                                       "byte-identical for every value")
    for name in ("simulate", "reproduce"):
        sub.choices[name].add_argument("--T", type=int, help="sample size override")
    sub.choices["estimate"].add_argument("series", help="series file written by simulate "
                                         "(or same format)")
    sub.choices["reproduce"].add_argument("figure", choices=("far1", "far2"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except tuple(kind for kinds, _, _ in _FAILURES for kind in kinds) as exc:
        code, message = next((c, m) for kinds, c, m in _FAILURES if isinstance(exc, kinds))
        print(message.format(exc), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
