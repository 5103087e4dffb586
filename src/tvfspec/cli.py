"""Command-line pipelines over the library.

Subcommands
-----------
simulate   model config -> rendered series file plus stability report
truth      model config -> exact spectral grid, coeff and kernel layouts
estimate   series file -> smoothed spectral grid plus invariants report
evaluate   Monte Carlo checks -> one report document per check
reproduce  figure presets (far1 | far2) -> truth and replicated estimates
check      stability report plus the local stationarity diagnostic

Every run copies its configuration into the output directory and writes a
manifest recording input and output SHA-256 hashes, the package version, and
the seed.  Nothing written depends on wall-clock time, so rerunning a command
with the same config and seed reproduces every output byte for byte.

Exit codes: 0 success, 2 configuration error, 3 stability failure,
4 estimation band violation, 5 I/O or parse error; 1 means the pipeline ran
but a Monte Carlo or diagnostic check did not pass.  Each command resolves
and checks every setting before it writes anything, so codes 2 and 4 leave
the output directory empty, and code 3 leaves only ``stability.json``,
``config.json`` and ``manifest.json`` where the command runs the stability
gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from functools import partial

import numpy as np

from . import __version__, evaluate, ingest
from .estimator import (
    BoundaryError,
    EstimatorConfig,
    FreqKernelSpec,
    TaperSpec,
    _segment_start,
    estimate_grid,
    fourier_frequencies,
)
from .funspace import BasisSpec, kernel_grid
from .model import (
    InnovationSpec,
    StabilityError,
    TvFarmaModel,
    check_stability,
    far1,
    far2,
    replication_seed,
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


class ConfigError(Exception):
    """Configuration that cannot be turned into a runnable pipeline."""


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# JSON types of config values; bool is not int here, so true is no count
_KINDS = {"an integer": (int,), "a number": (int, float), "a string": (str,),
          "a boolean": (bool,), "an object": (dict,),
          "a number, list or object": (int, float, list, dict)}


def _get(config, path, kind, default=None, many=False):
    """Config value at the dotted JSON ``path``, or ``default`` when absent.

    The value must be ``kind`` (a list of ``kind`` with ``many``) and each
    section on the path an object; any other JSON type is a config error
    that names the path.  Numbers come back as floats.
    """
    outer, _, key = path.rpartition(".")
    if outer:
        config = _get(config, outer, "an object", {})
    if key not in config:
        return default
    value = config[key]
    if many and type(value) is not list:
        raise ConfigError(f"{path} must be a list, got {value!r}")
    for name, item in ([(f"{path}[{i}]", v) for i, v in enumerate(value)] if many
                       else [(path, value)]):
        if type(item) not in _KINDS[kind]:
            raise ConfigError(f"{name} must be {kind}, got {item!r}")
    return float(value) if kind == "a number" and not many else value


def _own(config, check, key):
    """Path of a check's setting: in the check's own section if set there, else top level."""
    return f"{check}.{key}" if key in _get(config, check, "an object", {}) else key


class Run:
    """One command invocation: resolved config, output directory, manifest."""

    def __init__(self, command, args, require_config=False):
        self.command = command
        self.config = {}
        self.config_bytes = b"{}\n"
        if args.config is not None:
            try:
                with open(args.config, "rb") as fh:
                    self.config_bytes = fh.read()
                self.config = json.loads(self.config_bytes)
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
            if not isinstance(self.config, dict):
                raise ConfigError("config must be a JSON object")
        elif require_config:
            raise ConfigError(f"{command} requires --config")
        self.seed = _get(self.config, "seed", "an integer", 0) if args.seed is None else args.seed
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        self.threads = args.threads
        out = args.out or _get(self.config, "out", "a string") or f"tvfspec-{command}"
        os.makedirs(out, exist_ok=True)
        self.out = out
        self.inputs = {}
        self.outputs = []

    def path(self, name):
        return os.path.join(self.out, name)

    def track_input(self, path):
        self.inputs[str(path)] = _sha256(path)

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

    @property
    def config_hash(self):
        return hashlib.sha256(self.config_bytes).hexdigest()


def _resolve_model(config):
    """Model from a preset name, a document path, or an inline document."""
    spec = _get(config, "model", "an object")
    if spec is None:
        raise ConfigError("config needs a 'model' entry (preset, path, or document)")
    if "preset" in spec:
        name = spec["preset"]
        size = _get(config, "model.size", "an integer", 15)
        if name in ("far1", "far2"):
            build, seed = (far1, 0) if name == "far1" else (far2, 1)
            keys = ("eta", "decay", "knots") if name == "far1" else ("knots",)
            kwargs = {k: _get(config, f"model.{k}", "an integer" if k == "knots" else "a number")
                      for k in keys if k in spec}
            seed = _get(config, "model.seed", "an integer", seed)
            return build(size=size, seed=seed, **kwargs), seed
        if name == "white":
            sigma = _get(config, "model.sigma", "a number", np.ones(size), many=True)
            return TvFarmaModel(innovations=InnovationSpec(np.asarray(sigma, dtype=float))), None
        raise ConfigError(f"unknown model preset {name!r}")
    if "path" in spec:
        path = _get(config, "model.path", "a string")
        try:
            return ingest.read_model(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load model {path}: {exc}") from exc
    try:
        return ingest.model_from_document(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad inline model document: {exc}") from exc


def _resolve_estimator(config, T):
    if config.get("estimator") == "auto":
        config = {}  # every estimator setting at its default
    try:
        taper = TaperSpec(**_get(config, "estimator.taper", "an object", {}))
        fkernel = FreqKernelSpec(**_get(config, "estimator.kernel", "an object", {}))
        auto = EstimatorConfig.auto(T, taper=taper, fkernel=fkernel)
        return EstimatorConfig(
            N=_get(config, "estimator.segment", "an integer", auto.N),
            b_f=_get(config, "estimator.half_width", "a number", auto.b_f),
            taper=taper,
            fkernel=fkernel,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad estimator config: {exc}") from exc


def _check_band(cfg, T, us):
    """Raise the smoother's ``BoundaryError`` for any u outside its valid band."""
    for u in us:
        _segment_start(T, float(u), cfg, T, 1)


def _axis(config, path, default, grid, least=1, points=True):
    """Grid axis at ``path``: ``grid(count)`` for a count, else explicit points.

    Absent means ``default`` points.  A count is {"count": n}, or the bare
    integer n on an axis without explicit ``points`` (the render axis), and
    must be at least ``least``; explicit points are one number or a list.
    """
    spec = _get(config, path, "a number, list or object" if points else "an integer")
    if points and type(spec) in (int, float, list):
        values = _get(config, path, "a number", many=type(spec) is list)
        return np.atleast_1d(np.asarray(values, dtype=float))
    count = spec if type(spec) is int else _get(config, f"{path}.count", "an integer", default)
    if count < least:
        raise ConfigError(f"{path} count must be at least {least}")
    return grid(count)


def _render_axis(config):
    return _axis(config, "render", 64, ingest.render_grid, least=2, points=False)


def _replications(check, count, least=1):
    """Replication count of one Monte Carlo check, at least ``least``."""
    if count < least:
        raise ConfigError(f"{check} check needs at least {least} replications, got {count}")
    return count


def _checked_stability(run, model):
    """Write ``stability.json``; on failure finish the run and raise."""
    report = check_stability(model)
    worst_u, worst_radius = report.worst()
    run.write_json("stability.json", {**asdict(report), "passed": report.passed,
                                      "worst_u": worst_u, "worst_radius": worst_radius})
    if not report.passed:
        run.finish()
        raise StabilityError(f"radius {worst_radius:.6g} at u = {worst_u:.6g}")


def _emit_grid(run, stem, grid, basis, render):
    """Write ``<stem>_coeff.csv`` and, given a render axis, ``<stem>_kernel.csv``."""
    run.emit(f"{stem}_coeff.csv", partial(ingest.write_spectral_grid, grid, mode="coeff"))
    if render is not None:
        run.emit(f"{stem}_kernel.csv", partial(ingest.write_spectral_grid, grid, mode="kernel",
                                               basis=basis, taus=render))


def cmd_simulate(args):
    run = Run("simulate", args, require_config=True)
    model, model_seed = _resolve_model(run.config)
    T = args.T if args.T is not None else _get(run.config, "T", "an integer")
    if T is None:
        raise ConfigError("sample size T required (config 'T' or --T)")
    if T < 1:
        raise ConfigError("T must be positive")
    grid = _render_axis(run.config)
    if model.ar:
        _checked_stability(run, model)
    x = simulate(model, T, seed=run.seed, check=False)
    data = x @ model.basis.evaluate(grid).T
    raw = ingest.RawSeries(grid=grid, data=data)
    run.emit("series.csv", lambda p: ingest.write_series(raw, p))
    run.emit("model.json", lambda p: ingest.write_model(model, p, seed=model_seed))
    run.finish(extra={"T": T})
    return EXIT_OK


def cmd_truth(args):
    run = Run("truth", args, require_config=True)
    model, _ = _resolve_model(run.config)
    us = _axis(run.config, "u", 5, partial(np.linspace, 0.1, 0.9))
    omegas = _axis(run.config, "omega", 64, fourier_frequencies)
    render = _render_axis(run.config)
    _emit_grid(run, "truth", truth_grid(model, us, omegas), model.basis, render)
    run.finish(extra={"u_count": us.size, "omega_count": omegas.size})
    return EXIT_OK


def cmd_estimate(args):
    run = Run("estimate", args)
    run.track_input(args.series)
    raw = ingest.read_series(args.series)
    if "model" in run.config:
        model, _ = _resolve_model(run.config)
        basis = model.basis
    else:
        basis = BasisSpec(size=_get(run.config, "basis_size", "an integer", 15))
    render = _render_axis(run.config) if _get(run.config, "kernel", "a boolean") else None
    projection = ingest.project_to_basis(raw, basis)
    x = projection.coefficients
    T = x.shape[0]
    cfg = _resolve_estimator(run.config, T)
    lo, hi = cfg.valid_band(T)
    us = _axis(run.config, "u", 5, partial(np.linspace, lo, hi))
    omegas = _axis(run.config, "omega", 64, fourier_frequencies)
    grid = estimate_grid(x, cfg, T, us, omegas)
    _emit_grid(run, "estimate", grid, basis, render)
    adjoint = np.conj(np.swapaxes(grid.values, -1, -2))
    herm = float(np.abs(grid.values - adjoint).max())
    eigs = np.linalg.eigvalsh(0.5 * (grid.values + adjoint))
    scale = float(np.abs(eigs).max())
    min_eig = float(eigs.min())
    traces = np.einsum("uwkk->uw", grid.values).real
    report = {
        "hermitian_max_deviation": herm,
        "hermitian": herm <= 1e-10,
        "min_eigenvalue": min_eig,
        "psd": min_eig >= -1e-10 * max(scale, 1.0),
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
    R = _replications("imse", _get(config, _own(config, "imse", "replications"), "an integer",
                                   20))
    t_list = sorted(_get(config, "imse.T_list", "an integer", [2**9, 2**12], many=True))
    if len(t_list) < 2:
        raise ConfigError("imse check needs at least two sample sizes")
    cfgs = {T: _resolve_estimator(config, T) for T in t_list}
    lo = max(cfgs[T].valid_band(T)[0] for T in t_list)
    hi = min(cfgs[T].valid_band(T)[1] for T in t_list)
    if not lo < hi:
        raise ConfigError("no common valid band across the requested sample sizes")
    us = _axis(config, "imse.u", 3, partial(np.linspace, lo, hi))
    for T in t_list:
        _check_band(cfgs[T], T, us)
    omegas = _axis(config, _own(config, "imse", "omega"), 64, fourier_frequencies)
    return partial(_imse_report, model, t_list, cfgs, us, omegas, R, run.seed, run.threads)


def _imse_report(model, t_list, cfgs, us, omegas, R, seed, workers):
    """Paired-seed integrated-squared-error comparison across sample sizes."""
    truth = truth_grid(model, us, omegas)
    seeds = [replication_seed(seed, r) for r in range(R)]
    values = {
        T: evaluate.replicate(model, T, seeds, partial(evaluate._imse_task, cfgs[T], T, truth),
                              workers=workers)
        for T in t_list
    }
    t_lo, t_hi = t_list[0], t_list[-1]
    wins = int(np.sum(values[t_hi] < values[t_lo]))
    need = int(np.ceil(0.9 * R))
    return evaluate.McReport(
        name="imse_consistency",
        seed=seed,
        replications=R,
        quantities={
            **{f"imse_mean_T{T}": float(values[T].mean()) for T in t_list},
            **{f"imse_per_rep_T{T}": values[T] for T in t_list},
            "wins": wins,
            "wins_needed": need,
        },
        tolerances={"win_fraction": 0.9},
        passes={"direction": wins >= need},
        notes=["paired seeds: replication r uses sub-seed (2, r) at every T"],
    )


def _resolve_estimating(run, model, check):
    """Bias, covariance or normality check of the smoother at one (T, u)."""
    config = run.config
    # these checks take sample deviations (ddof=1)
    R = _replications(check, _get(config, _own(config, check, "replications"), "an integer", 200),
                      least=2)
    T = _get(config, _own(config, check, "T"), "an integer", 2**12)
    cfg = _resolve_estimator(config, T)
    number = partial(_get, config, kind="a number")
    u = number(f"{check}.u", default=0.5)
    _check_band(cfg, T, [u])
    common = {"seed": run.seed, "workers": run.threads}
    if check == "bias":
        projection = tuple(_get(config, "bias.projection", "an integer", (0, 0), many=True))
        if len(projection) != 2 or not all(0 <= i < model.dim for i in projection):
            raise ConfigError(f"bias projection must be two indices in [0, {model.dim}), "
                              f"got {list(projection)}")
        return partial(evaluate.mc_mean_bias, model, cfg, T, u, number("bias.omega", default=0.0),
                       R, projection=projection, **common)
    if check == "covariance":
        return partial(evaluate.mc_covariance, model, cfg, T, u,
                       number("covariance.omega1", default=np.pi / 2),
                       number("covariance.omega2", default=np.pi / 4), R, **common)
    return partial(evaluate.mc_normality, model, cfg, T, u,
                   number("normality.omega", default=np.pi / 2), R, **common)


def _resolve_stationarity(run, model, replications):
    """Local stationarity diagnostic; ``replications`` is the command's default count."""
    config = run.config
    return partial(
        evaluate.local_stationarity_check,
        model,
        u=_get(config, "stationarity.u", "a number", 0.25),
        T_list=_get(config, "stationarity.T_list", "an integer", [2**8, 2**10, 2**12], many=True),
        R=_replications("stationarity",
                        _get(config, "stationarity.replications", "an integer", replications)),
        seed=run.seed,
        workers=run.threads,
    )


_RESOLVERS = {
    "imse": _resolve_imse,
    "bias": partial(_resolve_estimating, check="bias"),
    "covariance": partial(_resolve_estimating, check="covariance"),
    "normality": partial(_resolve_estimating, check="normality"),
    "stationarity": partial(_resolve_stationarity, replications=32),
}


def _emit_report(run, check, call):
    """Run one resolved check and write ``<check>.json``, config hash as last note."""
    report = call()
    report.notes.append(f"config_sha256={run.config_hash}")
    run.emit(f"{check}.json", lambda p: ingest.write_report(report, p))
    return report


def cmd_evaluate(args):
    run = Run("evaluate", args, require_config=True)
    model, _ = _resolve_model(run.config)
    checks = _get(run.config, "checks", "a string", ["imse"], many=True)
    bad = [c for c in checks if c not in _RESOLVERS]
    if bad:
        raise ConfigError(f"unknown checks {bad}; available: {sorted(_RESOLVERS)}")
    calls = [(check, _RESOLVERS[check](run, model)) for check in checks]
    if model.ar:
        _checked_stability(run, model)
    overall = True
    for check, call in calls:
        report = _emit_report(run, check, call)
        print(f"{check}: {'pass' if report.passed else 'FAIL'}")
        overall = overall and report.passed
    run.finish()
    return EXIT_OK if overall else 1


def cmd_reproduce(args):
    run = Run("reproduce", args)
    T = args.T if args.T is not None else _get(run.config, "T", "an integer", 2**9)
    if T not in REPRODUCE_LENGTHS:
        raise ConfigError(
            f"reproduce supports T in {REPRODUCE_LENGTHS}, got {T}"
        )
    if T == 2**16:
        print("note: T = 2^16 takes much longer than the smaller presets", file=sys.stderr)
    if args.figure == "far1":
        model = far1(size=15)
        slices = list(FAR1_SLICES)
    else:
        model = far2(size=15)
        slices = [(u, 1.5 - np.cos(np.pi * u)) for u in FAR2_SLICE_US]
    render = _render_axis(run.config)
    _checked_stability(run, model)
    # Figure presets taper with sqrt-Epanechnikov so the induced time kernel
    # is the same Epanechnikov kernel the frequency smoother uses.
    cfg = EstimatorConfig.auto(T, taper=TaperSpec(name="sqrt_epanechnikov"))
    n = cfg.N
    t0, t_end = 1 - n // 2, T + n // 2
    basis = model.basis
    run.write_json(
        "slices.json",
        [
            {"index": i, "u": u, "omega": omega, "truth": f"slice{i}_truth.csv"}
            for i, (u, omega) in enumerate(slices)
        ],
    )
    for i, (u, omega) in enumerate(slices):
        truth = truth_grid(model, [u], [omega])
        run.emit(
            f"slice{i}_truth.csv",
            lambda p, g=truth: ingest.write_spectral_grid(
                g, p, mode="kernel", basis=basis, taus=render
            ),
        )
    R = REPRODUCE_REPLICATIONS
    estimates = evaluate.replicate(
        model, T, [replication_seed(run.seed, r) for r in range(R)],
        partial(evaluate._estimate_points, cfg, T, slices, t0=t0),
        workers=run.threads, t_start=t0, t_end=t_end)
    amplitudes = np.empty((len(slices), R, render.size, render.size))
    for r, mats in enumerate(estimates):
        # one render of the replication's slices serves its files and amplitudes
        kernels = kernel_grid(mats, basis, render, render)
        amplitudes[:, r] = np.abs(kernels)
        for i, (u, omega) in enumerate(slices):
            grid = SpectralGrid(
                u=np.array([u]),
                omega=np.array([omega]),
                values=mats[i][None, None],
                provenance="smoothed",
            )
            run.emit(
                f"slice{i}_rep{r}.csv",
                lambda p, g=grid, ker=kernels[i]: ingest.write_spectral_grid(
                    g, p, mode="kernel", taus=render, kernels=ker[None, None]
                ),
            )
    lower, upper = np.percentile(amplitudes, [25, 75], axis=1)
    iqr = upper - lower
    dispersion = {
        f"slice{i}": float(np.median(iqr[i])) for i in range(len(slices))
    }
    run.write_json(
        "dispersion.json",
        {"T": T, "replications": R, "median_pointwise_iqr": dispersion},
    )
    run.finish(extra={"figure": args.figure, "T": T})
    return EXIT_OK


def cmd_check(args):
    run = Run("check", args, require_config=True)
    model, _ = _resolve_model(run.config)
    call = _resolve_stationarity(run, model, replications=16)
    _checked_stability(run, model)
    stat = _emit_report(run, "stationarity", call)
    run.finish()
    print(f"stability: pass; local stationarity: {'pass' if stat.passed else 'FAIL'}")
    return EXIT_OK if stat.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tvfspec",
        description="Simulation, exact spectra, and spectral estimation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="master seed (default: config, then 0)")
        p.add_argument("--threads", type=int, default=1, help="number of worker processes for "
                       "Monte Carlo replications (evaluate, reproduce, check); outputs are "
                       "byte-identical for every value")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--T", type=int, help="sample size override")

    p = sub.add_parser("simulate", help="simulate a series and write it on a render grid")
    common(p)
    p = sub.add_parser("truth", help="exact spectral density grid for a model")
    common(p)
    p = sub.add_parser("estimate", help="estimate the spectral density of a series file")
    p.add_argument("series", help="series file written by simulate (or same format)")
    common(p)
    p = sub.add_parser("evaluate", help="run Monte Carlo checks from a config")
    common(p)
    p = sub.add_parser("reproduce", help="figure-data pipeline for the built-in presets")
    p.add_argument("figure", choices=("far1", "far2"))
    common(p)
    p = sub.add_parser("check", help="stability and local stationarity report")
    common(p)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "truth": cmd_truth,
    "estimate": cmd_estimate,
    "evaluate": cmd_evaluate,
    "reproduce": cmd_reproduce,
    "check": cmd_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StabilityError, TransferSingularError) as exc:
        print(f"stability: FAIL ({exc})", file=sys.stderr)
        return EXIT_STABILITY
    except BoundaryError as exc:
        print(f"boundary error: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except ingest.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
