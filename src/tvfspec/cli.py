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
but a Monte Carlo or diagnostic check did not pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import partial

import numpy as np

from . import __version__, evaluate, ingest
from .estimator import (
    BoundaryError,
    EstimatorConfig,
    FreqKernelSpec,
    TaperSpec,
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
from .spectrum import SpectralGrid, truth_grid

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


def _dump_json(payload, path):
    with open(path, "w") as fh:
        json.dump(evaluate._jsonify(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
        self.seed = args.seed if args.seed is not None else int(self.config.get("seed", 0))
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        self.threads = args.threads
        out = args.out or self.config.get("out") or f"tvfspec-{command}"
        os.makedirs(out, exist_ok=True)
        self.out = out
        self.inputs = {}
        self.outputs = []

    def path(self, name):
        return os.path.join(self.out, name)

    def track_input(self, path):
        self.inputs[str(path)] = _sha256(path)

    def write_json(self, name, payload):
        _dump_json(payload, self.path(name))
        self.outputs.append(name)

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
            "config_sha256": hashlib.sha256(self.config_bytes).hexdigest(),
            "inputs": self.inputs,
            "outputs": {name: _sha256(self.path(name)) for name in self.outputs},
            "package": "tvfspec",
            "version": __version__,
            "seed": self.seed,
        }
        if extra:
            manifest.update(extra)
        _dump_json(manifest, self.path("manifest.json"))

    @property
    def config_hash(self):
        return hashlib.sha256(self.config_bytes).hexdigest()


def _resolve_model(config):
    """Model from a preset name, a document path, or an inline document."""
    spec = config.get("model")
    if spec is None:
        raise ConfigError("config needs a 'model' entry (preset, path, or document)")
    if not isinstance(spec, dict):
        raise ConfigError("'model' must be a JSON object")
    if "preset" in spec:
        name = spec["preset"]
        size = int(spec.get("size", 15))
        if name == "far1":
            kwargs = {k: spec[k] for k in ("eta", "decay", "knots") if k in spec}
            return far1(size=size, seed=int(spec.get("seed", 0)), **kwargs), spec.get("seed", 0)
        if name == "far2":
            kwargs = {k: spec[k] for k in ("knots",) if k in spec}
            return far2(size=size, seed=int(spec.get("seed", 1)), **kwargs), spec.get("seed", 1)
        if name == "white":
            sigma = np.asarray(spec.get("sigma", np.ones(size)), dtype=float)
            return TvFarmaModel(innovations=InnovationSpec(sigma)), None
        raise ConfigError(f"unknown model preset {name!r}")
    if "path" in spec:
        try:
            return ingest.read_model(spec["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load model {spec['path']}: {exc}") from exc
    try:
        return ingest.model_from_document(spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad inline model document: {exc}") from exc


def _taper(spec):
    if spec is None:
        return None
    return TaperSpec(**spec)


def _fkernel(spec):
    if spec is None:
        return None
    return FreqKernelSpec(**spec)


def _resolve_estimator(config, T):
    spec = config.get("estimator", "auto")
    try:
        if spec == "auto":
            return EstimatorConfig.auto(T)
        if not isinstance(spec, dict):
            raise ConfigError("'estimator' must be \"auto\" or a JSON object")
        taper = _taper(spec.get("taper"))
        fkernel = _fkernel(spec.get("kernel"))
        if "segment" in spec or "half_width" in spec:
            auto = EstimatorConfig.auto(T)
            return EstimatorConfig(
                N=int(spec.get("segment", auto.N)),
                b_f=float(spec.get("half_width", auto.b_f)),
                taper=taper or TaperSpec(),
                fkernel=fkernel or FreqKernelSpec(),
            )
        return EstimatorConfig.auto(T, taper=taper, fkernel=fkernel)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad estimator config: {exc}") from exc


def _axis(spec, default_count, span):
    """Resolve a grid axis: explicit list, single number, or {"count": n}."""
    if spec is None:
        spec = {"count": default_count}
    if isinstance(spec, dict):
        count = int(spec.get("count", default_count))
        if count < 1:
            raise ConfigError("axis count must be positive")
        lo, hi = span
        return np.linspace(lo, hi, count)
    arr = np.atleast_1d(np.asarray(spec, dtype=float))
    return arr


def _omega_axis(config, default_count=64):
    spec = config.get("omega")
    if spec is None or isinstance(spec, dict):
        count = int(spec.get("count", default_count)) if isinstance(spec, dict) else default_count
        return fourier_frequencies(count)
    return np.atleast_1d(np.asarray(spec, dtype=float))


def _render_axis(config):
    count = int(config.get("render", 64))
    if count < 2:
        raise ConfigError("render count must be at least 2")
    return ingest.render_grid(count)


def _required_T(run, args):
    T = args.T if args.T is not None else run.config.get("T")
    if T is None:
        raise ConfigError("sample size T required (config 'T' or --T)")
    T = int(T)
    if T < 1:
        raise ConfigError("T must be positive")
    return T


def _replications(check, value, least=1):
    """Replication count of one Monte Carlo check, at least ``least``."""
    count = int(value)
    if count < least:
        raise ConfigError(f"{check} check needs at least {least} replications, got {count}")
    return count


def _check_replications(config, check):
    """Replication count of one ``evaluate`` check, validated."""
    spec = config.get(check, {})
    if check == "imse":
        return _replications(check, spec.get("replications", config.get("replications", 20)))
    if check == "stationarity":
        return _replications(check, spec.get("replications", 32))
    # bias, covariance and normality take sample deviations (ddof=1)
    return _replications(check, spec.get("replications", config.get("replications", 200)),
                         least=2)


def _stability_payload(report):
    worst_u, worst_radius = report.worst()
    return {
        "passed": report.passed,
        "delta": report.delta,
        "u": report.u,
        "radii": report.radii,
        "norm_sums": report.norm_sums,
        "worst_u": worst_u,
        "worst_radius": worst_radius,
    }


def _checked_stability(run, model):
    report = check_stability(model)
    run.write_json("stability.json", _stability_payload(report))
    if not report.passed:
        worst_u, worst_radius = report.worst()
        run.finish()
        raise StabilityError(
            f"model unstable: companion spectral radius {worst_radius:.6g} at u = {worst_u:.6g}"
        )
    return report


def cmd_simulate(args):
    run = Run("simulate", args, require_config=True)
    model, model_seed = _resolve_model(run.config)
    T = _required_T(run, args)
    if model.ar:
        _checked_stability(run, model)
    x = simulate(model, T, seed=run.seed, check=False)
    grid = _render_axis(run.config)
    data = x @ model.basis.evaluate(grid).T
    raw = ingest.RawSeries(grid=grid, data=data)
    run.emit("series.csv", lambda p: ingest.write_series(raw, p))
    run.emit("model.json", lambda p: ingest.write_model(model, p, seed=model_seed))
    run.finish(extra={"T": T})
    return EXIT_OK


def cmd_truth(args):
    run = Run("truth", args, require_config=True)
    model, _ = _resolve_model(run.config)
    us = _axis(run.config.get("u"), 5, (0.1, 0.9))
    omegas = _omega_axis(run.config)
    grid = truth_grid(model, us, omegas)
    render = _render_axis(run.config)
    run.emit("truth_coeff.csv", lambda p: ingest.write_spectral_grid(grid, p, mode="coeff"))
    run.emit(
        "truth_kernel.csv",
        lambda p: ingest.write_spectral_grid(
            grid, p, mode="kernel", basis=model.basis, taus=render
        ),
    )
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
        basis = BasisSpec(size=int(run.config.get("basis_size", 15)))
    projection = ingest.project_to_basis(raw, basis)
    x = projection.coefficients
    T = x.shape[0]
    cfg = _resolve_estimator(run.config, T)
    lo, hi = cfg.valid_band(T)
    us = _axis(run.config.get("u"), 5, (lo, hi))
    omegas = _omega_axis(run.config)
    grid = estimate_grid(x, cfg, T, us, omegas)
    run.emit("estimate_coeff.csv", lambda p: ingest.write_spectral_grid(grid, p, mode="coeff"))
    if run.config.get("kernel"):
        render = _render_axis(run.config)
        run.emit(
            "estimate_kernel.csv",
            lambda p: ingest.write_spectral_grid(grid, p, mode="kernel", basis=basis, taus=render),
        )
    herm = float(
        max(np.abs(grid.values - np.conj(np.swapaxes(grid.values, -1, -2))).max(), 0.0)
    )
    eigs = np.linalg.eigvalsh(0.5 * (grid.values + np.conj(np.swapaxes(grid.values, -1, -2))))
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


def _imse_report(run, model, R):
    """Paired-seed integrated-squared-error comparison across sample sizes."""
    spec = run.config.get("imse", {})
    t_list = sorted(int(t) for t in spec.get("T_list", (2**9, 2**12)))
    if len(t_list) < 2:
        raise ConfigError("imse check needs at least two sample sizes")
    cfgs = {T: _resolve_estimator(run.config, T) for T in t_list}
    lo = max(cfgs[T].valid_band(T)[0] for T in t_list)
    hi = min(cfgs[T].valid_band(T)[1] for T in t_list)
    if not lo < hi:
        raise ConfigError("no common valid band across the requested sample sizes")
    us = _axis(spec.get("u"), 3, (lo, hi))
    omegas = _omega_axis(spec if "omega" in spec else run.config)
    truth = truth_grid(model, us, omegas)
    seeds = [replication_seed(run.seed, r) for r in range(R)]
    values = {
        T: evaluate.replicate(model, T, seeds, partial(evaluate._imse_task, cfgs[T], T, truth),
                              workers=run.threads)
        for T in t_list
    }
    t_lo, t_hi = t_list[0], t_list[-1]
    wins = int(np.sum(values[t_hi] < values[t_lo]))
    need = int(np.ceil(0.9 * R))
    report = evaluate.McReport(
        name="imse_consistency",
        seed=run.seed,
        replications=R,
        quantities={
            **{f"imse_mean_T{T}": float(values[T].mean()) for T in t_list},
            **{f"imse_per_rep_T{T}": values[T] for T in t_list},
            "wins": wins,
            "wins_needed": need,
        },
        tolerances={"win_fraction": 0.9},
        passes={"direction": wins >= need},
        notes=[
            "paired seeds: replication r uses sub-seed (2, r) at every T",
            f"config_sha256={run.config_hash}",
        ],
    )
    return report


def cmd_evaluate(args):
    run = Run("evaluate", args, require_config=True)
    model, _ = _resolve_model(run.config)
    checks = run.config.get("checks", ["imse"])
    known = {"imse", "bias", "covariance", "normality", "stationarity"}
    bad = [c for c in checks if c not in known]
    if bad:
        raise ConfigError(f"unknown checks {bad}; available: {sorted(known)}")
    # every check's counts are validated before the first output is written
    counts = {check: _check_replications(run.config, check) for check in checks}
    if model.ar:
        _checked_stability(run, model)
    overall = True
    for check in checks:
        R = counts[check]
        if check == "imse":
            report = _imse_report(run, model, R)
        elif check == "stationarity":
            spec = run.config.get("stationarity", {})
            report = evaluate.local_stationarity_check(
                model,
                u=float(spec.get("u", 0.25)),
                T_list=[int(t) for t in spec.get("T_list", (2**8, 2**10, 2**12))],
                R=R,
                seed=run.seed,
                workers=run.threads,
            )
            report.notes.append(f"config_sha256={run.config_hash}")
        else:
            spec = run.config.get(check, {})
            T = int(spec.get("T", run.config.get("T", 2**12)))
            cfg = _resolve_estimator(run.config, T)
            u = float(spec.get("u", 0.5))
            if check == "bias":
                report = evaluate.mc_mean_bias(
                    model, cfg, T, u, float(spec.get("omega", 0.0)), R,
                    seed=run.seed,
                    projection=tuple(spec.get("projection", (0, 0))),
                    workers=run.threads,
                )
            elif check == "covariance":
                report = evaluate.mc_covariance(
                    model, cfg, T, u,
                    float(spec.get("omega1", np.pi / 2)),
                    float(spec.get("omega2", np.pi / 4)),
                    R, seed=run.seed, workers=run.threads,
                )
            else:
                report = evaluate.mc_normality(
                    model, cfg, T, u, float(spec.get("omega", np.pi / 2)), R,
                    seed=run.seed, workers=run.threads,
                )
            report.notes.append(f"config_sha256={run.config_hash}")
        run.emit(f"{check}.json", lambda p, rep=report: ingest.write_report(rep, p))
        print(f"{check}: {'pass' if report.passed else 'FAIL'}")
        overall = overall and report.passed
    run.finish()
    return EXIT_OK if overall else 1


def cmd_reproduce(args):
    run = Run("reproduce", args)
    T = args.T if args.T is not None else int(run.config.get("T", 2**9))
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
    _checked_stability(run, model)
    # Figure presets taper with sqrt-Epanechnikov so the induced time kernel
    # is the same Epanechnikov kernel the frequency smoother uses.
    cfg = EstimatorConfig.auto(T, taper=TaperSpec(name="sqrt_epanechnikov"))
    n = cfg.N
    t0, t_end = 1 - n // 2, T + n // 2
    render = _render_axis(run.config)
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
    spec = run.config.get("stationarity", {})
    R = _replications("stationarity", spec.get("replications", 16))
    report = check_stability(model)
    run.write_json("stability.json", _stability_payload(report))
    if not report.passed:
        run.finish()
        worst_u, worst_radius = report.worst()
        print(
            f"stability: FAIL (radius {worst_radius:.6g} at u = {worst_u:.6g})",
            file=sys.stderr,
        )
        return EXIT_STABILITY
    stat = evaluate.local_stationarity_check(
        model,
        u=float(spec.get("u", 0.25)),
        T_list=[int(t) for t in spec.get("T_list", (2**8, 2**10, 2**12))],
        R=R,
        seed=run.seed,
        workers=run.threads,
    )
    stat.notes.append(f"config_sha256={run.config_hash}")
    run.emit("stationarity.json", lambda p: ingest.write_report(stat, p))
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
    except StabilityError as exc:
        print(f"stability failure: {exc}", file=sys.stderr)
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
