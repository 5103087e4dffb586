"""Benchmark for tvfspec: four fixed workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts the program as a fresh process again and again for about S
seconds, checks every output apart from the timed process, and prints one
line per metric followed by a JSON result line.  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced processes and holds the per-layer metrics instead.
NOTES.md has the workload rationale, the layer map and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every program process runs with one BLAS/OpenMP thread.  Under the default
# threading a --threads 2 pool oversubscribes the two cores and its wall time
# swings by 2x between runs (a program defect, recorded in NOTES.md).
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.cpu_s", "s"),
    ("cli.Run.finish.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("model.check_stability.calls", "count"),
    ("model.check_stability.busy_s", "s"),
    ("model.simulate.calls", "count"),
    ("model.simulate.busy_s", "s"),
    ("model.choose_ma_order.busy_s", "s"),
    ("model.choose_ma_order.lags", "count"),
    ("model.ma_coefficients.calls", "count"),
    ("model.ma_coefficients.busy_s", "s"),
    ("model.ma_coefficients.lags_computed", "count"),
    ("model.simulate_ma.busy_s", "s"),
    ("spectrum.autocov_sequence.calls", "count"),
    ("spectrum.autocov_sequence.busy_s", "s"),
    ("spectrum.wigner_ville.busy_s", "s"),
    ("spectrum.wigner_ville.self_s", "s"),
    ("spectrum.truth_grid.busy_s", "s"),
    ("estimator.estimate_grid.calls", "count"),
    ("estimator.estimate_grid.busy_s", "s"),
    ("estimator.estimate_grid.self_s", "s"),
    ("estimator.local_periodogram_grid.calls", "count"),
    ("estimator.local_periodogram_grid.busy_s", "s"),
    ("estimator.local_periodogram_grid.computed_mb", "MB"),
    ("evaluate.imse.busy_s", "s"),
    ("evaluate.replication_T512_s.p50", "s"),
    ("evaluate.replication_T4096_s.p50", "s"),
    ("ingest.write_spectral_grid.calls", "count"),
    ("ingest.write_spectral_grid.busy_s", "s"),
    ("ingest.write_spectral_grid.self_s", "s"),
    ("ingest.write_spectral_grid.mb", "MB"),
    ("ingest.write_report.busy_s", "s"),
    ("funspace.kernel_grid.calls", "count"),
    ("funspace.kernel_grid.busy_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
)

# The imse config of the README: far1, K = 15, T in {512, 4096}, 20 paired
# replications, 3 u x 64 omega.
IMSE_CONFIG = {
    "model": {"preset": "far1", "size": 15},
    "estimator": "auto",
    "u": {"count": 5},
    "omega": {"count": 64},
    "imse": {"T_list": [512, 4096], "replications": 20},
    "checks": ["imse"],
}
REPRODUCE_T = 512
REPRODUCE_SLICES = 7
REPRODUCE_REPLICATIONS = 20
MA_SUP_BOUND = 1e-8  # acceptance criterion 03
SETUP_SAMPLES = 4
RTOL = 1e-9


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_problems(out, expected, seed):
    """Inventory, manifest hashes and seed of one CLI output directory."""
    problems = []
    present = set(os.listdir(out))
    if present != expected:
        problems.append(
            f"inventory: missing {sorted(expected - present)[:3]}, extra {sorted(present - expected)[:3]}"
        )
    try:
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return problems + [f"manifest unreadable: {exc}"]
    outputs = manifest.get("outputs", {})
    if set(outputs) != expected - {"manifest.json"}:
        problems.append("manifest does not list every output")
    for name, digest in outputs.items():
        path = os.path.join(out, name)
        if not os.path.isfile(path) or _sha256(path) != digest:
            problems.append(f"hash mismatch: {name}")
    if manifest.get("seed") != seed:
        problems.append(f"manifest seed {manifest.get('seed')} != {seed}")
    return problems


def _read_report(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _close(a, b):
    return np.allclose(a, b, rtol=RTOL, atol=1e-300)


class ReproduceFar2:
    """``tvfspec reproduce far2 --T 512 --threads 1``: mostly output writing."""

    name = "reproduce_far2"
    kind = "cli"
    expected = (
        {"stability.json", "slices.json", "dispersion.json", "config.json", "manifest.json"}
        | {f"slice{i}_truth.csv" for i in range(REPRODUCE_SLICES)}
        | {
            f"slice{i}_rep{r}.csv"
            for i in range(REPRODUCE_SLICES)
            for r in range(REPRODUCE_REPLICATIONS)
        }
    )

    def argv(self, seed, out, workdir):
        return ["reproduce", "far2", "--T", str(REPRODUCE_T), "--threads", "1",
                "--seed", str(seed), "--out", str(out)]

    def check_output(self, out, seed):
        return _manifest_problems(out, self.expected, seed)

    def check_library(self, out, seed, workdir):
        """Replication 0's amplitude surfaces, recomputed slice by slice."""
        from tvfspec import ingest
        from tvfspec.estimator import EstimatorConfig, TaperSpec, estimate_grid
        from tvfspec.funspace import kernel_grid
        from tvfspec.model import far2, replication_seed, simulate

        model = far2(size=15)
        cfg = EstimatorConfig.auto(REPRODUCE_T, taper=TaperSpec(name="sqrt_epanechnikov"))
        t0, t_end = 1 - cfg.N // 2, REPRODUCE_T + cfg.N // 2
        render = ingest.render_grid(64)
        x = simulate(model, REPRODUCE_T, seed=replication_seed(seed, 0), t_start=t0,
                     t_end=t_end, check=False)
        ops = []
        for entry in _read_report(out, "slices.json"):
            i, u, omega = entry["index"], entry["u"], entry["omega"]
            label = f"slice{i}_rep0 amplitudes"
            mat = estimate_grid(x, cfg, REPRODUCE_T, [u], [omega], t0=t0).values[0, 0]
            amp = np.abs(kernel_grid(mat, model.basis, render, render)).ravel()
            table = ingest.read_kernel_table(os.path.join(out, f"slice{i}_rep0.csv"))
            ok = (table.shape == (amp.size, 7) and np.all(table[:, 0] == u)
                  and np.all(table[:, 1] == omega) and _close(table[:, 6], amp))
            ops.append((label, None if ok else "differs from the library recomputation"))
        if len(ops) != REPRODUCE_SLICES:
            ops.append(("slices.json", f"{len(ops)} slices, expected {REPRODUCE_SLICES}"))
        return ops


class EvaluateImse:
    """``tvfspec evaluate`` with the README imse config: Monte Carlo compute."""

    name = "evaluate_imse"
    kind = "cli"
    threads = 1
    expected = {"stability.json", "imse.json", "config.json", "manifest.json"}

    def argv(self, seed, out, workdir):
        return ["evaluate", "--config", str(workdir / "imse.json"), "--threads", str(self.threads),
                "--seed", str(seed), "--out", str(out)]

    def check_output(self, out, seed):
        problems = _manifest_problems(out, self.expected, seed)
        try:
            if _read_report(out, "imse.json").get("passed") is not True:
                problems.append("imse report did not pass")
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"imse.json unreadable: {exc}")
        return problems

    def check_library(self, out, seed, workdir):
        """IMSE of replication 0 at each T, recomputed through library calls."""
        from tvfspec.estimator import EstimatorConfig, estimate_grid, fourier_frequencies
        from tvfspec.evaluate import imse
        from tvfspec.model import far1, replication_seed, simulate
        from tvfspec.spectrum import truth_grid

        spec = IMSE_CONFIG["imse"]
        t_list = spec["T_list"]
        model = far1(size=IMSE_CONFIG["model"]["size"])
        cfgs = {T: EstimatorConfig.auto(T) for T in t_list}
        lo = max(cfgs[T].valid_band(T)[0] for T in t_list)
        hi = min(cfgs[T].valid_band(T)[1] for T in t_list)
        us = np.linspace(lo, hi, 3)
        omegas = fourier_frequencies(IMSE_CONFIG["omega"]["count"])
        truth = truth_grid(model, us, omegas)
        quantities = _read_report(out, "imse.json")["quantities"]
        ops = []
        for T in t_list:
            x = simulate(model, T, seed=replication_seed(seed, 0), check=False)
            value = imse(estimate_grid(x, cfgs[T], T, us, omegas), truth).value
            reported = quantities[f"imse_per_rep_T{T}"]
            ok = len(reported) == spec["replications"] and _close(reported[0], value)
            ops.append((f"imse T={T} rep 0", None if ok else f"reported {reported[0]!r}, recomputed {value!r}"))
        return ops


class EvaluateImsePool(EvaluateImse):
    """The same evaluation through a two-process pool."""

    name = "evaluate_imse_pool"
    threads = 2

    def __init__(self):
        self.reference = None

    def check_output(self, out, seed):
        problems = super().check_output(out, seed)
        if self.reference is not None:
            with open(os.path.join(out, "imse.json"), "rb") as fh:
                if fh.read() != self.reference:
                    problems.append("imse.json differs from the --threads 1 report")
        return problems

    def check_library(self, out, seed, workdir):
        """One untimed ``--threads 1`` run: the pool's report must match it byte for byte."""
        rep = run_program(EvaluateImse(), seed, workdir, "reference", traced=False)
        if rep["exit"] != 0:
            return [("--threads 1 reference run", f"exited {rep['exit']}")]
        self.reference = (rep["out"] / "imse.json").read_bytes()
        shutil.rmtree(rep["out"], ignore_errors=True)
        return [("--threads 1 reference run", None)]


class ExactTruth:
    """Library-only: exact spectra and causal filters of far2 at T = 512."""

    name = "exact_truth"
    kind = "exact_truth"

    def argv(self, seed, out, workdir):
        return []

    def check_output(self, out, seed):
        try:
            data = np.load(os.path.join(out, "exact_truth.npz"))
        except (OSError, ValueError) as exc:
            return [f"results unreadable: {exc}"]
        problems = []
        if not bool(data["stable"]):
            problems.append("far2 failed its stability check")
        sup = float(np.abs(data["x"] - data["y"]).max())
        if not sup < MA_SUP_BOUND:
            problems.append(f"simulate_ma - simulate sup {sup:.3e} >= {MA_SUP_BOUND}")
        for key in ("wigner_ville", "truth"):
            values = data[key]
            dev = float(np.abs(values - np.conj(np.swapaxes(values, -1, -2))).max())
            if not dev <= 1e-12 * float(np.abs(values).max()):
                problems.append(f"{key} not Hermitian: deviation {dev:.3e}")
        return problems

    def check_library(self, out, seed, workdir):
        """The truth grid at u = 0.5, recomputed through one library call."""
        from tvfspec.estimator import fourier_frequencies
        from tvfspec.model import far2
        from tvfspec.spectrum import truth_grid

        stored = np.load(os.path.join(out, "exact_truth.npz"))["truth"][1]
        again = truth_grid(far2(size=15), [0.5], fourier_frequencies(64)).values[0]
        return [("truth_grid u=0.5", None if _close(stored, again) else "differs from the saved grid")]


WORKLOADS = {w.name: w for w in (ReproduceFar2, EvaluateImse, EvaluateImsePool, ExactTruth)}


def _child_env():
    env = dict(os.environ)
    env.update(PINNED)
    # Let the warm-up import write bytecode, as installing a package does, so
    # that set-up time does not depend on the caller's environment.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def run_program(workload, seed, workdir, tag, traced, setup_only=False):
    """Start one program process, wait for it, and return its measurements."""
    out = workdir / f"out-{tag}"
    spec_path = workdir / f"{tag}.spec.json"
    meta_path = workdir / f"{tag}.meta.json"
    trace_path = workdir / f"{tag}.spans.json" if traced else None
    log_path = workdir / f"{tag}.log"
    with open(spec_path, "w") as fh:
        json.dump({
            "workload": workload.kind,
            "argv": workload.argv(seed, out, workdir),
            "seed": seed,
            "out": str(out),
            "meta": str(meta_path),
            "trace": trace_path and str(trace_path),
            "setup_only": setup_only,
        }, fh)
    with open(log_path, "wb") as log:
        start = time.monotonic()
        # A session of its own, so that on interruption the child and its pool
        # workers are killed together.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=_child_env(),
            start_new_session=True,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {
        "exit": proc.returncode,
        "wall_s": end - start,
        # wait4 reports the largest resident set of the child and of the pool
        # workers it reaped, in KiB, and their summed CPU time.
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "output_mb": _tree_bytes(out) / 1e6 if out.is_dir() else 0.0,
        "out": out,
    }
    if proc.returncode != 0:
        with open(log_path, "rb") as fh:
            sys.stderr.write(fh.read()[-2000:].decode(errors="replace"))
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        rep["setup_s"] = meta["ready"] - start
        rep["import_s"] = meta["imported"] - meta["import_start"]
    except (OSError, json.JSONDecodeError, KeyError):
        rep["setup_s"] = rep["import_s"] = 0.0
    if traced:
        rep["spans"] = spans.load(trace_path) if trace_path.is_file() else []
    return rep


class Tally:
    """Operations attempted and failed; a wrong output is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


def measure(workload, seed, seconds, trace, workdir, tally):
    """Run the program repeatedly for about ``seconds``.

    Returns the untraced runs, the traced runs, and the set-up times of the
    untraced runs plus those of ``SETUP_SAMPLES`` processes that only set up.
    """
    plain, traced = [], []
    start = time.monotonic()
    setups = [
        run_program(workload, seed, workdir, f"setup{i}", traced=False, setup_only=True)["setup_s"]
        for i in range(SETUP_SAMPLES)
    ]
    deadline = start + seconds
    rounds = 0
    while True:
        batch = [False, True] if trace else [False]
        for is_traced in batch:
            tag = f"{'traced' if is_traced else 'plain'}{rounds}"
            rep = run_program(workload, seed, workdir, tag, traced=is_traced)
            problems = [] if rep["exit"] == 0 else [f"exit code {rep['exit']}"]
            if rep["exit"] == 0 and rounds == 0 and not is_traced:
                for label, problem in workload.check_library(rep["out"], seed, workdir):
                    tally.record(label, [problem] if problem else [])
            if rep["exit"] == 0:
                problems += workload.check_output(rep["out"], seed)
            tally.record(f"{workload.name} run {tag}", problems)
            shutil.rmtree(rep["out"], ignore_errors=True)
            (traced if is_traced else plain).append(rep)
        rounds += 1
        now = time.monotonic()
        min_rounds = 1 if trace else 2
        if rounds >= min_rounds and now + (now - start) / rounds > deadline:
            return plain, traced, setups + [r["setup_s"] for r in plain]


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def end_to_end_metrics(plain, setups):
    return {
        name: statistics.median(setups) if name == "setup_s" else _median(plain, name)
        for name, _ in END_TO_END
    }


def layer_metrics(rep, plain_wall_s):
    """Per-layer metrics of one traced program run."""
    trace = rep["spans"]
    stats = spans.layer_stats(trace)
    reps_by_T = spans.replication_times(trace)
    derived = {
        "cli.import_s": rep["import_s"],
        "model.choose_ma_order.lags": max(spans.attr_values(trace, "model.choose_ma_order", "lags"), default=0),
        "model.ma_coefficients.lags_computed": sum(spans.attr_values(trace, "model.ma_coefficients", "lags")),
        "estimator.local_periodogram_grid.computed_mb":
            sum(spans.attr_values(trace, "estimator.local_periodogram_grid", "bytes")) / 1e6,
        "ingest.write_spectral_grid.mb": sum(spans.attr_values(trace, "ingest.write_spectral_grid", "bytes")) / 1e6,
        "evaluate.replication_T512_s.p50": spans.median(reps_by_T.get(512, [])),
        "evaluate.replication_T4096_s.p50": spans.median(reps_by_T.get(4096, [])),
        "trace.overhead_s": rep["wall_s"] - plain_wall_s,
        "trace.coverage": (rep["setup_s"] + spans.top_level_s(trace)) / rep["wall_s"],
    }
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name != "cli.cpu_s":
            span_name, key = name.rsplit(".", 1)
            out[name] = stats.get(span_name, {}).get(key, 0)
    return out


def per_layer_metrics(plain, traced):
    wall = _median(plain, "wall_s")
    per_rep = [layer_metrics(rep, wall) for rep in traced]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["cli.cpu_s"] = _median(plain, "cpu_s")
    return metrics


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "tvfspec" / "cli.py").is_file():
        print(f"benchmark: no tvfspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    seed = args.seed % 2**32
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with open(workdir / "imse.json", "w") as fh:
            json.dump(IMSE_CONFIG, fh, indent=2)
        # Untimed: byte-compiles the package and warms the file cache, costs
        # an installed package does not pay on every run.
        subprocess.run([sys.executable, "-c", "import tvfspec.cli"], env=_child_env(), check=False)
        tally = Tally()
        plain, traced, setups = measure(workload, seed, args.seconds, args.trace, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for problem in tally.problems:
        print(f"FAILED {problem}")
    walls = sorted(r["wall_s"] for r in plain)
    q1, q3 = _quartiles(walls)
    print(f"{workload.name} seed {seed}: {len(plain)} untraced runs"
          + (f", {len(traced)} traced runs" if traced else "")
          + f"; wall_s median {statistics.median(walls):.4f} s (quartiles {q1:.4f}, {q3:.4f})")
    print(f"error_rate {tally.failed / tally.attempted:.4g} ({tally.failed} of {tally.attempted} operations failed)")
    if args.trace:
        values, units = per_layer_metrics(plain, traced), dict(PER_LAYER)
    else:
        values, units = end_to_end_metrics(plain, setups), dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
