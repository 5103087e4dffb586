"""Monte Carlo verification of the estimator's limit theory.

Every check here runs R seeded replications of simulate-then-estimate and
compares moments of the estimates against the corresponding population
quantity, and returns an ``McReport``: the smoothed mean expansion
(``mc_mean_bias``, second-order bias in both bandwidths), the scaled variance
limit 2 pi |K_t|^2 |K_f|^2 with its frequency-degeneracy terms
(``mc_covariance``), joint Gaussianity of the centred and scaled projections
(``mc_normality``), integrated squared error decay (``mc_imse``), and the
coupled bound defining local stationarity (``local_stationarity_check``).
The checks build reports and never serialise them; that is left to the file
formats module, and ``cli`` connects the two.  Replication r of a run with
master seed s draws its innovations from the sub-stream (2, r) of s (the
stationarity check's replication r at its ti-th sample size from (2, ti, r)),
so reports are reproducible and independent of worker count; reductions
always run in replication order.
``replicate`` is the one function that simulates replications, and it runs
the stability gate ``model.require_stable`` before it simulates.  Its tasks
declare the time windows they read, and each pass of replications runs one
time loop that holds only the open windows and hands each window to its
task as soon as the window closes.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial

import numpy as np

from .estimator import (
    EstimatorConfig,
    _smoothed_blocks,
    _smoothed_rows,
    _smoothing_band,
    _warn_degenerate,
    frequency_constants,
    kernel_constants,
    wrap_frequency,
)
from .model import (
    DEFAULT_BURN_IN,
    TvFarmaModel,
    _row_bytes,
    _simulate_rows,
    _whole,
    replication_seed,
    require_stable,
)
from .spectrum import SpectralGrid, TWO_PI, true_spectral_density, truth_grid


@dataclass
class McReport:
    """Outcome of one Monte Carlo check.

    quantities holds plain JSON-ready numbers (complex values as re/im
    dicts); passes maps criterion names to True/False, or None when the
    check is informational at the requested scale.
    """

    name: str
    seed: int
    replications: int
    quantities: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(v for v in self.passes.values() if v is not None)

    def document(self):
        """JSON-ready dict of the report: its fields and ``passed``."""
        return {**asdict(self), "passed": self.passed}


def _cnum(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# Bytes one pass may hold at a time in open windows and in the time loop's
# two rolling (span, R, K) buffers.  All 20 replications of ``reproduce far2
# --T 65536`` (two overlapping 25 MB windows of N = 10322 steps) share one
# time loop, and every run at T <= 4096 with up to ~200 replications keeps
# all of them in one loop.
WINDOW_BYTES = 64 * 2**20

# Simulated values (rows x steps x K) below which replications stay in one
# process whatever ``workers`` says.  On a 2-vCPU Xeon VM the work that grows
# with the rows (draws, the time loop's arithmetic, the reductions) costs
# 60-80 ns per value at K = 1, 3 and 15, and a forced two-process split took
# 0.08-0.16 s longer than half the one-process time: the pool's start-up and
# each worker's repeat of the per-step interpreter overhead do not divide.
# Timed in one and in two processes, the split lost every time up to 1.3 M
# values (README imse config at T = 4096: 0.14-0.16 s in one process,
# 0.20-0.26 s in two), was mixed at 1.5-1.6 M (``reproduce far2 --T 4096``:
# 0.25 s in one, 0.21-0.37 s in two) and paid in 21 of 23 timings from 1.8 M
# on (far1 imse, 30 replications at T = 4096, 2.0 M: 0.18-0.22 s in one,
# 0.15-0.18 s in two).  BENCH_15.json lists the runs.
POOL_MIN_VALUES = 1_800_000

# Fixed tolerances of the checks; each report records the ones it applies.
DERIV_STEP = 1e-3  # finite-difference step of the bias check's derivatives
DERIV_REACH = 2 * DERIV_STEP  # farthest point of the five-point stencil from its centre
COVARIANCE_RTOL = 0.25  # relative agreement of a nonzero covariance limit
NORMALITY_Z = 2.576  # two-sided 1% level of the moment z tests
NORMALITY_MIN_DOF = 12.0  # below this effective dof normality is informational
STATIONARITY_SLOPE_TOL = 0.15  # |slope| of log mean P_t^2 against log T
IMSE_WIN_FRACTION = 0.9  # share of paired replications whose IMSE falls from least to most T

# Coefficient projections (m, n) of the covariance and normality checks
COVARIANCE_PAIRS = (((0, 0), (0, 0)),)
NORMALITY_PROJECTIONS = ((0, 1), (0, 2), (1, 2))


def require_projections(check, dim, projection=(0, 0)):
    """The one projection rule: raise ValueError unless every coefficient
    projection (m, n) that ``check`` reads indexes a dim x dim matrix.
    ``projection`` is the bias check's own."""
    wanted = {"bias": [projection], "covariance": [p for pair in COVARIANCE_PAIRS for p in pair],
              "normality": NORMALITY_PROJECTIONS}[check]
    for p in wanted:
        if len(p) != 2 or not all(0 <= i < dim for i in p):
            raise ValueError(f"{check} projection must be two indices in [0, {dim}), "
                             f"got {list(p)}")


def _require_replications(check, R, least=2):
    """Raise ValueError unless ``check`` runs at least ``least`` replications
    (two where it takes sample deviations, with ddof=1)."""
    if R < least:
        raise ValueError(f"{check} check needs at least {least} replications, got {R}")


def replicate(model, T, seeds, task, workers=1):
    """Per-row results of ``task`` over replications, one row per seed, in seed order.

    Runs the stability gate ``require_stable`` first.  Row r is, bit for
    bit, ``simulate(model, T, seed=seeds[r], t_start=t0, t_end=stop)`` for
    any stop, but no row is ever held whole.  ``task`` declares its first
    observed time t0, ``task.t0`` (default 1), and the absolute time windows
    it reads, ``task.windows``, inclusive (start, stop) pairs at or after t0.
    The seeds are split into passes; each pass runs one time loop for all
    its rows, hands window i to ``task.reduce(i, xs, seeds)`` as a
    (c, stop - start + 1, K) array as soon as the loop has passed its stop,
    and returns ``task.combine(parts)``, the c per-row results built from
    the reductions in window order.

    A pass holds at most ``WINDOW_BYTES`` of open windows and rolling span
    buffers (at least one row) and at most ceil(len(seeds) / workers) rows,
    and the passes are as even as whole rows allow.  A task whose reductions
    simulate more rows over the same windows while a window is open declares
    how many simulator runs a row takes, ``task.runs`` (default 1), and the
    budget holds that many.  A run of fewer than ``POOL_MIN_VALUES``
    simulated values counts as one worker, and ``workers`` is capped at the
    CPUs this process may run on.  With ``workers > 1`` the passes run in at
    most ``min(workers, passes)`` processes; ``task`` must then pickle.  The
    output is the same for every ``workers``, because rows do not depend on
    how they are grouped.
    """
    require_stable(model)
    windows = task.windows
    t0 = getattr(task, "t0", 1)
    first = t0 - DEFAULT_BURN_IN
    if min(start for start, _ in windows) < t0:
        raise ValueError(f"a window starts before the observations at t = {t0}")
    steps = max(stop for _, stop in windows) - first + 1
    if len(seeds) * steps * model.dim < POOL_MIN_VALUES:
        workers = 1
    workers = max(1, min(workers, _usable_cpus()))
    row_bytes = getattr(task, "runs", 1) * _row_bytes(model, windows, t0)
    rows = max(1, min(WINDOW_BYTES // row_bytes, math.ceil(len(seeds) / workers)))
    count = math.ceil(len(seeds) / rows)
    # passes as even as whole rows allow, the longer ones last
    edges = [p * len(seeds) // count for p in range(count + 1)]
    passes = [list(seeds[a:b]) for a, b in zip(edges, edges[1:])]
    one = partial(_run_pass, model, T, task, first)
    workers = min(workers, len(passes))
    if workers > 1:
        # imported only here: loading the pool machinery (multiprocessing,
        # socket) adds ~15 ms to the start-up of every run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, passes))
    else:
        results = [one(rows) for rows in passes]
    return np.concatenate(results)


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_pass(model, T, task, first, seeds):
    """``task`` over one pass of rows, simulated in one time loop from ``first``."""
    parts = _simulate_rows(model, T, seeds, first, task.windows,
                           lambda i, xs: task.reduce(i, xs, seeds))
    return task.combine(parts)


@dataclass(frozen=True)
class _EstimatePoints:
    """Replication task: estimates at (u, omega) points, shape (c, len(points), K, K).

    Reads one window per distinct u, the N observations of its segment,
    which must lie inside the observations [t0, t_end] (default [1, T]),
    and estimates all of that u's frequencies in one smoother call.
    """

    cfg: EstimatorConfig
    T: int
    points: list
    t0: int = 1
    t_end: int | None = None

    @cached_property
    def groups(self):
        """(u, indices of its points) for each distinct u, in first-seen order."""
        order = {}
        for idx, (u, _) in enumerate(self.points):
            order.setdefault(float(u), []).append(idx)
        return list(order.items())

    @cached_property
    def windows(self):
        return [self.cfg.segment(self.T, u, self.t0, self.t_end) for u, _ in self.groups]

    @cached_property
    def bands(self):
        return [_smoothing_band(self.cfg, np.array([self.points[i][1] for i in idxs], dtype=float))
                for _, idxs in self.groups]

    def reduce(self, i, xs, seeds):
        return _smoothed_rows(xs, self.cfg, self.bands[i])

    def combine(self, parts):
        k = parts[0].shape[-1]
        out = np.empty((len(parts[0]), len(self.points), k, k), dtype=complex)
        for (_, idxs), part in zip(self.groups, parts):
            out[:, idxs] = part
        return out


def _estimates(model, cfg, T, points, R, seed, workers):
    """An estimating check's estimates at ``points`` (u, omega) over R replications,
    shape (R, len(points), K, K).  A degenerate bandwidth is warned of at the check's
    caller, and the bands are built before any replication runs: an empty band raises
    first."""
    _warn_degenerate(cfg, stacklevel=4)
    task = _EstimatePoints(cfg, T, points)
    task.bands  # built now, not in the first reduction
    return replicate(model, T, [replication_seed(seed, r) for r in range(R)], task, workers)


def _second_derivative(fn, x0, step):
    """Five-point second derivative with a half-step consistency check."""

    def stencil(h):
        vals = [fn(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)

    coarse = stencil(step)
    fine = stencil(step / 2)
    scale = max(abs(fine), abs(coarse), 1e-12)
    return fine, abs(fine - coarse) / scale


def mc_mean_bias(model, cfg, T, u, omega, R, seed=0, projection=(0, 0), workers=1):
    """Compare the Monte Carlo mean against the smoothed-mean expansion.

    The second-order prediction adds (b_t^2 kappa_t d^2_u + b_f^2 kappa_f
    d^2_omega) <F> / 2 to the truth, with derivatives taken by finite
    differences on the exact spectral density; the model's curves must be
    smooth in u for that to make sense, and the stencil u +- ``DERIV_REACH``
    must lie in [0, 1].  The truth and both derivatives are computed before
    any replication runs.  Passes when the second-order prediction is
    strictly closer to the Monte Carlo mean than the truth itself.
    """
    require_projections("bias", model.dim, projection)
    _require_replications("bias", R)
    m, n = projection
    require_stable(model)  # before the truth inverts the AR symbol

    def proj_u(uu):
        return true_spectral_density(model, uu, omega)[m, n]

    def proj_w(ww):
        return true_spectral_density(model, u, ww)[m, n]

    truth = proj_u(u)
    d2u, gap_u = _second_derivative(proj_u, u, DERIV_STEP)
    d2w, gap_w = _second_derivative(proj_w, omega, DERIV_STEP)
    ests = _estimates(model, cfg, T, [(u, omega)], R, seed, workers)
    vals = ests[:, 0, m, n]
    mc_mean = complex(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(R))
    kt = kernel_constants(cfg.taper)
    kf = frequency_constants()
    bt = cfg.b_t(T)
    pred2 = truth + 0.5 * bt**2 * kt.kappa * d2u + 0.5 * cfg.b_f**2 * kf.kappa * d2w
    err0 = abs(mc_mean - truth)
    err2 = abs(mc_mean - pred2)
    report = McReport(name="mean_bias", seed=seed, replications=R)
    report.quantities = {
        "u": u, "omega": omega, "T": T, "projection": [m, n],
        "mc_mean": _cnum(mc_mean), "se": se,
        "prediction_order0": _cnum(truth), "prediction_order2": _cnum(pred2),
        "d2_u": _cnum(d2u), "d2_omega": _cnum(d2w),
        "derivative_consistency": {"u": gap_u, "omega": gap_w},
        "abs_error_order0": err0, "abs_error_order2": err2,
        "b_t": bt, "b_f": cfg.b_f, "kappa_t": kt.kappa, "kappa_f": kf.kappa,
    }
    report.tolerances = {"derivative_consistency": 0.01}
    report.passes = {
        "second_order_closer": bool(err2 < err0),
        "derivatives_consistent": bool(max(gap_u, gap_w) < 0.01),
    }
    return report


def _eta(x):
    # frequency-degeneracy indicator: 1 when x = 0 mod 2 pi
    return 1.0 if abs(wrap_frequency(x)) < 1e-9 else 0.0


def predicted_covariance(f1, cfg, omega1, omega2, pair):
    """Limit of b_t b_f T cov(<Fhat psi pair>) from the sharp variance bound.

    ``f1`` is the spectral density operator F(u, omega1) at the estimates'
    rescaled time; the limit is 2 pi |K_t|^2 |K_f|^2 (eta(omega1 - omega2)
    F_mm' conj(F_nn') + eta(omega1 + omega2) F_mn' conj(F_nm')) for the
    projections ((m, n), (m', n')) of ``pair``.
    """
    (m, n), (mm, nn) = pair
    kt = kernel_constants(cfg.taper)
    kf = frequency_constants()
    lead = TWO_PI * kt.l2 * kf.l2
    term1 = _eta(omega1 - omega2) * f1[m, mm] * np.conj(f1[n, nn])
    term2 = _eta(omega1 + omega2) * f1[m, nn] * np.conj(f1[n, mm])
    return lead * (term1 + term2)


def mc_covariance(model, cfg, T, u, omega1, omega2, R, seed=0, workers=1):
    """Scaled covariances of estimator projections against the sharp limit.

    For each pair of coefficient projections in ``COVARIANCE_PAIRS``,
    compares the sample statistic b_t b_f T cov(Z1, Z2) with the predicted
    limit; when the prediction is zero (separated frequencies) the pass
    criterion is |cov| < 3 SE, else relative agreement within
    ``COVARIANCE_RTOL``.
    """
    require_projections("covariance", model.dim)
    _require_replications("covariance", R)
    ests = _estimates(model, cfg, T, [(u, omega1), (u, omega2)], R, seed, workers)
    scale = cfg.b_t(T) * cfg.b_f * T
    report = McReport(name="covariance", seed=seed, replications=R)
    report.quantities = {
        "u": u, "omega1": omega1, "omega2": omega2, "T": T,
        "scale": scale, "pairs": [],
    }
    report.tolerances = {"relative": COVARIANCE_RTOL, "zero_sigma": 3.0}
    f1 = true_spectral_density(model, u, omega1)
    for pid, pair in enumerate(COVARIANCE_PAIRS):
        (m, n), (mm, nn) = pair
        z1 = ests[:, 0, m, n]
        z2 = ests[:, 1, mm, nn]
        d1 = z1 - z1.mean()
        d2 = z2 - z2.mean()
        cov = complex(np.mean(d1 * np.conj(d2)) * scale)
        # moment SE of the scaled covariance from the replication spread
        prods = d1 * np.conj(d2) * scale
        se = float(np.std(prods, ddof=1) / np.sqrt(R))
        pred = complex(predicted_covariance(f1, cfg, omega1, omega2, pair))
        entry = {
            "pair": [[m, n], [mm, nn]],
            "scaled_cov": _cnum(cov), "se": se, "predicted": _cnum(pred),
        }
        if pred == 0:  # both degeneracy indicators are 0: separated frequencies
            ok = abs(cov) < 3.0 * se
            entry["criterion"] = "zero_within_3se"
        else:
            ok = abs(cov - pred) < COVARIANCE_RTOL * abs(pred)
            entry["criterion"] = "relative"
        report.quantities["pairs"].append(entry)
        report.passes[f"pair_{pid}"] = bool(ok)
    return report


def _moment_ztests(sample, R):
    """Skewness and excess-kurtosis z statistics of a standardized sample."""
    z = (sample - sample.mean()) / sample.std(ddof=1)
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4) - 3.0)
    return skew * np.sqrt(R / 6.0), kurt * np.sqrt(R / 24.0)


def effective_dof(cfg):
    """Rough chi-square degrees of freedom of one smoothed entry."""
    kt = kernel_constants(cfg.taper)
    kf = frequency_constants()
    return 2.0 * cfg.b_f * cfg.N / (TWO_PI * kf.l2 * kt.l2)


def mc_normality(model, cfg, T, u, omega, R, seed=0, workers=1):
    """Gaussianity of centred, scaled estimator projections.

    Applies skewness and excess-kurtosis z tests (two-sided 1% level) to
    the real and imaginary parts of sqrt(b_t b_f T) (proj - mean).
    ``NORMALITY_PROJECTIONS`` are off-diagonal: diagonal entries keep a
    visible chi-square skew at desk-scale effective degrees of freedom.
    When those degrees of freedom fall below ``NORMALITY_MIN_DOF`` the
    outcome is recorded as informational rather than pass/fail.
    """
    require_projections("normality", model.dim)
    _require_replications("normality", R)
    ests = _estimates(model, cfg, T, [(u, omega)], R, seed, workers)
    scale = np.sqrt(cfg.b_t(T) * cfg.b_f * T)
    dof = effective_dof(cfg)
    informational = dof < NORMALITY_MIN_DOF
    report = McReport(name="normality", seed=seed, replications=R)
    report.quantities = {
        "u": u, "omega": omega, "T": T, "effective_dof": dof, "projections": [],
    }
    report.tolerances = {"z_abs": NORMALITY_Z}
    if informational:
        report.notes.append(
            f"effective dof {dof:.1f} below {NORMALITY_MIN_DOF}; moments recorded, not enforced"
        )
    # at omega = 0 mod pi the estimates are real, so only their real parts are tested
    parts = 1 if _eta(2 * omega) else 2
    for m, n in NORMALITY_PROJECTIONS:
        vals = scale * (ests[:, 0, m, n] - ests[:, 0, m, n].mean())
        for part, arr in (("re", vals.real), ("im", vals.imag))[:parts]:
            zs, zk = _moment_ztests(arr, R)
            key = f"proj_{m}{n}_{part}"
            report.quantities["projections"].append(
                {"projection": [m, n], "part": part, "z_skew": zs, "z_kurt": zk}
            )
            ok = max(abs(zs), abs(zk)) < NORMALITY_Z
            report.passes[key] = None if informational else bool(ok)
    return report


@dataclass(frozen=True)
class ImseResult:
    """Integrated squared error summary over a (u, omega) grid."""

    value: float
    per_u: np.ndarray


def imse(estimate, truth):
    """Mean integrated squared Hilbert-Schmidt error of an estimate grid.

    ``estimate`` and ``truth`` are ``SpectralGrid``s on the same (u, omega)
    points; the truth's omega axis must pass ``require_frequency_axis``.
    ``value`` of the result averages ``per_u``, the trapezoid integrals of
    the squared errors over omega.
    """
    require_frequency_axis(truth.omega)
    if estimate.values.shape != truth.values.shape:
        raise ValueError("estimate and truth grids have different shapes")
    if not (np.allclose(estimate.u, truth.u, atol=1e-12)
            and np.allclose(estimate.omega, truth.omega, atol=1e-12)):
        raise ValueError("estimate and truth grids are on different points")
    per_u = np.trapezoid(_squared_errors(estimate.values - truth.values), truth.omega, axis=1)
    return ImseResult(value=float(per_u.mean()), per_u=per_u)


def require_frequency_axis(omega, name="omega"):
    """The IMSE's frequency rule: raise ValueError unless ``omega`` strictly
    increases over two or more points, the axis a trapezoid integral needs."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.ndim != 1 or omega.size < 2 or not np.all(np.diff(omega) > 0):
        raise ValueError(f"{name} needs 2 or more distinct frequencies in increasing order, "
                         f"got {omega.tolist()}")


def _squared_errors(diff):
    """Squared Hilbert-Schmidt norms of the K x K differences on the trailing axes."""
    sq = np.abs(diff)
    sq **= 2
    return sq.sum(axis=(-2, -1))


@dataclass(frozen=True)
class _ImseTask:
    """Replication task: the ``imse`` value of each row, shape (c,).

    Reads one window per u of the truth grid and reduces its estimates to
    squared errors one row block at a time, so a pass never holds an
    estimate grid.
    """

    cfg: EstimatorConfig
    T: int
    truth: SpectralGrid

    @cached_property
    def windows(self):
        return [self.cfg.segment(self.T, u) for u in self.truth.u]

    @cached_property
    def band(self):
        return _smoothing_band(self.cfg, self.truth.omega)

    def reduce(self, i, xs, seeds):
        diffsq = np.empty((len(xs), self.truth.omega.size))
        for rows, est in _smoothed_blocks(xs, self.cfg, self.band):
            est -= self.truth.values[i]
            diffsq[rows] = _squared_errors(est)
        return diffsq

    def combine(self, parts):
        diffsq = np.stack(parts, axis=1)
        return np.trapezoid(diffsq, self.truth.omega, axis=-1).mean(axis=-1)


def mc_imse(model, cfgs, us, omegas, R, seed=0, workers=1):
    """Integrated squared error across sample sizes, on paired seeds.

    ``cfgs`` maps each sample size T to its ``EstimatorConfig``.  Every T
    estimates the truth grid over ``us`` x ``omegas`` (``omegas`` must pass
    ``require_frequency_axis``) from the same R replications: replication r
    uses sub-seed (2, r) at every T.  Reports each replication's ``imse``
    value per T; passes when it falls from the least to the most T in at
    least ``IMSE_WIN_FRACTION`` of the replications.
    """
    t_list = sorted(cfgs)
    _require_replications("imse", R, 1)
    if len(t_list) < 2:  # the comparison needs two sample sizes
        raise ValueError(f"imse T_list needs 2 or more distinct entries, got {t_list}")
    require_frequency_axis(omegas)
    require_stable(model)  # before the truth grid inverts the AR symbol
    truth = truth_grid(model, us, omegas)
    tasks = {T: _ImseTask(cfgs[T], T, truth) for T in t_list}
    for task in tasks.values():
        _warn_degenerate(task.cfg)
        task.band  # built before any replication runs: an empty band raises here
    seeds = [replication_seed(seed, r) for r in range(R)]
    values = {T: replicate(model, T, seeds, tasks[T], workers) for T in t_list}
    wins = int(np.sum(values[t_list[-1]] < values[t_list[0]]))
    need = int(np.ceil(IMSE_WIN_FRACTION * R))
    report = McReport(name="imse_consistency", seed=seed, replications=R)
    report.quantities = {
        **{f"imse_mean_T{T}": float(values[T].mean()) for T in t_list},
        **{f"imse_per_rep_T{T}": values[T] for T in t_list},
        "wins": wins,
        "wins_needed": need,
    }
    report.tolerances = {"win_fraction": IMSE_WIN_FRACTION}
    report.passes = {"direction": wins >= need}
    report.notes.append("paired seeds: replication r uses sub-seed (2, r) at every T")
    return report


@dataclass(frozen=True)
class _CouplingTask:
    """Replication task: P_t^2 against the frozen process on the same seeds, shape (c, T).

    Reads all of [1, T] in one window; the frozen rows of the whole pass are
    simulated in one more time loop while that window is open, so a row takes
    two simulator runs.
    """

    frozen: TvFarmaModel
    T: int
    u: float
    runs = 2  # the model's rows and the frozen rows, both held at the window's close

    @property
    def windows(self):
        return [(1, self.T)]

    def reduce(self, i, xs, seeds):
        ys = _simulate_rows(self.frozen, self.T, seeds, 1 - DEFAULT_BURN_IN, self.windows,
                            _whole)[0]
        ys -= xs
        ys *= ys  # in place: the sum np.linalg.norm takes, without its squared copy
        denom = np.abs(np.arange(1, self.T + 1) / self.T - self.u) + 1.0 / self.T
        return (np.sqrt(ys.sum(axis=2)) / denom) ** 2

    def combine(self, parts):
        return parts[0]


def local_stationarity_check(model, u, T_list, R, seed=0, workers=1):
    """Coupled-process bound behind the locally stationary approximation.

    For each T simulates the triangular array and its stationary companion
    frozen at ``u`` on shared innovations and forms
    P_t = |X_{t,T} - X_t(u)| / (|t/T - u| + 1/T).  Reports, per T, the
    maximum over t of the replication mean of P_t^2 and its average over t;
    the pass criterion is that the slope of log average versus log T stays
    within ``STATIONARITY_SLOPE_TOL`` of zero (the second moment is bounded
    in T).  A model that does not vary in time equals its frozen copy, so
    every average is zero: that passes with slope 0.  Averages that vanish
    at some T only have no log-log slope, and fail.
    """
    T_list = [int(t) for t in T_list]
    _require_replications("stationarity", R, 1)
    if len(set(T_list)) < 2:  # the slope needs two sample sizes
        raise ValueError(f"stationarity T_list needs 2 or more distinct entries, got {T_list}")
    for i, T in enumerate(T_list):  # a repeat would count twice in the slope's fit
        if T in T_list[:i]:
            raise ValueError(f"stationarity T_list[{i}] repeats {T}; each entry may appear once")
    frozen = model.frozen(u)
    require_stable(frozen)  # once, here; the passes simulate it unchecked
    means = []
    maxima = []
    for ti, T in enumerate(T_list):
        acc = replicate(model, T, [replication_seed(seed, ti, r) for r in range(R)],
                        _CouplingTask(frozen, T, u), workers).mean(axis=0)
        means.append(float(acc.mean()))
        maxima.append(float(acc.max()))
    report = McReport(name="local_stationarity", seed=seed, replications=R)
    if all(means):
        slope = float(np.polyfit(np.log(T_list), np.log(means), 1)[0])
    elif any(means):
        slope = math.nan
        report.notes.append("mean P_t^2 is zero at some T only: no log-log slope")
    else:
        slope = 0.0
        report.notes.append("the coupled distance is identically zero: the model equals "
                            "its frozen copy, so its second moment is bounded")
    report.quantities = {
        "u": u, "T": T_list, "mean_p2": means, "max_p2": maxima, "slope": slope,
    }
    report.tolerances = {"slope_abs": STATIONARITY_SLOPE_TOL}
    report.passes = {"bounded_second_moment": abs(slope) <= STATIONARITY_SLOPE_TOL}
    return report
