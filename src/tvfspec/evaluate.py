"""Monte Carlo verification of the estimator's limit theory.

Every check here runs R seeded replications of simulate-then-estimate and
compares moments of the estimates against the corresponding population
quantity: the smoothed mean expansion (second-order bias in both
bandwidths), the scaled variance limit 2 pi |K_t|^2 |K_f|^2 with its
frequency-degeneracy terms, joint Gaussianity of the centred and scaled
projections, integrated squared error decay, and the coupled bound defining
local stationarity.  Replication r of a run with master seed s draws its
innovations from the sub-stream (2, r) of s, so reports are reproducible and
independent of worker count; reductions always run in replication order.
``replicate`` is the one function that simulates replications: it
simulates runs of consecutive chunks of them in one pass of the time loop
and hands its tasks one chunk at a time, and the tasks estimate and reduce a
whole chunk at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .estimator import _smoothed_rows, _smoothing_band, kernel_constants
from .model import DEFAULT_BURN_IN, _require_stable, _simulate_rows, replication_seed
from .spectrum import SpectralGrid, TWO_PI, true_spectral_density


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

    def to_json(self):
        payload = {
            "name": self.name,
            "seed": self.seed,
            "replications": self.replications,
            "quantities": self.quantities,
            "tolerances": self.tolerances,
            "passes": self.passes,
            "notes": self.notes,
            "passed": self.passed,
        }
        return json.dumps(_jsonify(payload), sort_keys=True, indent=2, allow_nan=False)


def _jsonify(obj):
    """Recursively coerce report payloads to plain JSON types.

    Non-finite floats become the strings "NaN", "Infinity" and "-Infinity",
    which keeps the output valid JSON.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return _jsonify(_cnum(obj))
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    return obj


def _cnum(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# Simulated elements c * (burn_in + n) * K per replication chunk: about 8
# replications of far1 at T = 4096, with one chunk's buffer at 4.8 MB.
CHUNK_ELEMENTS = 600_000

# Simulated elements per pass, a run of consecutive chunks simulated in one
# time loop: about what one chunk took before the simulator streamed its
# curves, its buffer plus one (burn_in + n, K, K) operator stack (0.60 M +
# 1.03 M elements for far1 at T = 4096), so 20 such replications make one
# 11 MB pass.
PASS_ELEMENTS = 1_700_000


def replicate(model, T, seeds, task, workers=1, burn_in=DEFAULT_BURN_IN,
              t_start=1, t_end=None):
    """Concatenated ``task(xs, chunk)`` over consecutive chunks of ``seeds``.

    Each chunk of c seeds is handed to ``task`` as one (c, n, K) stack ``xs``
    whose row r is ``simulate(model, T, seed=chunk[r], burn_in=burn_in,
    t_start=t_start, t_end=t_end, check=False)`` bit for bit; ``task``
    returns a stack of c results in chunk order, so the output has one row
    per seed, in seed order.  Chunks hold at most ``CHUNK_ELEMENTS``
    simulated elements c (burn_in + n) K (at least one replication), and
    their boundaries do not depend on ``workers``.

    Runs of consecutive chunks are simulated as one pass, one time loop for
    all their rows, and each pass is sliced back into its chunks for
    ``task``.  A pass holds at most ``PASS_ELEMENTS`` simulated elements (at
    least one chunk) and at most ceil(chunks / workers) chunks, and the
    passes split the chunks as evenly as whole chunks allow.  With
    ``workers > 1`` the passes run in at most ``min(workers, passes)``
    processes; ``task`` must then pickle (a module-level function or a
    ``functools.partial`` of one).  The output is the same for every
    ``workers``, because rows do not depend on how they are grouped.
    """
    if t_end is None:
        t_end = T
    per_rep = (burn_in + t_end - t_start + 1) * model.dim
    size = max(1, CHUNK_ELEMENTS // per_rep)
    chunks = [list(seeds[i:i + size]) for i in range(0, len(seeds), size)]
    width = max(1, min(PASS_ELEMENTS // (size * per_rep),
                       math.ceil(len(chunks) / max(workers, 1))))
    count = math.ceil(len(chunks) / width)
    # passes as even as whole chunks allow, the longer ones last (the short
    # final chunk then shares a pass): [8], [8, 4] for two workers
    edges = [p * len(chunks) // count for p in range(count + 1)]
    passes = [chunks[a:b] for a, b in zip(edges, edges[1:])]
    one = partial(_simulate_then, model, T, task, burn_in, t_start, t_end)
    workers = min(workers, len(passes))
    if workers > 1:
        # imported only here: loading the pool machinery (multiprocessing,
        # socket) adds ~15 ms to the start-up of every run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, passes))
    else:
        results = [one(run) for run in passes]
    return np.concatenate([out for outs in results for out in outs])


def _simulate_then(model, T, task, burn_in, t_start, t_end, chunks):
    """``task`` over each chunk of one pass, simulated in one time loop."""
    xs, _ = _simulate_rows(model, T, [seed for chunk in chunks for seed in chunk],
                           burn_in, t_start, t_end)
    outs = []
    start = 0
    for chunk in chunks:
        outs.append(task(xs[start:start + len(chunk)], chunk))
        start += len(chunk)
    return outs


def _estimate_points(cfg, T, points, xs, seeds, t0=1):
    """Replication task: estimates at (u, omega) points, shape (c, len(points), K, K).

    One batched smoother call per distinct u.
    """
    order = {}
    for idx, (u, _) in enumerate(points):
        order.setdefault(float(u), []).append(idx)
    k = xs.shape[2]
    out = np.empty((len(xs), len(points), k, k), dtype=complex)
    for u, idxs in order.items():
        band = _smoothing_band(cfg, np.array([points[idx][1] for idx in idxs], dtype=float))
        out[:, idxs] = _smoothed_rows(xs, cfg, T, u, band, t0)
    return out


def _second_derivative(fn, x0, step):
    """Five-point second derivative with a half-step consistency check."""

    def stencil(h):
        vals = [fn(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)

    coarse = stencil(step)
    fine = stencil(step / 2)
    scale = max(abs(fine), abs(coarse), 1e-12)
    return fine, abs(fine - coarse) / scale


def mc_mean_bias(model, cfg, T, u, omega, R, seed=0, projection=(0, 0),
                 workers=1, deriv_step=1e-3, burn_in=500):
    """Compare the Monte Carlo mean against the smoothed-mean expansion.

    The second-order prediction adds (b_t^2 kappa_t d^2_u + b_f^2 kappa_f
    d^2_omega) <F> / 2 to the truth, with derivatives taken by finite
    differences on the exact spectral density; the model's curves must be
    smooth in u for that to make sense.  Passes when the second-order
    prediction is strictly closer to the Monte Carlo mean than the truth
    itself.
    """
    m, n = projection
    ests = replicate(model, T, [replication_seed(seed, r) for r in range(R)],
                     partial(_estimate_points, cfg, T, [(u, omega)]), workers, burn_in)
    vals = ests[:, 0, m, n]
    mc_mean = complex(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(R))

    def proj_u(uu):
        return true_spectral_density(model, uu, omega)[m, n]

    def proj_w(ww):
        return true_spectral_density(model, u, ww)[m, n]

    truth = proj_u(u)
    d2u, gap_u = _second_derivative(proj_u, u, deriv_step)
    d2w, gap_w = _second_derivative(proj_w, omega, deriv_step)
    kt = kernel_constants(cfg.taper)
    kf = kernel_constants(cfg.fkernel)
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
    return 1.0 if abs((x + np.pi) % TWO_PI - np.pi) < 1e-9 else 0.0


def predicted_covariance(model, cfg, T, u, omega1, omega2, pair):
    """Limit of b_t b_f T cov(<Fhat psi pair>) from the sharp variance bound."""
    (m, n), (mm, nn) = pair
    kt = kernel_constants(cfg.taper)
    kf = kernel_constants(cfg.fkernel)
    f1 = true_spectral_density(model, u, omega1)
    lead = TWO_PI * kt.l2 * kf.l2
    term1 = _eta(omega1 - omega2) * f1[m, mm] * np.conj(f1[n, nn])
    term2 = _eta(omega1 + omega2) * f1[m, nn] * np.conj(f1[n, mm])
    return lead * (term1 + term2)


def mc_covariance(model, cfg, T, u, omega1, omega2, R, seed=0,
                  pairs=(((0, 0), (0, 0)),), workers=1, rtol=0.25, burn_in=500):
    """Scaled covariances of estimator projections against the sharp limit.

    For each pair of coefficient projections, compares the sample statistic
    b_t b_f T cov(Z1, Z2) with the predicted limit; when the prediction is
    zero (separated frequencies) the pass criterion is |cov| < 3 SE, else
    relative agreement within ``rtol``.
    """
    points = [(u, omega1), (u, omega2)]
    ests = replicate(model, T, [replication_seed(seed, r) for r in range(R)],
                     partial(_estimate_points, cfg, T, points), workers, burn_in)
    scale = cfg.b_t(T) * cfg.b_f * T
    report = McReport(name="covariance", seed=seed, replications=R)
    report.quantities = {
        "u": u, "omega1": omega1, "omega2": omega2, "T": T,
        "scale": scale, "pairs": [],
    }
    report.tolerances = {"relative": rtol, "zero_sigma": 3.0}
    for pid, pair in enumerate(pairs):
        (m, n), (mm, nn) = pair
        z1 = ests[:, 0, m, n]
        z2 = ests[:, 1, mm, nn]
        d1 = z1 - z1.mean()
        d2 = z2 - z2.mean()
        cov = complex(np.mean(d1 * np.conj(d2)) * scale)
        # moment SE of the scaled covariance from the replication spread
        prods = d1 * np.conj(d2) * scale
        se = float(np.std(prods, ddof=1) / np.sqrt(R))
        pred = complex(predicted_covariance(model, cfg, T, u, omega1, omega2, pair))
        entry = {
            "pair": [[m, n], [mm, nn]],
            "scaled_cov": _cnum(cov), "se": se, "predicted": _cnum(pred),
        }
        if abs(pred) < 1e-14:
            ok = abs(cov) < 3.0 * se
            entry["criterion"] = "zero_within_3se"
        else:
            ok = abs(cov - pred) < rtol * abs(pred)
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
    kf = kernel_constants(cfg.fkernel)
    return 2.0 * cfg.b_f * cfg.N / (TWO_PI * kf.l2 * kt.l2)


def mc_normality(model, cfg, T, u, omega, R, seed=0,
                 projections=((0, 1), (0, 2), (1, 2)), workers=1,
                 alpha_z=2.576, burn_in=500, min_dof=12.0):
    """Gaussianity of centred, scaled estimator projections.

    Applies skewness and excess-kurtosis z tests (two-sided 1% level by
    default) to the real and imaginary parts of sqrt(b_t b_f T)
    (proj - mean).  Off-diagonal projections are the default: diagonal
    entries keep a visible chi-square skew at desk-scale effective degrees
    of freedom.  When those degrees of freedom fall below ``min_dof`` the
    outcome is recorded as informational rather than pass/fail.
    """
    ests = replicate(model, T, [replication_seed(seed, r) for r in range(R)],
                     partial(_estimate_points, cfg, T, [(u, omega)]), workers, burn_in)
    scale = np.sqrt(cfg.b_t(T) * cfg.b_f * T)
    dof = effective_dof(cfg)
    informational = dof < min_dof
    report = McReport(name="normality", seed=seed, replications=R)
    report.quantities = {
        "u": u, "omega": omega, "T": T, "effective_dof": dof, "projections": [],
    }
    report.tolerances = {"z_abs": alpha_z}
    if informational:
        report.notes.append(
            f"effective dof {dof:.1f} below {min_dof}; moments recorded, not enforced"
        )
    for m, n in projections:
        vals = scale * (ests[:, 0, m, n] - ests[:, 0, m, n].mean())
        for part, arr in (("re", vals.real), ("im", vals.imag)):
            if np.std(arr) < 1e-14:
                continue  # identically-zero part (real projections at omega = 0)
            zs, zk = _moment_ztests(arr, R)
            key = f"proj_{m}{n}_{part}"
            report.quantities["projections"].append(
                {"projection": [m, n], "part": part, "z_skew": zs, "z_kurt": zk}
            )
            ok = max(abs(zs), abs(zk)) < alpha_z
            report.passes[key] = None if informational else bool(ok)
    return report


@dataclass(frozen=True)
class ImseResult:
    """Integrated squared error summary over a (u, omega) grid."""

    value: float
    per_u: np.ndarray
    mse: np.ndarray


def imse(estimates, truth):
    """Mean integrated squared Hilbert-Schmidt error against a truth grid.

    Parameters
    ----------
    estimates : SpectralGrid or sequence of SpectralGrid
        Estimates on the same (u, omega) grid; with several grids the
        squared error is averaged across them pointwise.
    truth : SpectralGrid

    Returns
    -------
    ImseResult
        ``value`` averages the per-u trapezoid integrals over omega.
    """
    if isinstance(estimates, SpectralGrid):
        estimates = [estimates]
    if not estimates:
        raise ValueError("need at least one estimate grid")
    for est in estimates:
        if est.values.shape != truth.values.shape:
            raise ValueError("estimate and truth grids have different shapes")
        if not (np.allclose(est.u, truth.u, atol=1e-12)
                and np.allclose(est.omega, truth.omega, atol=1e-12)):
            raise ValueError("estimate and truth grids are on different points")
    diffsq = np.zeros(truth.values.shape[:2])
    for est in estimates:
        diffsq += _squared_errors(est.values - truth.values)
    diffsq /= len(estimates)
    per_u = np.trapezoid(diffsq, truth.omega, axis=1)
    return ImseResult(value=float(per_u.mean()), per_u=per_u, mse=diffsq)


def _squared_errors(diff):
    """Squared Hilbert-Schmidt norms of the K x K differences on the trailing axes."""
    sq = np.abs(diff)
    sq **= 2
    return sq.sum(axis=(-2, -1))


def _imse_task(cfg, T, truth, xs, seeds):
    """Replication task: the ``imse`` value of each row, shape (c,).

    Estimates and reduces one u at a time, so a chunk never holds its
    estimate grids.
    """
    band = _smoothing_band(cfg, truth.omega)
    diffsq = np.empty((len(xs), truth.u.size, truth.omega.size))
    for a, u in enumerate(truth.u):
        est = _smoothed_rows(xs, cfg, T, u, band)
        est -= truth.values[a]
        diffsq[:, a] = _squared_errors(est)
        del est  # freed before the next u's estimates are built
    return np.trapezoid(diffsq, truth.omega, axis=-1).mean(axis=-1)


def _coupling_ratio_sq(frozen, T, u, burn_in, xs, seeds):
    """Replication task: P_t^2 against the frozen process on the same seeds, shape (c, T)."""
    ys, _ = _simulate_rows(frozen, T, seeds, burn_in, 1, T)
    ys -= xs
    denom = np.abs(np.arange(1, T + 1) / T - u) + 1.0 / T
    return (np.linalg.norm(ys, axis=2) / denom) ** 2


def local_stationarity_check(model, u, T_list, R, seed=0, burn_in=500,
                             slope_tol=0.15, workers=1):
    """Coupled-process bound behind the locally stationary approximation.

    For each T simulates the triangular array and its stationary companion
    frozen at ``u`` on shared innovations and forms
    P_t = |X_{t,T} - X_t(u)| / (|t/T - u| + 1/T).  Reports, per T, the
    maximum over t of the replication mean of P_t^2 and its average over t;
    the pass criterion is that the slope of log average versus log T stays
    within ``slope_tol`` of zero (the second moment is bounded in T).
    """
    T_list = [int(t) for t in T_list]
    frozen = model.frozen(u)
    _require_stable(frozen)  # once, here; the chunks simulate it unchecked
    means = []
    maxima = []
    for ti, T in enumerate(T_list):
        task = partial(_coupling_ratio_sq, frozen, T, u, burn_in)
        acc = replicate(model, T, [replication_seed(seed, ti, r) for r in range(R)], task,
                        workers, burn_in).mean(axis=0)
        means.append(float(acc.mean()))
        maxima.append(float(acc.max()))
    slope = float(np.polyfit(np.log(T_list), np.log(means), 1)[0])
    report = McReport(name="local_stationarity", seed=seed, replications=R)
    report.quantities = {
        "u": u, "T": T_list, "mean_p2": means, "max_p2": maxima, "slope": slope,
    }
    report.tolerances = {"slope_abs": slope_tol}
    report.passes = {"bounded_second_moment": abs(slope) <= slope_tol}
    return report
