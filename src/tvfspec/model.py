"""Time-varying functional ARMA models in coefficient space.

A model of order (m, n) generates, for sample size T, the triangular array

    X_t = sum_{j=1..m} B_{t/T, j} X_{t-j}
          + sum_{l=1..n} Phi_{t/T, l} C_{(t-l)/T} eps_{t-l}
          + C_{t/T} eps_t

where every operator curve is evaluated at rescaled time t/T, clamped to
[0, 1] outside the observation window, and eps_t are independent Gaussian
innovations with diagonal coefficient covariance.

Randomness discipline: every stream is derived from one master seed through
``numpy.random.SeedSequence(seed, spawn_key=key)`` with fixed integer keys,
so model draws, innovations and per-replication streams are independent and
reproducible bit for bit.  Keys: (0, j, g) for the g-th knot of the j-th
random operator curve, (1,) for a simulation's innovations, (2, r) for
replication r of a Monte Carlo run.

Causal filters.  ``ma_coefficients`` is the one filter recursion: for an
array of anchor times it evaluates every curve once over the union of their
rescaled times, walks back over lags on the top block row of the companion
product for all anchors at once and composes the moving-average part on top;
``simulate_ma`` carries the forward responses of all innovation rows at once.
The stability report on the default grid is computed once per model
(``TvFarmaModel.stability``) and read by the simulation gate and the
truncation heuristic.

Simulation.  One private simulator carries R replications in a single
(R, burn_in + n, K) buffer, one time step at a time, and evaluates the
operator curves over short spans of steps as the loop reaches them, never
as (burn_in + n, K, K) stacks; ``simulate`` is its single-series case and
``evaluate.replicate`` drives it in passes of whole chunks.  A row's
arithmetic does not depend on R, so every replication is bitwise the same
however the replications are grouped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .funspace import BasisSpec, op_norm

_KEY_MATRIX = 0
_KEY_INNOV = 1
_KEY_REPLICATION = 2

DEFAULT_BURN_IN = 500
MAX_MA_LAGS = 100_000  # lag count at which choose_ma_order gives up

# Operator entries per curve the simulator evaluates at once: inside the time
# loop every curve is batched over spans of _SPAN_ELEMENTS // K^2 rescaled
# times (72 for K = 15), never over the whole window.  On a 2-vCPU Xeon with
# numpy 2.4, 72-step K = 15 spans (127 KiB stacks) cost less than one
# whole-window stack (4.3 against 5.2 ms per 4 596 steps); 128-step spans
# (256 KiB) cost 11 ms.
_SPAN_ELEMENTS = 2**14


def spawn_rng(seed, *key):
    """Generator for the sub-stream of ``seed`` addressed by integer ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def replication_seed_sequence(seed, *index):
    """Seed sequence for the replication addressed by integer ``index``."""
    return np.random.SeedSequence(seed, spawn_key=(_KEY_REPLICATION, *index))


def replication_seed(seed, *index):
    """64-bit master seed for one replication, derived from its sub-stream."""
    return int(replication_seed_sequence(seed, *index).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class OperatorCurve:
    """Operator-valued curve u -> K x K real matrix on [0, 1].

    Piecewise linear between the stored knots; constant outside [u_0, u_G]
    (rescaled times below the first or above the last knot clamp to it).
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or values.ndim != 3 or values.shape[0] != knots.size:
            raise ValueError("need knots (G,) and values (G, K, K)")
        if values.shape[1] != values.shape[2]:
            raise ValueError("curve values must be square matrices")
        if knots.size > 1 and np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, mat):
        mat = np.asarray(mat, dtype=float)
        return cls(np.array([0.0]), mat[None, :, :])

    @property
    def dim(self):
        return self.values.shape[1]

    def __call__(self, u):
        """Matrix at rescaled time ``u`` (scalar), clamped to the knot range."""
        return self.batch(np.array([float(u)]))[0]

    def batch(self, us):
        """Matrices at an array of rescaled times, shape (len(us), K, K)."""
        us = np.asarray(us, dtype=float)
        knots = self.knots
        if knots.size == 1:
            return np.broadcast_to(self.values[0], us.shape + self.values[0].shape).copy()
        uc = np.clip(us, knots[0], knots[-1])
        idx = np.clip(np.searchsorted(knots, uc, side="right") - 1, 0, knots.size - 2)
        left = knots[idx]
        width = knots[idx + 1] - knots[idx]
        w = (uc - left) / width
        # (1 - w) A + w B, built in place: two stacks live at a time, not five
        out = self.values[idx]
        out *= (1.0 - w)[:, None, None]
        right = self.values[idx + 1]
        right *= w[:, None, None]
        out += right
        return out


@dataclass(frozen=True)
class InnovationSpec:
    """Independent Gaussian innovations with diagonal coefficient covariance."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 1 or np.any(sigma < 0):
            raise ValueError("sigma must be a nonnegative vector")
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self):
        return self.sigma.size

    @property
    def covariance(self):
        return np.diag(self.sigma**2)


@dataclass(frozen=True)
class TvFarmaModel:
    """Time-varying functional ARMA model of order (m, n).

    Parameters
    ----------
    ar : tuple of OperatorCurve
        Autoregressive curves B_{., 1}, ..., B_{., m}.
    innovations : InnovationSpec
    ma : tuple of OperatorCurve
        Moving-average curves Phi_{., 1}, ..., Phi_{., n}.
    c : OperatorCurve or None
        Innovation shaping curve C; None means the identity.
    """

    ar: tuple = ()
    innovations: InnovationSpec = field(default_factory=lambda: InnovationSpec(np.ones(1)))
    ma: tuple = ()
    c: OperatorCurve | None = None

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(self.ar))
        object.__setattr__(self, "ma", tuple(self.ma))
        dims = {cv.dim for cv in self.ar + self.ma}
        if self.c is not None:
            dims.add(self.c.dim)
        dims.add(self.innovations.dim)
        if len(dims) != 1:
            raise ValueError("all curves and the innovation spec must share one dimension")

    @property
    def dim(self):
        return self.innovations.dim

    @property
    def ar_order(self):
        return len(self.ar)

    @property
    def ma_order(self):
        return len(self.ma)

    @property
    def basis(self):
        return BasisSpec(self.dim)

    def c_at(self, u):
        if self.c is None:
            return np.eye(self.dim)
        return self.c(u)

    @cached_property
    def stability(self):
        """``check_stability`` on its default grid, computed once per model."""
        return _stability_report(self)

    def frozen(self, u):
        """Stationary model with every curve fixed at rescaled time ``u``."""
        return TvFarmaModel(
            ar=tuple(OperatorCurve.constant(cv(u)) for cv in self.ar),
            innovations=self.innovations,
            ma=tuple(OperatorCurve.constant(cv(u)) for cv in self.ma),
            c=None if self.c is None else OperatorCurve.constant(self.c(u)),
        )


def build_companion(model, u):
    """State-space companion matrix of the AR part at rescaled time ``u``.

    Top block row holds B_{u,1}, ..., B_{u,m}; the identity sits on the block
    subdiagonal.  For m = 0 returns the K x K zero matrix.  An array of
    rescaled times gives the stack of companions, shape (len(u), mK, mK).
    """
    us = np.asarray(u, dtype=float)
    flat = np.atleast_1d(us)
    k = model.dim
    size = max(model.ar_order, 1) * k
    comp = np.zeros((flat.size, size, size))
    for j, curve in enumerate(model.ar):
        comp[:, :k, j * k:(j + 1) * k] = curve.batch(flat)
    if model.ar_order > 1:
        comp[:, k:, :-k] = np.eye(size - k)
    return comp if us.ndim else comp[0]


@dataclass(frozen=True)
class StabilityReport:
    """Per-u stability diagnostics for the AR part."""

    u: np.ndarray
    norm_sums: np.ndarray
    radii: np.ndarray
    delta: float

    @property
    def sum_criterion(self):
        return self.norm_sums < 1.0

    @property
    def radius_criterion(self):
        return self.radii < 1.0 - self.delta

    @property
    def passed(self):
        # The radius criterion is authoritative; the norm sum is reported
        # because it is the easy sufficient condition.
        return bool(np.all(self.radius_criterion))

    def worst(self):
        i = int(np.argmax(self.radii))
        return float(self.u[i]), float(self.radii[i])


_STABILITY_DELTA = 1e-6


def check_stability(model, u_grid=None, delta=_STABILITY_DELTA):
    """Evaluate causality diagnostics of the AR part on a grid of u.

    Reports, per u, the sum of operator norms of the AR curves (sufficient
    condition when < 1) and the spectral radius of the companion matrix
    (authoritative pass criterion: radius < 1 - delta everywhere).  All
    companions are built and decomposed as one stack.  The default grid is
    65 equispaced u; with it and the default delta the result is the model's
    cached report, ``TvFarmaModel.stability``.
    """
    if u_grid is None and delta == _STABILITY_DELTA:
        return model.stability
    return _stability_report(model, u_grid, delta)


def _stability_report(model, u_grid=None, delta=_STABILITY_DELTA):
    if u_grid is None:
        u_grid = np.linspace(0.0, 1.0, 65)
    u_grid = np.asarray(u_grid, dtype=float)
    k = model.dim
    m = model.ar_order
    comps = build_companion(model, u_grid)
    top = comps[:, :k, :m * k].reshape(u_grid.size, k, m, k)
    sums = np.linalg.norm(top, 2, axis=(1, 3)).sum(axis=1)
    radii = np.max(np.abs(np.linalg.eigvals(comps)), axis=1)
    return StabilityReport(u=u_grid, norm_sums=sums, radii=radii, delta=delta)


class StabilityError(RuntimeError):
    """AR part fails the spectral-radius criterion somewhere on [0, 1]."""


def _require_stable(model):
    report = model.stability
    if not report.passed:
        u, radius = report.worst()
        raise StabilityError(
            f"companion spectral radius {radius:.6f} at u={u:.4f} violates < 1 - {report.delta}"
        )
    return report


def simulate(model, T, seed=0, burn_in=DEFAULT_BURN_IN, t_start=1, t_end=None,
             return_innovations=False, check=True):
    """Simulate the triangular array for sample size T.

    The single-series case of the replication-batched simulator that
    ``evaluate.replicate`` drives: the rows are bitwise equal to row r of a
    batch whose replication r has master seed ``seed``.

    Parameters
    ----------
    model : TvFarmaModel
    T : int
        Sample size fixing the rescaled-time axis t/T.
    seed : int
        Master seed; innovations come from its sub-stream (1,).
    burn_in : int
        Steps simulated before ``t_start`` (curves clamp below u = 0) and
        discarded, so the output has forgotten the zero initial state.
    t_start, t_end : int
        Observation window in absolute time; defaults to [1, T].  A wider
        window extends the same process (curves clamp outside [0, 1]).
    return_innovations : bool
        Also return the innovation draws, rows aligned with
        t = t_start - burn_in, ..., t_end.
    check : bool
        Verify stability first and raise StabilityError on failure.

    Returns
    -------
    ndarray, shape (t_end - t_start + 1, K)
        Coefficient rows for t = t_start, ..., t_end.
    """
    if t_end is None:
        t_end = T
    if check and model.ar:
        _require_stable(model)
    x, eps = _simulate_rows(model, T, [seed], burn_in, t_start, t_end, return_innovations)
    if return_innovations:
        return x[0], eps[0]
    return x[0]


def _simulate_rows(model, T, seeds, burn_in, t_start, t_end, keep_innovations=False):
    """Replications of the triangular array, one row per master seed.

    One (R, burn_in + n, K) buffer carries every replication: row r is filled
    with the innovations of ``seeds[r]``'s sub-stream (1,), then shaped by C
    and run through the AR and MA terms in place, one time step at a time.
    The curves are evaluated over spans of ``_SPAN_ELEMENTS // K^2`` steps as
    the loop reaches them, so no (burn_in + n, K, K) stack is ever built.
    Each term is a per-row ``einsum`` (no BLAS) written into one reused
    (R, K) buffer, so a row's arithmetic does not depend on how many rows
    share the buffer.

    Returns the (R, n, K) view of the observation window and, when asked
    for, a copy of the innovations (else None).
    """
    if t_end < t_start:
        raise ValueError("empty observation window")
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    total = burn_in + (t_end - t_start + 1)
    x = np.empty((len(seeds), total, k))
    for row, seed in zip(x, seeds):
        spawn_rng(seed, _KEY_INNOV).standard_normal(out=row)
    x *= model.innovations.sigma
    eps = x.copy() if keep_innovations else None
    if model.c is None and m == 0 and n == 0:
        return x[:, burn_in:], eps
    us = np.arange(t_start - burn_in, t_end + 1) / float(T)
    # shaped innovations of the current and the last n steps, for the MA terms
    shaped = np.empty((n + 1, len(seeds), k))
    term = np.empty((len(seeds), k))  # one step's product, C-ordered like einsum's own
    span = max(1, _SPAN_ELEMENTS // (k * k))
    for start in range(0, total, span):
        stop = min(start + span, total)
        c_ops = None if model.c is None else model.c.batch(us[start:stop])
        ar_ops = [cv.batch(us[start:stop]) for cv in model.ar]
        ma_ops = [cv.batch(us[start:stop]) for cv in model.ma]
        back = min(start, m)
        # steps[back + s] is the (R, K) view of time step start + s
        steps = list(x[:, start - back:stop].transpose(1, 0, 2))
        for s in range(stop - start):
            i = start + s
            now = steps[back + s]
            if c_ops is not None:
                np.einsum("rj,ij->ri", now, c_ops[s], out=term)
                now[...] = term
            if n:
                shaped[i % (n + 1)] = now
            for j in range(1, min(i, m) + 1):
                now += np.einsum("rj,ij->ri", steps[back + s - j], ar_ops[j - 1][s], out=term)
            for l in range(1, min(i, n) + 1):
                now += np.einsum("rj,ij->ri", shaped[(i - l) % (n + 1)], ma_ops[l - 1][s],
                                 out=term)
        del c_ops, ar_ops, ma_ops  # freed before the next span's stacks are built
    return x[:, burn_in:], eps


def _shaping(model, us):
    """Innovation shaping operators C at rescaled times ``us``, identity if unset."""
    if model.c is None:
        return np.broadcast_to(np.eye(model.dim), (len(us), model.dim, model.dim))
    return model.c.batch(us)


def ma_coefficients(model, t, T, lags):
    """Causal moving-average filters A_{t,T}(l) for l = 0, ..., lags.

    With u_l = (t - l)/T, the pure-AR filter G(l) is the top-left block of
    the product of companion matrices at u_0, u_1, ..., u_{l-1}; only its
    top block row is carried, updated per lag as
    row_j <- row_1 B_{u_{l-1}, j} + row_{j+1} (row_{m+1} = 0).  The
    moving-average part and the shaping operator compose on top:

        A_{t,T}(l) = sum_{i <= min(l, n)} G(l - i) Phi_{u_{l-i}, i} C_{u_l}

    with Phi_0 = I.  An array of anchor times ``t`` runs the recursion once
    for all anchors; every curve is evaluated once over the union of their
    rescaled times, and each lag step gathers its operators from there.

    Returns
    -------
    coeffs : ndarray, shape (lags + 1, K, K), or (len(t), lags + 1, K, K)
    tail : float, or ndarray of shape (len(t),)
        Heuristic estimate of the operator-norm l1 tail sum beyond ``lags``:
        a geometric envelope with ratio (companion radius + 0.05), not a
        bound.
    """
    ts = np.asarray(t)
    k = model.dim
    m = model.ar_order
    times = np.atleast_1d(ts)[:, None] - np.arange(lags + 1)
    times, idx = np.unique(times, return_inverse=True)
    idx = idx.reshape(-1, lags + 1)
    us = times / T
    count = idx.shape[0]
    # ar[i, j - 1] = B_{us[i], j}; step l gathers the rows at u_{l-1}
    ar = np.zeros((us.size, m, k, k))
    for j, cv in enumerate(model.ar):
        ar[:, j] = cv.batch(us)
    # blocks 1..m of the top block row, plus a zero block shifted in per lag
    row = np.zeros((count, m + 1, k, k))
    row[:, 0] = np.eye(k)
    g = np.empty((count, lags + 1, k, k))
    g[:, 0] = row[:, 0]
    for l in range(1, lags + 1):
        step = row[:, :1] @ ar[idx[:, l - 1]]
        row[:, :-1] = row[:, 1:]
        row[:, -1] = 0.0
        row[:, :m] += step
        g[:, l] = row[:, 0]
    coeffs = g.copy() if model.ma else g
    for i, cv in enumerate(model.ma[:lags], start=1):
        coeffs[:, i:] += g[:, :lags + 1 - i] @ cv.batch(us)[idx[:, :lags + 1 - i]]
    if model.c is not None:
        coeffs = coeffs @ model.c.batch(us)[idx]
    tail = _ma_tail_estimate(model, coeffs, lags)
    if ts.ndim:
        return coeffs, tail
    return coeffs[0], float(tail[0])


def _ma_tail_estimate(model, coeffs, lags):
    """Tail estimates for a stack of filters, shape (anchors, lags + 1, K, K)."""
    if model.ar_order == 0:
        return np.zeros(len(coeffs))
    rho = float(np.max(model.stability.radii))
    if rho >= 1.0:
        return np.full(len(coeffs), np.inf)
    # Geometric envelope fit on the last computed filters; the companion
    # radius plus a 0.05 margin stands in for the asymptotic ratio.  This is
    # a heuristic estimate, not a bound.
    ratio = min(rho + 0.05, 0.999)
    last = np.linalg.norm(coeffs[:, max(0, lags - model.ar_order):], 2, axis=(2, 3)).max(axis=1)
    return last * ratio / (1.0 - ratio)


def choose_ma_order(model, T, tol=1e-10):
    """Smallest lag count whose estimated tail falls below ``tol``.

    The tail is the heuristic estimate of ``ma_coefficients`` (a geometric
    envelope with ratio companion radius + 0.05), not a bound.  The filters
    depend on the anchor time: products walking into the clamped region
    below t = 1 can decay with a longer transient than mid-sample ones.
    The estimate is therefore taken as the worst case over anchors spread
    across [1, T], all filtered in one call per doubling of the lag count.
    """
    anchors = np.array(sorted({1, T // 4, T // 2, (3 * T) // 4, T} - {0}))
    lags = max(4 * model.ar_order + model.ma_order, 8)
    while lags <= MAX_MA_LAGS:
        if ma_coefficients(model, anchors, T, lags)[1].max() < tol:
            return lags
        lags *= 2
    raise RuntimeError(f"no truncation below tol={tol} within {MAX_MA_LAGS} lags")


def simulate_ma(model, T, innovations, lags, t_start=1, t_end=None, eps_t_start=None):
    """Simulate by the truncated causal moving-average representation.

    Parameters
    ----------
    innovations : ndarray, shape (len, K)
        Innovation rows for consecutive times ending at ``t_end``; the first
        row sits at ``eps_t_start`` (default ``t_end - len + 1``, which
        matches the array produced by ``simulate(..., return_innovations=True)``
        for the same window).
    lags : int
        Truncation order L; innovations older than L steps are dropped.

    Notes
    -----
    Carries, for all innovation times r at once, their forward responses
    through the recursion for L steps, which reproduces the filters
    A_{t,T}(l) without forming them per time point.  Each curve is evaluated
    once over the window.
    """
    if t_end is None:
        t_end = T
    count = t_end - t_start + 1
    k = model.dim
    m = model.ar_order
    if eps_t_start is None:
        eps_t_start = t_end - innovations.shape[0] + 1
    x = np.zeros((count, k))
    # only rows whose responses reach [t_start, t_end] within ``lags`` steps
    lo = max(0, t_start - lags - eps_t_start)
    hi = min(innovations.shape[0], t_end - eps_t_start + 1)
    if hi <= lo:
        return x
    r0 = eps_t_start + lo
    us = np.arange(r0, t_end + 1) / T
    ar = [cv.batch(us) for cv in model.ar]
    ma = [cv.batch(us) for cv in model.ma]
    shock = np.einsum("rij,rj->ri", _shaping(model, us[:hi - lo]), innovations[lo:hi])
    history = deque(maxlen=m)
    for j in range(lags + 1):
        # row i sits at time r0 + i + j; rows past t_end are done
        active = min(hi - lo, t_end - r0 - j + 1)
        if active <= 0:
            break
        if j == 0:
            y = shock
        else:
            y = np.zeros((active, k))
            for i in range(1, min(j, m) + 1):
                y = y + np.einsum("rab,rb->ra", ar[i - 1][j:j + active], history[-i][:active])
            if j <= len(ma):
                y = y + np.einsum("rab,rb->ra", ma[j - 1][j:j + active], shock[:active])
        history.append(y)
        first = max(0, t_start - r0 - j)
        x[r0 + first + j - t_start:r0 + active + j - t_start] += y[first:active]
    return x


def _normalized_gaussian_curve(seed, curve_key, knots, variance_fn, scale_fn, size):
    """Random operator curve: per-knot Gaussian draw, unit operator norm, scaled."""
    us = np.linspace(0.0, 1.0, knots)
    mats = np.empty((knots, size, size))
    rows = np.arange(1, size + 1)[:, None]
    cols = np.arange(1, size + 1)[None, :]
    for g, u in enumerate(us):
        rng = spawn_rng(seed, _KEY_MATRIX, curve_key, g)
        sd = np.sqrt(variance_fn(u, rows, cols))
        a = rng.standard_normal((size, size)) * sd
        mats[g] = scale_fn(u) * a / op_norm(a)
    return OperatorCurve(us, mats)


def far1(size=15, seed=0, eta=0.4, decay=3, knots=64):
    """First-order preset: one random AR curve with norm ``eta`` at knots.

    Entry (i, j) of the knot draw is Gaussian with variance
    u i^(-2 decay) + (1 - u) exp(-i - j); innovation scales are
    1 / (|l - 1.5| pi).
    """

    def variance(u, i, j):
        return u * i**(-2.0 * decay) + (1.0 - u) * np.exp(-i - j)

    curve = _normalized_gaussian_curve(seed, 1, knots, variance, lambda u: eta, size)
    l = np.arange(1, size + 1)
    sigma = 1.0 / (np.abs(l - 1.5) * np.pi)
    return TvFarmaModel(ar=(curve,), innovations=InnovationSpec(sigma))


def far2(size=15, seed=1, knots=64):
    """Second-order preset with a rescaled-time-dependent spectral peak.

    Lag-1 scale 0.4 cos(1.5 - cos(pi u)), lag-2 scale -0.5; knot draws have
    entry variances exp(-(i-3) - (j-3)) and 1 / (i^4 + j); innovation scales
    are 1 / (|l - 2.65| pi).

    The scalar second-order heuristic puts the amplitude peak at
    ``far2_peak_frequency(u)``; whether a realization shows it there depends
    on the sign of the dominant eigenvalue of the drawn lag-2 operator, so
    the default seed is pinned to a draw that does (at ``size=15``, u=0.5).
    """

    def var1(u, i, j):
        return np.exp(-(i - 3.0) - (j - 3.0))

    def var2(u, i, j):
        return 1.0 / (i**4.0 + j)

    def eta1(u):
        return 0.4 * np.cos(1.5 - np.cos(np.pi * u))

    curve1 = _normalized_gaussian_curve(seed, 1, knots, var1, eta1, size)
    curve2 = _normalized_gaussian_curve(seed, 2, knots, var2, lambda u: -0.5, size)
    l = np.arange(1, size + 1)
    sigma = 1.0 / (np.abs(l - 2.65) * np.pi)
    return TvFarmaModel(ar=(curve1, curve2), innovations=InnovationSpec(sigma))


def far2_peak_frequency(u):
    """Scalar second-order heuristic for the far2 amplitude peak location."""
    return float(np.arccos(0.3 * np.cos(1.5 - np.cos(np.pi * u))))
