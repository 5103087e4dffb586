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
replication r of a Monte Carlo run and (2, ti, r) for replication r at the
ti-th sample size of the stationarity check.

Operator curves.  ``_curves_at`` is the one evaluator of B, Phi and C at
rescaled times, for every path of this module and of ``spectrum``.  A model
without C gets None, not an identity stack, and is never multiplied by one.

Causal filters.  ``_filter_blocks`` is the one filter recursion: for an
array of anchor times it walks back over lags on the top block row of the
companion product for all anchors at once, one block of lags after another,
and composes the moving-average part on top.  ``ma_coefficients`` assembles
its blocks, for the autocovariances of ``spectrum`` one group of anchor times
at a time, and ``choose_ma_order`` continues it from one doubling of the lag
count to the next.  ``simulate_ma`` gives t = 1..T from innovation rows that
end at T, carrying the forward responses of a block of rows at once, latest
block first.  Each of these stacks (a lag block, an anchor group, a row
block's operators) stays within ``_FILTER_BYTES``, so no working memory
grows with anchors x lags or with T.
The stability report on the default grid is computed once per model
(``TvFarmaModel.stability``).  ``require_stable``, the one stability gate,
reads it; ``simulate``, ``evaluate.replicate`` and ``choose_ma_order`` (the
one user of the truncation heuristic) call the gate before they simulate or
filter.

Simulation.  One private simulator carries R replications through one
time loop over a rolling buffer of short spans of steps, evaluates the
operator curves over the same spans, and copies each span into the time
windows its caller reads, handing a window over as soon as the loop passes
its end; it never holds a whole (R, burn_in + n, K) run or a
(burn_in + n, K, K) operator stack.  ``simulate`` is its single-series,
single-window case and ``evaluate.replicate`` drives it in passes of
replications.  A row's arithmetic does not depend on R, so every
replication is bitwise the same however the replications are grouped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .funspace import BasisSpec, check_unit_interval, op_norm

_KEY_MATRIX = 0
_KEY_INNOV = 1
_KEY_REPLICATION = 2

DEFAULT_BURN_IN = 500
MAX_MA_LAGS = 100_000  # lag count at which choose_ma_order gives up

# Entries per operator stack of the simulator: inside the time loop every
# curve is batched over spans of _SPAN_ELEMENTS // K^2 rescaled times (72 for
# K = 15, at most _SPAN_STEPS), never over the whole window, and the span
# does not depend on how many rows share the loop, so each row draws its
# innovations in the same ceil(steps / span) calls at any R.  On a 2-vCPU
# Xeon with numpy 2.4, 72-step K = 15 spans (127 KiB stacks) cost less than
# one whole-window stack (4.3 against 5.2 ms per 4 596 steps); 128-step
# spans (256 KiB) cost 11 ms.  The two rolling (span, R, K) buffers grow
# with R and count in the window budget of ``evaluate.replicate``.
_SPAN_ELEMENTS = 2**14
# Most steps per span, so that at small K the rolling buffers stay a few
# hundred steps rather than the whole run.  At K = 1 with 2 000 rows over
# 3 060 steps (acceptance criterion 06), 256-step spans take 0.37 s and hold
# 28 MB at peak, 64-step spans 0.48 s and 22 MB, one whole-run span 0.31 s
# and 60 MB.
_SPAN_STEPS = 256
# Bytes of filters or operators the causal-filter layer holds at a time: a
# lag block of ``_filter_blocks`` (anchors x lags filters), an anchor group
# of the autocovariances, the operator stacks of a row block of
# ``simulate_ma``.  For far2 (K = 15, T = 512, L = 64) on a 2-vCPU Xeon, 1 MiB
# takes ``wigner_ville`` (3 u, s_max 32) and ``simulate_ma`` from 5.7 and
# 3.3 MB of traced heap to 2.7 and 1.6 MB in 1.0-1.08 times the time of
# whole stacks; 512 KiB saves 0.5 MB more but takes 1.17 and 1.35 times it.
_FILTER_BYTES = 2**20


def _span(k, total):
    """Steps per span of the time loop for K-variate rows over ``total`` steps."""
    return max(1, min(total, _SPAN_STEPS, _SPAN_ELEMENTS // (k * k)))


def spawn_rng(seed, *key):
    """Generator for the sub-stream of ``seed`` addressed by integer ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def replication_seed(seed, *index):
    """64-bit master seed from the sub-stream of the replication addressed by ``index``."""
    sequence = np.random.SeedSequence(seed, spawn_key=(_KEY_REPLICATION, *index))
    return int(sequence.generate_state(1, np.uint64)[0])


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
        if knots.ndim != 1 or not knots.size or values.ndim != 3 or values.shape[0] != knots.size:
            raise ValueError("need knots (G,) with G >= 1 and values (G, K, K)")
        if values.shape[1] != values.shape[2]:
            raise ValueError("curve values must be square matrices")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("curve knots and values must be finite")
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
        nxt = idx + 1
        w = (uc - knots[idx]) / (knots[nxt] - knots[idx])
        # (1 - w) A + w B in place; past two simulator spans the w B term comes
        # in quarter-span row chunks, so the result is the one whole stack
        # (below that, chunks cost more time than the memory is worth)
        out = self.values[idx]
        out *= (1.0 - w)[:, None, None]
        span = max(1, _SPAN_ELEMENTS // self.dim**2)
        step = max(1, us.size if us.size <= 2 * span else span // 4)
        for a in range(0, us.size, step):
            right = self.values[nxt[a:a + step]]
            right *= w[a:a + step, None, None]
            out[a:a + step] += right
        return out


@dataclass(frozen=True)
class InnovationSpec:
    """Independent Gaussian innovations with diagonal coefficient covariance."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 1 or sigma.size == 0 or not np.all((sigma >= 0) & (sigma < np.inf)):
            raise ValueError("sigma must be a nonempty nonnegative finite vector")
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

    @cached_property
    def stability(self):
        """``check_stability`` on its default grid, computed once per model."""
        return _stability_report(self)

    def frozen(self, u):
        """Stationary model with every curve fixed at rescaled time ``u`` in [0, 1]."""
        check_unit_interval(u, "u")
        ar, ma, c = _curves_at(self, np.array([float(u)]))
        return TvFarmaModel(ar=[OperatorCurve.constant(b) for b in ar[0]],
                            innovations=self.innovations,
                            ma=[OperatorCurve.constant(phi) for phi in ma[0]],
                            c=None if c is None else OperatorCurve.constant(c[0]))


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
    # row a of the top block row is (B_{u,1}[a], ..., B_{u,m}[a])
    width = model.ar_order * k
    ar = _curves_at(model, flat)[0]
    comp[:, :k, :width] = ar.transpose(0, 2, 1, 3).reshape(flat.size, k, width)
    if model.ar_order > 1:
        comp[:, k:, :-k] = np.eye(size - k)
    return comp if us.ndim else comp[0]


@dataclass(frozen=True)
class StabilityReport:
    """Per-u stability diagnostics for the AR part."""

    u: np.ndarray
    norm_sums: np.ndarray
    radii: np.ndarray
    delta: float = 1e-6  # margin of the radius criterion

    @property
    def passed(self):
        # The radius criterion is authoritative; the norm sum is reported
        # because it is the easy sufficient condition.
        return bool(np.all(self.radii < 1.0 - self.delta))

    def worst(self):
        i = int(np.argmax(self.radii))
        return float(self.u[i]), float(self.radii[i])


def check_stability(model, u_grid=None):
    """Evaluate causality diagnostics of the AR part on a grid of u.

    Reports, per u, the sum of operator norms of the AR curves (sufficient
    condition when < 1) and the spectral radius of the companion matrix
    (authoritative pass criterion: radius < 1 - 1e-6 everywhere).  All
    companions are built and decomposed as one stack.  The default grid is
    65 equispaced u; on it the result is the model's cached report,
    ``TvFarmaModel.stability``.
    """
    return model.stability if u_grid is None else _stability_report(model, u_grid)


def _stability_report(model, u_grid=None):
    if u_grid is None:
        u_grid = np.linspace(0.0, 1.0, 65)
    u_grid = np.asarray(u_grid, dtype=float)
    k = model.dim
    m = model.ar_order
    comps = build_companion(model, u_grid)
    top = comps[:, :k, :m * k].reshape(u_grid.size, k, m, k)
    sums = np.linalg.norm(top, 2, axis=(1, 3)).sum(axis=1)
    radii = np.max(np.abs(np.linalg.eigvals(comps)), axis=1)
    return StabilityReport(u=u_grid, norm_sums=sums, radii=radii)


class StabilityError(RuntimeError):
    """AR part fails the spectral-radius criterion somewhere on [0, 1]."""


def require_stable(model):
    """The one stability gate: raise ``StabilityError`` unless the model's cached
    report passes.  A model without AR part is causal and is not checked."""
    if model.ar and not model.stability.passed:
        u, radius = model.stability.worst()
        raise StabilityError(f"radius {radius:.6g} at u = {u:.6g}")


def simulate(model, T, seed=0, t_start=1, t_end=None, return_innovations=False, check=True):
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
    t_start, t_end : int
        Observation window in absolute time; defaults to [1, T].  A wider
        window extends the same process (curves clamp outside [0, 1]).  The
        ``DEFAULT_BURN_IN`` steps before ``t_start`` are simulated and
        discarded, so the output has forgotten the zero initial state.
    return_innovations : bool
        Also return the innovation draws, rows aligned with
        t = t_start - DEFAULT_BURN_IN, ..., t_end.
    check : bool
        Run the stability gate ``require_stable`` first.

    Returns
    -------
    ndarray, shape (t_end - t_start + 1, K)
        Coefficient rows for t = t_start, ..., t_end.
    """
    if t_end is None:
        t_end = T
    if check:
        require_stable(model)
    first = t_start - DEFAULT_BURN_IN
    x = _simulate_rows(model, T, [seed], first, [(t_start, t_end)], _whole)[0][0]
    if return_innovations:
        # the same draws the simulator took span by span, in one call
        eps = spawn_rng(seed, _KEY_INNOV).standard_normal((t_end - first + 1, model.dim))
        return x, eps * model.innovations.sigma
    return x


def _simulate_rows(model, T, seeds, first, windows, reduce):
    """Replications of the triangular array, streamed through time windows.

    Row r is the process of ``seeds[r]``'s sub-stream (1,) started from a
    zero state at absolute time ``first``.  One time loop carries every row:
    it draws the innovations span by span into a rolling buffer of the last
    m states plus one span of ``_span(K, steps)`` steps (whatever R is),
    evaluates the operator curves over the same span, and applies the C, AR
    and MA terms in place one time step at a time.  Each term is a per-row
    ``einsum`` (no BLAS) written into one reused (R, K) buffer, so a row's
    arithmetic does not depend on how many rows share the loop.

    ``windows`` are (start, stop) absolute times, inclusive, at or after
    ``first``.  Each window's (R, stop - start + 1, K) array is allocated
    when the loop reaches its start, filled span by span, and handed to
    ``reduce(i, xs)`` as soon as the loop passes its stop; the loop ends at
    the last stop.  Only the open windows are held, never the whole run.
    Returns the list of ``reduce`` results in window order.
    """
    if any(stop < start for start, stop in windows):
        raise ValueError("empty observation window")
    if any(start < first for start, _ in windows):
        raise ValueError("a window starts before the first simulated step")
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    rows = len(seeds)
    total = max(stop for _, stop in windows) - first + 1
    rngs = [spawn_rng(seed, _KEY_INNOV) for seed in seeds]
    sigma = model.innovations.sigma
    moving = model.c is not None or m or n
    span = _span(k, total)
    # time-major, so each step is one contiguous (R, K) block: the last m
    # states, then one span of steps.  The draws come row by row into their
    # own buffer, as one row's stream must fill contiguous memory.
    buf = np.empty((m + span, rows, k))
    draws = np.empty((rows, span, k))
    # shaped innovations of the current and the last n steps, for the MA terms
    shaped = np.empty((n + 1, rows, k))
    term = np.empty((rows, k))  # one step's product, C-ordered like einsum's own
    steps = list(buf)  # steps[m + s] is time step start + s of the current span
    order = sorted(range(len(windows)), key=lambda i: windows[i][0])
    live = {}
    results = [None] * len(windows)
    for start in range(0, total, span):
        stop = min(start + span, total)
        count = stop - start
        if start:
            buf[:m] = buf[span:span + m]
        for row, rng in zip(draws, rngs):
            rng.standard_normal(out=row[:count])
        np.multiply(draws[:, :count].transpose(1, 0, 2), sigma, out=buf[m:m + count])
        if moving:
            ar_ops, ma_ops, c_ops = _curves_at(model, np.arange(first + start, first + stop) / T)
            for s in range(count):
                i = start + s
                now = steps[m + s]
                if c_ops is not None:
                    np.einsum("rj,ij->ri", now, c_ops[s], out=term)
                    now[...] = term
                if n:
                    shaped[i % (n + 1)] = now
                for j in range(1, min(i, m) + 1):
                    now += np.einsum("rj,ij->ri", steps[m + s - j], ar_ops[s, j - 1], out=term)
                for l in range(1, min(i, n) + 1):
                    now += np.einsum("rj,ij->ri", shaped[(i - l) % (n + 1)], ma_ops[s, l - 1],
                                     out=term)
            del c_ops, ar_ops, ma_ops  # freed before the next span's stacks are built
        lo, hi = first + start, first + stop - 1
        for i in order:
            a, b = windows[i]
            if b < lo or a > hi:
                continue
            if i not in live:
                live[i] = np.empty((rows, b - a + 1, k))
            c, d = max(a, lo), min(b, hi)
            live[i][:, c - a:d - a + 1] = buf[m + c - lo:m + d - lo + 1].transpose(1, 0, 2)
            if b <= hi:
                results[i] = reduce(i, live.pop(i))
    return results


def _whole(i, xs):
    """``reduce`` that keeps a window as it is."""
    return xs


def _row_bytes(model, windows, t0):
    """Bytes a row holds in ``_simulate_rows`` reading ``windows`` of observations
    from ``t0`` on: its open windows and its share of the two rolling buffers (m
    states and two spans) over the steps from the burn-in to the last stop."""
    steps = max(stop for _, stop in windows) - (t0 - DEFAULT_BURN_IN) + 1
    rolling = model.ar_order + 2 * _span(model.dim, steps)
    return (_open_elements(windows) + rolling) * model.dim * 8


def _open_elements(windows):
    """Most steps of ``windows`` open at one time (a window is open from its start to
    its stop): the largest running sum over the windows' opening and closing events,
    a window closing at t sorted before one opening at t."""
    events = sorted([(start, stop - start + 1) for start, stop in windows]
                    + [(stop + 1, start - stop - 1) for start, stop in windows])
    return max(accumulate(size for _, size in events))


def _curves_at(model, us):
    """Every operator curve at the 1-D rescaled times ``us``: the AR stack
    B_{u, j}, shape (len(us), m, K, K), the MA stack Phi_{u, l}, shape
    (len(us), n, K, K), and the C_u stack, or None when the model has no C
    (C is the identity)."""
    # each curve written in as it is evaluated: stacked after all were
    # evaluated, the filter recursion ran up to 10 % slower (page faults)
    ar = np.empty((len(us), model.ar_order, model.dim, model.dim))
    ma = np.empty((len(us), model.ma_order, model.dim, model.dim))
    for stack, curves in ((ar, model.ar), (ma, model.ma)):
        for j, cv in enumerate(curves):
            stack[:, j] = cv.batch(us)
    return ar, ma, None if model.c is None else model.c.batch(us)


def _filter_blocks(model, ts, T, ends):
    """The causal-filter recursion, lag block after lag block.

    Walks lags 0, 1, ..., ``ends[-1]`` for every anchor time in the 1-D
    array ``ts`` and yields ``(lo, filters)``: the filters A_{t,T}(l) of
    lags lo, ..., lo + w - 1, shape (len(ts), w, K, K).  A block never
    straddles a lag count in ``ends`` (ascending), so a caller can stop at
    any of them and the recursion is never restarted.  A block holds at
    most ``_FILTER_BYTES`` of filters (at least one lag), so the memory
    grows with the anchors, not with anchors x lags.  Its operators come
    from every curve evaluated once over the union of the block's rescaled
    times.  The state carried between blocks is the top block row of the
    companion product and the last n pure-AR filters.  A filter's arithmetic
    does not depend on its block or the other anchors.
    """
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    count = ts.size
    width = max(1, _FILTER_BYTES // (count * k * k * 8))
    # top block rows 1..m, double-buffered; block m + 1 stays zero and is
    # shifted in per lag as row_j <- row_{j+1} + row_1 B_{u_{l-1}, j}
    row = np.zeros((count, m + 1, k, k))
    spare = np.zeros((count, m + 1, k, k))
    row[:, 0] = np.eye(k)
    past = np.empty((count, n, k, k))  # pure-AR filters of the n lags before lo
    lo = 0
    for end in ends:
        while lo <= end:
            hi = min(end + 1, lo + width)
            # lags whose operators the block reads: u_{l-1} for the AR step,
            # u_{l-i} for the MA terms, u_l for the shaping
            first = max(0, lo - max(n, 1))
            times, idx = np.unique(ts[:, None] - np.arange(first, hi), return_inverse=True)
            ar, ma, c = _curves_at(model, times / T)
            idx = idx.reshape(count, hi - first)
            g = np.empty((count, n + hi - lo, k, k))
            g[:, :n] = past
            if lo == 0:
                g[:, n] = row[:, 0]
            if m:
                for l in range(max(lo, 1), hi):
                    step = row[:, :1] @ ar[idx[:, l - 1 - first]]
                    np.add(row[:, 1:], step, out=spare[:, :m])
                    row, spare = spare, row
                    g[:, n + l - lo] = row[:, 0]
            else:
                g[:, n + max(lo, 1) - lo:] = 0.0
            coeffs = g[:, n:].copy() if n else g
            for i in range(1, n + 1):
                a = max(lo, i)
                if a < hi:
                    coeffs[:, a - lo:] += (g[:, n + a - i - lo:n + hi - i - lo]
                                           @ ma[idx[:, a - i - first:hi - i - first], i - 1])
            if c is not None:
                coeffs = coeffs @ c[idx[:, lo - first:]]
            past = g[:, g.shape[1] - n:].copy()
            del ar, ma, c, times, idx, g  # freed while the caller reads the block
            yield lo, coeffs
            lo = hi


def ma_coefficients(model, t, T, lags):
    """Causal moving-average filters A_{t,T}(l) for l = 0, ..., lags.

    With u_l = (t - l)/T, the pure-AR filter G(l) is the top-left block of
    the product of companion matrices at u_0, u_1, ..., u_{l-1}; only its
    top block row is carried, updated per lag as
    row_j <- row_1 B_{u_{l-1}, j} + row_{j+1} (row_{m+1} = 0).  The
    moving-average part and the shaping operator compose on top:

        A_{t,T}(l) = sum_{i <= min(l, n)} G(l - i) Phi_{u_{l-i}, i} C_{u_l}

    with Phi_0 = I.  An array of anchor times ``t`` runs the recursion once
    for all anchors, in the lag blocks of ``_filter_blocks``; the result is
    the whole stack, so the caller bounds it by the anchors it passes.

    Returns
    -------
    ndarray, shape (lags + 1, K, K), or (len(t), lags + 1, K, K)
    """
    ts = np.asarray(t)
    anchors = np.atleast_1d(ts)
    coeffs = None
    for lo, block in _filter_blocks(model, anchors, T, [lags]):
        if block.shape[1] == lags + 1:  # one block holds every lag
            coeffs = block
            break
        if coeffs is None:
            coeffs = np.empty((anchors.size, lags + 1) + block.shape[2:])
        coeffs[:, lo:lo + block.shape[1]] = block
    return coeffs if ts.ndim else coeffs[0]


def _ma_tail_estimate(model, coeffs):
    """Operator-norm l1 tail sums beyond the last of a stable model's filters
    ``coeffs``, shape (anchors, lags + 1, K, K): a geometric envelope of the
    last m + 1 filters (all it reads) with ratio companion radius + 0.05, a
    heuristic estimate, not a bound."""
    if model.ar_order == 0:
        return np.zeros(len(coeffs))
    rho = float(np.max(model.stability.radii))
    ratio = min(rho + 0.05, 0.999)
    last = np.linalg.norm(coeffs[:, -(model.ar_order + 1):], 2, axis=(2, 3)).max(axis=1)
    return last * ratio / (1.0 - ratio)


def choose_ma_order(model, T, tol=1e-10):
    """Smallest lag count whose estimated tail falls below ``tol``.

    Runs the stability gate first; the tail is ``_ma_tail_estimate``, a
    heuristic, not a bound.  The filters depend on the anchor time: products
    walking into the clamped region below t = 1 can decay with a longer
    transient than mid-sample ones.  The estimate is therefore taken as the
    worst case over anchors spread across [1, T].  One recursion runs for
    all anchors and is checked at each doubling of the lag count; only the
    last m + 1 filters are kept between blocks.
    """
    require_stable(model)
    anchors = np.array(sorted({1, T // 4, T // 2, (3 * T) // 4, T} - {0}))
    keep = model.ar_order + 1
    checks = []
    lags = max(4 * model.ar_order + model.ma_order, 8)
    while lags <= MAX_MA_LAGS:
        checks.append(lags)
        lags *= 2
    tail = np.empty((anchors.size, 0, model.dim, model.dim))
    for lo, block in _filter_blocks(model, anchors, T, checks):
        tail = np.concatenate([tail, block[:, -keep:]], axis=1)[:, -keep:]
        lags = lo + block.shape[1] - 1
        if lags in checks and _ma_tail_estimate(model, tail).max() < tol:
            return lags
    raise RuntimeError(f"no truncation below tol={tol} within {MAX_MA_LAGS} lags")


def simulate_ma(model, T, innovations, lags):
    """The (T, K) rows of t = 1, ..., T by the truncated causal moving-average form.

    Parameters
    ----------
    innovations : ndarray, shape (len, K)
        Innovation rows for consecutive times ending at t = T, the rows
        ``simulate(..., return_innovations=True)`` returns.
    lags : int
        Truncation order L; innovations older than L steps are dropped.

    Notes
    -----
    Carries, for a block of innovation times r at once, their forward
    responses through the recursion for L steps, which reproduces the
    filters A_{t,T}(l) without forming them per time point.  A block's
    operator curves are evaluated once over the times its rows reach, and
    its stacks together hold at most ``_FILTER_BYTES`` unless L alone needs
    more.  Blocks run latest first, so every output time gains
    its terms in ascending order of their lag, as with one block, and the
    result does not depend on the block size.  Each step writes into
    buffers allocated once per call.
    """
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    # only rows whose responses reach t = 1 within ``lags`` steps
    innovations = innovations[max(0, innovations.shape[0] - T - lags):]
    count = innovations.shape[0]
    x = np.zeros((T, k))
    if not count:
        return x
    curves = m + n + (model.c is not None)
    rows = max(_FILTER_BYTES // (8 * k * k * max(curves, 1)) - lags, lags + 1)
    rows = -(-count // -(-count // rows))  # equal blocks
    # responses of the last m + 1 steps, and one step's product
    hist = np.empty((m + 1, rows, k))
    term = np.empty((rows, k))
    for b0 in range((count - 1) // rows * rows, -1, -rows):
        b1 = min(b0 + rows, count)
        r0 = T - count + 1 + b0
        ar, ma, c = _curves_at(model, np.arange(r0, min(r0 + b1 - b0 - 1 + lags, T) + 1) / T)
        shock = innovations[b0:b1]
        if c is not None:
            shock = np.einsum("rij,rj->ri", c[:b1 - b0], shock)
        for j in range(lags + 1):
            # row i sits at time r0 + i + j; rows past T are done
            active = min(b1 - b0, T - r0 - j + 1)
            if active <= 0:
                break
            y = hist[j % (m + 1), :active]
            if j == 0:
                y[...] = shock
            elif not m and j > n:
                break  # a pure MA(n) response ends after n steps
            else:
                y[...] = 0.0
                for i in range(1, min(j, m) + 1):
                    y += np.einsum("rab,rb->ra", ar[j:j + active, i - 1],
                                   hist[(j - i) % (m + 1), :active], out=term[:active])
                if j <= n:
                    y += np.einsum("rab,rb->ra", ma[j:j + active, j - 1], shock[:active],
                                   out=term[:active])
            first = max(0, 1 - r0 - j)  # rows not yet at t = 1
            if first < active:
                x[r0 + first + j - 1:r0 + active + j - 1] += y[first:active]
        del ar, ma, c  # freed before the next block's stacks are built
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
    omega = arccos(0.3 cos(1.5 - cos(pi u))); whether a realization shows it
    there depends on the sign of the dominant eigenvalue of the drawn lag-2
    operator, so the default seed is pinned to a draw that does (at
    ``size=15``, u=0.5).
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


def white(size=15, sigma=None):
    """White-noise preset: innovation scales ``sigma``, all ones by default;
    a given ``sigma`` sets the dimension, and ``size`` is then not read."""
    return TvFarmaModel(innovations=InnovationSpec(np.ones(size) if sigma is None else sigma))


# name -> builder, whose keyword parameters and defaults are the preset's keys and defaults
PRESETS = {"far1": far1, "far2": far2, "white": white}
