import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvfspec import model as model_module
from tvfspec.funspace import op_norm
from tvfspec.model import (
    DEFAULT_BURN_IN,
    InnovationSpec,
    OperatorCurve,
    StabilityError,
    TvFarmaModel,
    build_companion,
    check_stability,
    choose_ma_order,
    far1,
    far2,
    ma_coefficients,
    replication_seed,
    simulate,
    simulate_ma,
    spawn_rng,
)
from tvfspec.spectrum import transfer_operator, wigner_ville


def scalar_curve(fn, knots=65):
    us = np.linspace(0.0, 1.0, knots)
    return OperatorCurve(knots=us, values=np.array([[[fn(u)]] for u in us]))


def scalar_ar1(b=0.5, sigma=1.0):
    return TvFarmaModel(
        ar=(OperatorCurve.constant(np.array([[b]])),),
        innovations=InnovationSpec(np.array([sigma])),
    )


def random_curve(rng, dim, scale):
    """Piecewise-linear curve with 1 to 4 random knots on [0, 1]."""
    count = int(rng.integers(1, 5))
    knots = np.linspace(0.0, 1.0, count) if count > 1 else np.array([0.0])
    return OperatorCurve(knots, scale * rng.standard_normal((count, dim, dim)))


def random_model(seed, dim, m, n, with_c):
    rng = np.random.default_rng(seed)
    return TvFarmaModel(
        ar=tuple(random_curve(rng, dim, 0.4 / m) for _ in range(m)),
        innovations=InnovationSpec(np.ones(dim)),
        ma=tuple(random_curve(rng, dim, 0.5) for _ in range(n)),
        c=random_curve(rng, dim, 1.0) if with_c else None,
    )


def impulse_response_filters(model, t, T, lags, magnitudes=False):
    """Oracle: A_{t,T}(l) as the response at time t to a unit innovation at t - l.

    Runs the full forward recursion separately for every lag, with one
    scalar curve evaluation per step.  With ``magnitudes`` every operator
    enters by its entrywise absolute value, which gives the sum of the
    absolute terms that form each filter entry.
    """
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    op = np.abs if magnitudes else np.asarray
    out = np.empty((lags + 1, k, k))
    for lag in range(lags + 1):
        r = t - lag
        c_r = op(np.eye(k) if model.c is None else model.c(r / T))
        ys = [c_r]
        for j in range(1, lag + 1):
            u_j = (r + j) / T
            acc = np.zeros((k, k))
            for i in range(1, min(j, m) + 1):
                acc += op(model.ar[i - 1](u_j)) @ ys[j - i]
            if j <= n:
                acc += op(model.ma[j - 1](u_j)) @ c_r
            ys.append(acc)
        out[lag] = ys[-1]
    return out


def looped_simulate(model, T, seed, burn_in=DEFAULT_BURN_IN, t_start=1, t_end=None):
    """Oracle: one series, one time step and one matrix-vector product at a time."""
    if t_end is None:
        t_end = T
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    total = burn_in + (t_end - t_start + 1)
    us = np.arange(t_start - burn_in, t_end + 1) / float(T)
    eps = spawn_rng(seed, 1).standard_normal((total, k)) * model.innovations.sigma
    ar_ops = [cv.batch(us) for cv in model.ar]
    ma_ops = [cv.batch(us) for cv in model.ma]
    if model.c is None:
        shaped = eps
    else:
        shaped = np.einsum("tij,tj->ti", model.c.batch(us), eps)
    x = np.zeros((total, k))
    for i in range(total):
        acc = shaped[i].copy()
        for j in range(1, m + 1):
            if i - j >= 0:
                acc += ar_ops[j - 1][i] @ x[i - j]
        for l in range(1, n + 1):
            if i - l >= 0:
                acc += ma_ops[l - 1][i] @ shaped[i - l]
        x[i] = acc
    return x[burn_in:]


def truncated_ma_rows(model, T, innovations, lags, t_start, t_end, eps_t_start):
    """Oracle: the truncated MA sum accumulated one innovation row at a time."""
    k = model.dim
    m = model.ar_order
    n = model.ma_order
    x = np.zeros((t_end - t_start + 1, k))
    for row in range(innovations.shape[0]):
        r = eps_t_start + row
        horizon = min(t_end, r + lags)
        if horizon < max(r, t_start):
            continue
        c_r = np.eye(k) if model.c is None else model.c(r / T)
        shock = c_r @ innovations[row]
        ys = [shock]
        if r >= t_start:
            x[r - t_start] += shock
        for j in range(1, horizon - r + 1):
            u_j = (r + j) / T
            acc = np.zeros(k)
            for i in range(1, min(j, m) + 1):
                acc = acc + model.ar[i - 1](u_j) @ ys[j - i]
            if j <= n:
                acc = acc + model.ma[j - 1](u_j) @ shock
            ys.append(acc)
            if r + j >= t_start:
                x[r + j - t_start] += acc
    return x


def filter_budget(mp, nbytes):
    """Set the causal-filter layer's byte budget, which every module reads from ``model``."""
    mp.setattr(model_module, "_FILTER_BYTES", nbytes)


def dense_ma_coefficients(model, ts, T, lags):
    """Reference: the filter recursion over whole stacks, (len(ts), lags + 1, K, K).

    Every curve is evaluated once over the union of all rescaled times and
    the whole anchors x lags stack is built at once, in the same arithmetic
    order as the blocked recursion.
    """
    k = model.dim
    m = model.ar_order
    times, idx = np.unique(np.asarray(ts)[:, None] - np.arange(lags + 1), return_inverse=True)
    idx = idx.reshape(-1, lags + 1)
    us = times / T
    count = idx.shape[0]
    ar = np.zeros((us.size, m, k, k))
    for j, cv in enumerate(model.ar):
        ar[:, j] = cv.batch(us)
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
    return coeffs


def dense_simulate_ma(model, T, innovations, lags, t_start, t_end, eps_t_start):
    """Reference: the truncated MA form for all innovation rows at once, with
    every curve over the whole window, in the same arithmetic order as the
    blocked ``simulate_ma``."""
    k = model.dim
    m = model.ar_order
    x = np.zeros((t_end - t_start + 1, k))
    lo = max(0, t_start - lags - eps_t_start)
    hi = min(innovations.shape[0], t_end - eps_t_start + 1)
    if hi <= lo:
        return x
    r0 = eps_t_start + lo
    us = np.arange(r0, t_end + 1) / T
    ar = [cv.batch(us) for cv in model.ar]
    ma = [cv.batch(us) for cv in model.ma]
    shock = innovations[lo:hi]
    if model.c is not None:
        shock = np.einsum("rij,rj->ri", model.c.batch(us[:hi - lo]), shock)
    history = []
    for j in range(lags + 1):
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


def restarted_ma_order(model, T, tol=1e-10):
    """Reference: the truncation search that recomputes every filter per doubling."""
    anchors = np.array(sorted({1, T // 4, T // 2, (3 * T) // 4, T} - {0}))
    lags = max(4 * model.ar_order + model.ma_order, 8)
    while True:
        coeffs = dense_ma_coefficients(model, anchors, T, lags)
        if model_module._ma_tail_estimate(model, coeffs).max() < tol:
            return lags
        lags *= 2


class TestOperatorCurve:
    def test_interpolation_is_linear_and_clamped(self):
        curve = OperatorCurve(
            knots=np.array([0.0, 0.5, 1.0]),
            values=np.array([[[0.0]], [[1.0]], [[3.0]]]),
        )
        assert curve(0.25)[0, 0] == pytest.approx(0.5)
        assert curve(0.75)[0, 0] == pytest.approx(2.0)
        # the process convention clamps rescaled time outside [0, 1]
        assert curve(-2.0)[0, 0] == 0.0
        assert curve(1.5)[0, 0] == 3.0

    def test_batch_matches_pointwise(self):
        curve = scalar_curve(lambda u: np.sin(3 * u))
        us = np.linspace(-0.2, 1.2, 23)
        batch = curve.batch(us)
        single = np.array([curve(u) for u in us])
        assert np.allclose(batch, single)

    def test_constant(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        curve = OperatorCurve.constant(mat)
        assert np.array_equal(curve(0.0), mat)
        assert np.array_equal(curve(0.7), mat)

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorCurve(knots=np.array([0.5, 0.2]), values=np.zeros((2, 1, 1)))
        with pytest.raises(ValueError):
            OperatorCurve(knots=np.array([0.0, 1.0]), values=np.zeros((3, 1, 1)))
        with pytest.raises(ValueError):
            OperatorCurve(knots=np.array([0.0, 1.0]), values=np.zeros((2, 2, 1)))
        for knots, entry in (([0.0, np.nan], 0.0), ([0.0, 1.0], np.inf), ([0.0, 1.0], np.nan)):
            with pytest.raises(ValueError, match="finite"):
                OperatorCurve(knots=np.array(knots), values=np.full((2, 1, 1), entry))

    def test_batch_holds_the_result_and_one_chunk(self):
        curve = far2(size=15).ar[0]
        us = np.linspace(0.0, 1.0, 256)
        want = curve.batch(us)
        tracemalloc.start()
        try:
            got = curve.batch(us)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        # the left and right stacks side by side took 2.17 results
        assert peak <= 1.25 * got.nbytes

    def test_chunked_batch_equals_pointwise_calls(self):
        # 600 times at K = 15 cross many chunks of the right-hand term
        curve = far2(size=15).ar[1]
        us = np.linspace(-0.1, 1.1, 600)
        assert curve.batch(us).tobytes() == np.array([curve(u) for u in us]).tobytes()


@pytest.mark.parametrize("sigma", [[np.nan, 1.0], [1.0, np.inf], [-1.0, 1.0], []])
def test_innovation_scales_must_be_nonnegative_and_finite(sigma):
    with pytest.raises(ValueError, match="nonnegative finite"):
        InnovationSpec(np.array(sigma))


def test_model_dimensions_must_agree():
    curve = OperatorCurve.constant(np.eye(2))
    with pytest.raises(ValueError, match="share one dimension"):
        TvFarmaModel(ar=(curve,), innovations=InnovationSpec(np.ones(3)))


def knotted_curve(rng, dim, scale, count):
    """Curve on ``count`` random strictly increasing knots in [0, 1]."""
    knots = np.sort(rng.choice(np.linspace(0.0, 1.0, 97), count, replace=False))
    return OperatorCurve(knots, scale * rng.standard_normal((count, dim, dim)))


class TestOneEvaluator:
    """``model._curves_at`` is the one evaluator of the operator curves: every
    path that reads B, Phi or C agrees with references built from ``curve(u)``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        knots=st.lists(st.integers(1, 6), min_size=5, max_size=5),
        us=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=8),
    )
    def test_every_path_reads_the_curves_at_u(self, seed, dim, m, n, with_c, knots, us):
        rng = np.random.default_rng(seed)
        model = TvFarmaModel(
            ar=tuple(knotted_curve(rng, dim, 0.3 / m, knots[j]) for j in range(m)),
            innovations=InnovationSpec(rng.uniform(0.5, 1.0, dim)),
            ma=tuple(knotted_curve(rng, dim, 0.5, knots[2 + l]) for l in range(n)),
            c=knotted_curve(rng, dim, 1.0, knots[4]) if with_c else None,
        )
        us = np.array(us)
        ar, ma, c = model_module._curves_at(model, us)
        assert ar.shape == (us.size, m, dim, dim) and ma.shape == (us.size, n, dim, dim)
        assert (c is None) == (not with_c)
        shaping = [] if c is None else [c]
        stacks = [ar[:, j] for j in range(m)] + [ma[:, l] for l in range(n)] + shaping
        for stack, cv in zip(stacks, model.ar + model.ma + (model.c,)):
            assert stack.tobytes() == np.array([cv(u) for u in us]).tobytes()

        size = max(m, 1) * dim
        comps = build_companion(model, us)
        report = check_stability(model, u_grid=us)
        omegas = np.linspace(-np.pi, np.pi, 5)
        for i, u in enumerate(us):
            comp = np.zeros((size, size))
            for j, cv in enumerate(model.ar):
                comp[:dim, j * dim:(j + 1) * dim] = cv(u)
            comp[dim:, :-dim] = np.eye(size - dim)
            assert comps[i].tobytes() == comp.tobytes()
            assert report.norm_sums[i] == sum(op_norm(cv(u)) for cv in model.ar)

            bmat = np.empty((omegas.size, dim, dim), dtype=complex)
            phi = np.empty((omegas.size, dim, dim), dtype=complex)
            for w, omega in enumerate(omegas):
                bmat[w] = np.eye(dim)
                for j, cv in enumerate(model.ar, start=1):
                    bmat[w] -= np.exp(-1j * omega * j) * cv(u)
                phi[w] = np.eye(dim)
                for l, cv in enumerate(model.ma, start=1):
                    phi[w] += np.exp(-1j * omega * l) * cv(u)
            if with_c:
                phi = phi @ model.c(u).astype(complex)
            want = np.linalg.solve(bmat, phi) / np.sqrt(2.0 * np.pi)
            assert transfer_operator(model, u, omegas).tobytes() == want.tobytes()

            if 0.0 <= u <= 1.0:
                frozen = model.frozen(u)
                assert [cv.values[0].tobytes() for cv in frozen.ar + frozen.ma] == [
                    cv(u).tobytes() for cv in model.ar + model.ma]
                assert (frozen.c is None) == (not with_c)
                assert not with_c or frozen.c.values[0].tobytes() == model.c(u).tobytes()

    def test_only_the_evaluator_batches_curves(self):
        src = Path(model_module.__file__).parent
        callers = set()
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "batch"):
                        callers.add((path.name, getattr(top, "name", None)))
        assert callers == {("model.py", "OperatorCurve"), ("model.py", "_curves_at")}


class TestRngDiscipline:
    def test_spawn_deterministic_and_keyed(self):
        a = spawn_rng(42, 1).normal(size=4)
        b = spawn_rng(42, 1).normal(size=4)
        c = spawn_rng(42, 2).normal(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_replication_seed_distinct(self):
        seeds = {replication_seed(0, r) for r in range(32)}
        assert len(seeds) == 32
        assert replication_seed(0, 3) == replication_seed(0, 3)


class TestSimulate:
    def test_same_seed_bit_identical(self):
        model = far1(size=4)
        x = simulate(model, 64, seed=9)
        y = simulate(model, 64, seed=9)
        assert np.array_equal(x, y)

    def test_zero_operators_give_shaped_white_noise(self):
        size = 3
        sigma = np.array([1.0, 0.5, 0.25])
        zero = OperatorCurve.constant(np.zeros((size, size)))
        with_ar = TvFarmaModel(ar=(zero,), innovations=InnovationSpec(sigma))
        plain = TvFarmaModel(innovations=InnovationSpec(sigma))
        x = simulate(with_ar, 128, seed=1)
        y = simulate(plain, 128, seed=1)
        assert np.allclose(x, y)
        assert x.shape == (128, size)

    def test_window_extension_shape(self):
        model = far1(size=3)
        n = 16
        x = simulate(model, 64, seed=0, t_start=1 - n // 2, t_end=64 + n // 2)
        assert x.shape == (64 + n, 3)

    def test_unstable_model_raises(self):
        bad = scalar_ar1(b=1.2)
        with pytest.raises(StabilityError):
            simulate(bad, 32, seed=0)

    def test_constant_ar1_lag_one_autocorrelation(self):
        x = simulate(scalar_ar1(b=0.5), 20000, seed=4)[:, 0]
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho - 0.5) < 0.02

    def test_frozen_model_is_stationary_in_mean(self):
        model = far1(size=6)
        x = simulate(model.frozen(0.4), 50000, seed=2)[:, 0]
        blocks = x.reshape(100, 500).mean(axis=1)
        se = blocks.std(ddof=1) / np.sqrt(blocks.size)
        assert abs(x.mean()) < 3 * se

    def test_frozen_shares_innovation_stream(self):
        model = far1(size=3)
        _, eps_moving = simulate(model, 64, seed=7, return_innovations=True)
        frozen = model.frozen(0.3)
        _, eps_frozen = simulate(frozen, 64, seed=7, return_innovations=True)
        assert np.array_equal(eps_moving, eps_frozen)


def simulated_rows(model, T, seeds, burn_in, t_start, t_end):
    """Rows of the observation window [t_start, t_end], as one window of the simulator."""
    return model_module._simulate_rows(model, T, seeds, t_start - burn_in, [(t_start, t_end)],
                                       model_module._whole)[0]


class TestBatchedSimulation:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        k=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(8, 48),
        t_start=st.integers(-6, 6),
        length=st.integers(1, 40),
        burn_in=st.integers(0, 24),
        rows=st.integers(1, 5),
    )
    def test_rows_match_looped_oracle_and_any_chunking(self, seed, k, m, n, with_c, T, t_start,
                                                       length, burn_in, rows):
        model = random_model(seed, k, m, n, with_c)
        t_end = t_start + length - 1
        seeds = [replication_seed(seed, r) for r in range(rows)]
        xs = simulated_rows(model, T, seeds, burn_in, t_start, t_end)
        assert xs.shape == (rows, length, k)
        for row, s in zip(xs, seeds):
            oracle = looped_simulate(model, T, s, burn_in, t_start, t_end)
            assert np.abs(row - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1.0)
            # the single-series simulator is the same rows from the default start
            single = simulate(model, T, seed=s, t_start=t_start, t_end=t_end, check=False)
            assert np.array_equal(
                simulated_rows(model, T, [s], DEFAULT_BURN_IN, t_start, t_end)[0], single)
        for size in (1, 2, 3, rows):
            chunked = [simulated_rows(model, T, seeds[i:i + size], burn_in, t_start, t_end)
                       for i in range(0, rows, size)]
            assert np.array_equal(np.concatenate(chunked), xs)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        k=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        steps=st.integers(1, 9),
        cuts=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), min_size=1,
                      max_size=5),
        rows=st.integers(1, 4),
    )
    # two rows; the second window closes one 9-step span before the first
    @example(seed=0, k=1, m=0, n=0, with_c=False, steps=9, cuts=[(0, 51), (0, 48)], rows=2)
    def test_windows_are_slices_of_the_whole_rows(self, seed, k, m, n, with_c, steps, cuts,
                                                  rows):
        # overlapping, nested and repeated windows, spans of any length cut
        # inside the windows and the AR/MA lags: each window is handed over
        # once, as soon as the loop passes its stop, bitwise equal to its
        # slice of the rows simulated as one window
        model = random_model(seed, k, m, n, with_c)
        seeds = [replication_seed(seed, r) for r in range(rows)]
        t_start, first = -5, -17
        windows = [(t_start + min(a, b), t_start + max(a, b)) for a, b in cuts]
        whole = simulated_rows(model, 40, seeds, t_start - first, t_start, t_start + 59)
        handed = []

        def reduce(i, xs):
            handed.append(i)
            return xs.copy()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_module, "_SPAN_ELEMENTS", steps * k * k)
            parts = model_module._simulate_rows(model, 40, seeds, first, windows, reduce)
        assert sorted(handed) == list(range(len(windows)))
        # a window closes in the span that holds its stop; the simulator's
        # span is _SPAN_ELEMENTS // K^2 steps whatever R, at most
        # _SPAN_STEPS and the run's length
        span = min(steps, model_module._SPAN_STEPS, max(b for _, b in windows) - first + 1)
        closing = [(windows[i][1] - first) // span for i in handed]
        assert closing == sorted(closing)
        for (a, b), part in zip(windows, parts):
            assert np.array_equal(part, whole[:, a - t_start:b - t_start + 1])

    @pytest.mark.parametrize("steps", [1, 2, 5, 7])
    def test_rows_do_not_depend_on_the_span(self, monkeypatch, steps):
        # the curves are evaluated span by span; spans of any length, cut
        # inside the AR and MA lags, give the same bits as one span
        model = random_model(5, 3, 2, 2, True)
        seeds = [replication_seed(5, r) for r in range(3)]
        whole = simulated_rows(model, 40, seeds, 12, -3, 40)
        monkeypatch.setattr(model_module, "_SPAN_ELEMENTS", steps * 3 * 3)
        spans = simulated_rows(model, 40, seeds, 12, -3, 40)
        assert np.array_equal(spans, whole)
        for row, s in zip(spans, seeds):
            oracle = looped_simulate(model, 40, s, 12, -3, 40)
            assert np.abs(row - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1.0)

    def test_windows_must_lie_after_the_first_step(self):
        model = far1(size=3)
        with pytest.raises(ValueError, match="before the first simulated step"):
            model_module._simulate_rows(model, 32, [1], -10, [(-11, 5)], model_module._whole)
        with pytest.raises(ValueError, match="empty observation window"):
            simulate(model, 32, seed=1, t_start=5, t_end=4)

    def test_peak_memory_is_the_buffer_not_operator_stacks(self):
        model = far1(size=15)
        model.stability  # the cached stability report is not part of the simulation
        buffer = (DEFAULT_BURN_IN + 4096) * 15 * 8
        tracemalloc.start()
        try:
            simulate(model, 4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two whole-window (burn_in + n, K, K) operator stacks take 30 buffers
        assert peak < 2 * buffer

    def test_innovations_are_the_unshaped_draws(self):
        model = random_model(3, 3, 1, 1, True)
        x, eps = simulate(model, 32, seed=4, return_innovations=True, check=False)
        draws = spawn_rng(4, 1).standard_normal((DEFAULT_BURN_IN + 32, 3)) * model.innovations.sigma
        assert np.array_equal(eps, draws)
        assert np.array_equal(x, simulate(model, 32, seed=4, check=False))


class TestStability:
    def test_companion_layout_for_scalar_ar2(self):
        model = TvFarmaModel(
            ar=(
                OperatorCurve.constant(np.array([[-0.6]])),
                OperatorCurve.constant(np.array([[-0.45]])),
            ),
            innovations=InnovationSpec(np.array([1.0])),
        )
        comp = build_companion(model, 0.5)
        assert np.array_equal(comp, np.array([[-0.6, -0.45], [1.0, 0.0]]))
        report = check_stability(model)
        # roots -0.3 +- 0.6i, modulus sqrt(0.45)
        assert report.passed
        assert max(report.radii) == pytest.approx(np.sqrt(0.45), abs=1e-12)

    def test_report_names_worst_point(self):
        growing = scalar_curve(lambda u: 0.5 + 0.8 * u)
        model = TvFarmaModel(ar=(growing,), innovations=InnovationSpec(np.array([1.0])))
        report = check_stability(model)
        assert not report.passed
        worst_u, worst_radius = report.worst()
        assert worst_u == pytest.approx(1.0)
        assert worst_radius == pytest.approx(1.3)

    @pytest.mark.parametrize("model, grid", [
        (TvFarmaModel(innovations=InnovationSpec(np.ones(3))), np.linspace(0.0, 1.0, 65)),
        (TvFarmaModel(
            ar=(scalar_curve(lambda u: 0.9 - u), scalar_curve(lambda u: -0.45 + 0.3 * u)),
            innovations=InnovationSpec(np.array([1.0])),
        ), np.linspace(-0.1, 1.1, 37)),
        (far2(size=6), far2(size=6).ar[0].knots),
    ], ids=["white", "scalar_ar2", "far2_knots"])
    def test_batched_matches_per_u_loop(self, model, grid):
        report = check_stability(model, u_grid=grid)
        assert report.radii.shape == report.norm_sums.shape == grid.shape
        for i, u in enumerate(grid):
            radius = np.max(np.abs(np.linalg.eigvals(build_companion(model, u))))
            norm_sum = sum(op_norm(cv(u)) for cv in model.ar)
            assert abs(report.radii[i] - radius) <= 1e-15
            assert abs(report.norm_sums[i] - norm_sum) <= 1e-15

    def test_companion_stack_matches_scalar_calls(self):
        model = far2(size=4)
        us = np.array([0.0, 0.31, 1.0])
        stack = build_companion(model, us)
        assert stack.shape == (3, 8, 8)
        for i, u in enumerate(us):
            assert np.array_equal(stack[i], build_companion(model, u))

    def test_report_computed_once_per_model(self, monkeypatch):
        calls = []
        real = model_module.check_stability

        def spy(model, *args, **kwargs):
            calls.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(model_module, "check_stability", spy)
        model = far2(size=4)
        choose_ma_order(model, 128)
        wigner_ville(model, [0.3, 0.6], np.linspace(-np.pi, np.pi, 8), 128, s_max=4)
        simulate(model, 128, seed=0)
        assert len(calls) <= 1

    def test_explicit_check_and_simulation_gate_share_one_decomposition(self, monkeypatch):
        passes = []
        real = np.linalg.eigvals

        def spy(a):
            passes.append(np.shape(a))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        model = far2(size=4)
        report = check_stability(model)
        choose_ma_order(model, 128)
        simulate(model, 128, seed=0)
        assert report is model.stability
        assert passes == [(65, 8, 8)]
        # another grid is a new report
        assert check_stability(model, u_grid=[0.5]).u.tolist() == [0.5]
        assert len(passes) == 2

    def test_one_line_of_the_package_raises_stability_error(self):
        src = Path(model_module.__file__).parent
        raising = [line for path in sorted(src.glob("*.py"))
                   for line in path.read_text().splitlines() if "raise StabilityError" in line]
        assert raising == ['        raise StabilityError(f"radius {radius:.6g} at u = {u:.6g}")']


class TestPresets:
    def test_far1_operator_norm_is_eta_at_knots(self):
        model = far1(size=8, eta=0.4)
        curve = model.ar[0]
        for mat in curve.values:
            assert op_norm(mat) == pytest.approx(0.4, abs=1e-12)

    def test_far1_innovation_scales(self):
        model = far1(size=4)
        expected = 1.0 / (np.abs(np.arange(1, 5) - 1.5) * np.pi)
        assert np.allclose(model.innovations.sigma, expected)

    def test_far1_stability_sum_criterion(self):
        report = check_stability(far1(size=8))
        assert np.all(report.norm_sums < 1.0)
        assert report.passed

    def test_far1_seeded_draws_reproducible(self):
        a = far1(size=5, seed=3)
        b = far1(size=5, seed=3)
        assert np.array_equal(a.ar[0].values, b.ar[0].values)

    def test_far2_lag_two_norm_and_lag_one_scale(self):
        model = far2(size=6)
        for mat in model.ar[1].values:
            assert op_norm(mat) == pytest.approx(0.5, abs=1e-12)
        u_mid = model.ar[0].knots[len(model.ar[0].knots) // 2]
        # knot grids include the midpoint only for odd counts; evaluate there
        scale = 0.4 * np.cos(1.5 - np.cos(np.pi * 0.5))
        assert op_norm(model.ar[0](0.5)) <= abs(scale) + 1e-9 or u_mid != 0.5
        assert 0.4 * np.cos(1.5) == pytest.approx(scale)

    def test_far2_stable_at_all_knots(self):
        model = far2(size=6)
        report = check_stability(model, u_grid=model.ar[0].knots)
        assert report.passed

    @pytest.mark.parametrize("build, field", [
        (lambda: far1(knots=0), "knots"), (lambda: far2(knots=0), "knots"),
        (lambda: far1(size=0), "sigma"), (lambda: far2(size=0), "sigma"),
        (lambda: OperatorCurve(np.zeros(0), np.zeros((0, 2, 2))), "knots"),
        (lambda: InnovationSpec(np.zeros(0)), "sigma"),
    ], ids=["far1-knots", "far2-knots", "far1-size", "far2-size", "curve", "innovations"])
    def test_empty_curves_and_innovations_are_rejected_when_built(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()


class TestMovingAverageForm:
    def test_constant_ar_gives_geometric_filters(self):
        model = scalar_ar1(b=0.5)
        coeffs = ma_coefficients(model, t=50, T=100, lags=10)
        tail = model_module._ma_tail_estimate(model, coeffs[None])[0]
        assert np.allclose(coeffs[:, 0, 0], 0.5 ** np.arange(11))
        # reported tail must cover the true tail sum 0.5^11 / (1 - 0.5)
        true_tail = 0.5**10
        assert true_tail <= tail < 20 * true_tail

    def test_lag_zero_is_shaping_operator(self):
        model = far1(size=3)
        coeffs = ma_coefficients(model, t=30, T=100, lags=2)
        assert np.allclose(coeffs[0], np.eye(3))

    def test_time_varying_scalar_product_oracle(self):
        model = TvFarmaModel(
            ar=(scalar_curve(lambda u: 0.3 + 0.4 * u),),
            innovations=InnovationSpec(np.array([1.0])),
        )
        coeffs = ma_coefficients(model, t=50, T=100, lags=3)
        # filters multiply the coefficients walking back in time:
        # (0.3 + 0.4*0.50)(0.3 + 0.4*0.49) = 0.5 * 0.496
        assert coeffs[2, 0, 0] == pytest.approx(0.5 * 0.496, abs=1e-12)

    def test_truncated_ma_matches_recursion(self):
        model = far1(size=4)
        T = 128
        x, eps = simulate(model, T, seed=11, return_innovations=True)
        lags = choose_ma_order(model, T, tol=1e-10)
        y = simulate_ma(model, T, eps, lags)
        assert np.abs(x - y).max() < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(8, 64),
        near_end=st.booleans(),
        offset=st.integers(0, 3),
        lags=st.integers(0, 12),
    )
    # a lag-3 filter that is the small sum of larger terms (1.25e-17 off, 5.1e-18
    # of its own largest entry)
    @example(seed=9664, dim=1, m=2, n=1, with_c=False, T=32, near_end=True, offset=1, lags=3)
    def test_recursion_matches_forward_impulse_responses(
        self, seed, dim, m, n, with_c, T, near_end, offset, lags
    ):
        model = random_model(seed, dim, m, n, with_c)
        t = T - offset if near_end else 1 + offset
        coeffs = ma_coefficients(model, t, T, lags)
        oracle = impulse_response_filters(model, t, T, lags)
        assert coeffs.shape == oracle.shape
        # rounding scales with the absolute terms that sum to a filter, not
        # with the filter, which cancellation can make far smaller
        terms = impulse_response_filters(model, t, T, lags, magnitudes=True)
        for lag in range(lags + 1):
            assert np.abs(coeffs[lag] - oracle[lag]).max() <= 1e-12 * terms[lag].max()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(8, 64),
        anchors=st.lists(st.integers(-4, 72), min_size=1, max_size=6),
        lags=st.integers(0, 12),
    )
    def test_anchor_batch_matches_per_anchor_calls(
        self, seed, dim, m, n, with_c, T, anchors, lags
    ):
        model = random_model(seed, dim, m, n, with_c)
        coeffs = ma_coefficients(model, np.array(anchors), T, lags)
        tails = model_module._ma_tail_estimate(model, coeffs)
        assert coeffs.shape == (len(anchors), lags + 1, dim, dim)
        assert tails.shape == (len(anchors),)
        for i, t in enumerate(anchors):
            one = ma_coefficients(model, t, T, lags)
            tail = model_module._ma_tail_estimate(model, one[None])[0]
            assert np.array_equal(coeffs[i], one)
            assert tails[i] == tail

    @pytest.mark.parametrize("m, n, with_c", [(2, 0, False), (1, 2, True), (0, 1, True)])
    def test_truncated_ma_window_matches_per_row_loop(self, m, n, with_c):
        model = random_model(17, 3, m, n, with_c)
        # innovations from before t = 1, from after it, and from t = 1 on
        for lags, T, rows in [(9, 61, 70), (40, 30, 28), (0, 20, 20)]:
            innovations = spawn_rng(3, 1).standard_normal((rows, 3))
            got = simulate_ma(model, T, innovations, lags)
            want = truncated_ma_rows(model, T, innovations, lags, 1, T, T - rows + 1)
            assert got.shape == want.shape == (T, 3)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_choose_ma_order_tail_below_tol(self):
        model = far1(size=4)
        lags = choose_ma_order(model, 128, tol=1e-10)
        coeffs = ma_coefficients(model, 64, 128, lags)
        tail = model_module._ma_tail_estimate(model, coeffs[None])[0]
        assert tail < 1e-10


def stable_random_model(seed, dim, m, n, with_c):
    """``random_model`` draws whose AR part passes the stability gate."""
    model = random_model(seed, dim, m, n, with_c)
    if model.ar and not model.stability.passed:
        model = random_model(seed, dim, 0, n, with_c)
    return model


def spy_blocks(mp):
    """Record the lag width of every block the filter recursion yields."""
    widths = []
    real = model_module._filter_blocks

    def counted(*args, **kwargs):
        for lo, block in real(*args, **kwargs):
            widths.append(block.shape[1])
            yield lo, block

    mp.setattr(model_module, "_filter_blocks", counted)
    return widths


class TestBoundedFilterLayer:
    """The filter layer, blocked by ``_FILTER_BYTES``, against whole-stack references."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(8, 64),
        anchors=st.lists(st.integers(-4, 72), min_size=1, max_size=6),
        lags=st.integers(0, 12),
        budget=st.sampled_from([1, 200, 2**20]),
    )
    def test_ma_coefficients_equal_the_whole_stack_recursion(
        self, seed, dim, m, n, with_c, T, anchors, lags, budget
    ):
        model = random_model(seed, dim, m, n, with_c)
        with pytest.MonkeyPatch.context() as mp:
            filter_budget(mp, budget)
            got = ma_coefficients(model, np.array(anchors), T, lags)
        want = dense_ma_coefficients(model, np.array(anchors), T, lags)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(8, 64),
        lags=st.integers(0, 12),
        lead=st.integers(-8, 30),
        budget=st.sampled_from([1, 300, 2**20]),
    )
    # a row block whose burn-in rows end before t = 1 at step 0
    @example(seed=0, dim=1, m=0, n=0, with_c=False, T=8, lags=4, lead=6, budget=1)
    def test_simulate_ma_equals_the_all_rows_form(
        self, seed, dim, m, n, with_c, T, lags, lead, budget
    ):
        model = random_model(seed, dim, m, n, with_c)
        # T + lead rows ending at t = T: the first at 1 - lead, none when lead = -T
        innovations = spawn_rng(seed, 1).standard_normal((T + lead, dim))
        with pytest.MonkeyPatch.context() as mp:
            filter_budget(mp, budget)
            got = simulate_ma(model, T, innovations, lags)
        want = dense_simulate_ma(model, T, innovations, lags, 1, T, 1 - lead)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("build", [lambda: far1(size=15), lambda: far2(size=15)],
                             ids=["far1", "far2"])
    @pytest.mark.parametrize("T", [128, 512])
    def test_presets_equal_the_whole_window_references(self, build, T):
        model = build()
        lags = choose_ma_order(model, T)
        assert lags == restarted_ma_order(model, T)
        x, eps = simulate(model, T, seed=2, return_innovations=True)
        got = simulate_ma(model, T, eps, lags)
        first = T - eps.shape[0] + 1
        assert got.tobytes() == dense_simulate_ma(model, T, eps, lags, 1, T, first).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(8, 300),
    )
    def test_ma_order_continues_one_recursion(self, seed, dim, m, n, with_c, T):
        model = stable_random_model(seed, dim, m, n, with_c)
        with pytest.MonkeyPatch.context() as mp:
            widths = spy_blocks(mp)
            lags = choose_ma_order(model, T)
        assert lags == restarted_ma_order(model, T)
        # one filter per lag 0..L: L lag steps, never a restart
        assert sum(widths) == lags + 1

    def test_far2_order_takes_one_step_per_lag(self, monkeypatch):
        widths = spy_blocks(monkeypatch)
        assert choose_ma_order(far2(size=15), 512) == 64
        # a restart at each of 8, 16, 32 and 64 lags took 8 + 16 + 32 + 64 = 120 steps
        assert sum(widths) - 1 == 64

    def test_simulate_ma_memory_does_not_grow_with_the_window(self):
        model = far2(size=15)
        T = 4096
        x, eps = simulate(model, T, seed=1, return_innovations=True)
        lags = choose_ma_order(model, T)
        tracemalloc.start()
        try:
            y = simulate_ma(model, T, eps, lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole-window operator stacks took 23 MB
        assert peak <= 4e6
        assert np.abs(x - y).max() < 1e-8


def test_burn_in_depth_changes_nothing_visible():
    model = far1(size=3)
    deep = simulate(model, 64, seed=5)
    deeper = simulated_rows(model, 64, [5], DEFAULT_BURN_IN + 250, 1, 64)[0]
    # different draw counts mean different realizations; both must be finite
    # and share the model's scale, nothing more is claimed across depths
    assert np.all(np.isfinite(deep)) and np.all(np.isfinite(deeper))
    assert deep.std() == pytest.approx(deeper.std(), rel=0.5)
