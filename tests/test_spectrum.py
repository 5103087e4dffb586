import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_model import dense_ma_coefficients, filter_budget, random_model

from tvfspec import spectrum
from tvfspec.funspace import op_norm
from tvfspec.model import (
    _FILTER_BYTES,
    InnovationSpec,
    OperatorCurve,
    TvFarmaModel,
    choose_ma_order,
    far1,
    far2,
    ma_coefficients,
)
from tvfspec.spectrum import (
    TWO_PI,
    SpectralGrid,
    TransferSingularError,
    autocov_sequence,
    local_autocov,
    transfer_operator,
    true_spectral_density,
    truth_grid,
    wigner_ville,
)

OMEGAS = np.linspace(-np.pi, np.pi, 64, endpoint=False)


def scalar_ar1(b=0.5, sigma=1.0):
    return TvFarmaModel(
        ar=(OperatorCurve.constant(np.array([[b]])),),
        innovations=InnovationSpec(np.array([sigma])),
    )


def scalar_ar1_density(omega, b=0.5, sigma=1.0):
    return sigma**2 / (TWO_PI * np.abs(1.0 - b * np.exp(-1j * omega)) ** 2)


def per_lag_autocov(model, t1, t2, T, lags):
    """Oracle: sum_l A_{t1}(l) C_eps A_{t2}(l + t2 - t1)' one lag at a time.

    Both filters come from separate per-anchor calls truncated at ``lags``.
    """
    shift = t2 - t1
    c1 = ma_coefficients(model, t1, T, lags)
    c2 = ma_coefficients(model, t2, T, lags)
    cov = model.innovations.covariance
    out = np.zeros((model.dim, model.dim))
    for l in range(lags + 1):
        l2 = l + shift
        if l2 < 0 or l2 >= c2.shape[0]:
            continue
        out += c1[l] @ cov @ c2[l2].T
    return out


class TestClosedForms:
    def test_transfer_at_zero_frequency(self):
        a = transfer_operator(scalar_ar1(), 0.3, [0.0, np.pi])
        assert a.shape == (2, 1, 1)
        assert a[1, 0, 0] == pytest.approx((1.0 / np.sqrt(TWO_PI)) / 1.5, abs=1e-12)
        assert a[0, 0, 0] == pytest.approx((1.0 / np.sqrt(TWO_PI)) / 0.5, abs=1e-12)

    def test_ar1_spectral_density(self):
        model = scalar_ar1()
        for omega in OMEGAS:
            f = true_spectral_density(model, 0.5, omega)[0, 0]
            assert abs(f - scalar_ar1_density(omega)) < 1e-12

    def test_ar1_density_at_pi(self):
        f = true_spectral_density(scalar_ar1(), 0.2, np.pi)[0, 0]
        assert f.real == pytest.approx(1.0 / (4.5 * np.pi), abs=1e-14)
        assert f.imag == pytest.approx(0.0, abs=1e-14)

    def test_white_noise_density_constant(self):
        sigma = np.array([1.0, 0.5])
        model = TvFarmaModel(innovations=InnovationSpec(sigma))
        grid = truth_grid(model, [0.2, 0.8], OMEGAS)
        expected = np.diag(sigma**2) / TWO_PI
        assert np.abs(grid.values - expected).max() < 1e-14

    def test_singular_transfer_raises(self):
        unit_root = scalar_ar1(b=1.0)
        with pytest.raises(TransferSingularError):
            transfer_operator(unit_root, 0.5, 0.0)

    def test_near_singular_symbol_raises_on_every_path(self):
        # B(u, 0) = diag(1e-14, 0.5) has condition number 5e13
        near_unit = TvFarmaModel(
            ar=(OperatorCurve.constant(np.diag([1.0 - 1e-14, 0.5])),),
            innovations=InnovationSpec(np.ones(2)),
        )
        with pytest.raises(TransferSingularError, match="omega=0.0000"):
            true_spectral_density(near_unit, 0.5, 0.0)
        with pytest.raises(TransferSingularError, match="omega=0.0000"):
            truth_grid(near_unit, [0.5], [1.0, 0.0])


class TestDensitySymmetries:
    def test_negated_frequency_conjugates_and_transposes(self):
        model = far1(size=5)
        for omega in (0.3, 1.1, 2.7):
            f_pos = true_spectral_density(model, 0.4, omega)
            f_neg = true_spectral_density(model, 0.4, -omega)
            assert np.abs(f_neg - np.conj(f_pos)).max() < 1e-12
            assert np.abs(f_neg - f_pos.T).max() < 1e-12

    def test_hermitian_and_nonnegative(self):
        model = far1(size=8)
        grid = truth_grid(model, [0.3, 0.7], OMEGAS)
        vals = grid.values
        assert np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max() < 1e-12
        eigs = np.linalg.eigvalsh(vals)
        floor = -1e-10 * max(op_norm(vals[a, b]) for a in range(2) for b in range(64))
        assert eigs.min() >= floor

    def test_truth_grid_metadata(self):
        model = scalar_ar1()
        grid = truth_grid(model, [0.5], OMEGAS)
        assert grid.provenance == "truth"
        assert grid.values.shape == (1, 64, 1, 1)

    def test_grid_shape_and_provenance_are_checked(self):
        for values in (np.zeros((1, 2, 1, 1)), np.zeros((1, 1, 1, 2))):
            with pytest.raises(ValueError, match="values must have shape"):
                SpectralGrid(u=[0.5], omega=[0.0], values=values, provenance="truth")
        with pytest.raises(ValueError, match="provenance must be one of"):
            SpectralGrid(u=[0.5], omega=[0.0], values=np.zeros((1, 1, 1, 1)), provenance="raw")

    def test_truth_grid_rejects_rescaled_times_outside_the_unit_interval(self, monkeypatch):
        # the operator curves live on [0, 1]; a point outside raises before
        # any transfer operator is computed
        def fail(*args):
            raise AssertionError("transfer operator computed")

        monkeypatch.setattr(spectrum, "transfer_operator", fail)
        for us in ([0.5, 1.7], [-0.5], [np.nan]):
            with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
                truth_grid(scalar_ar1(), us, OMEGAS)

    def test_one_point_density_is_a_c_a_star_and_rejects_u_outside(self):
        # F at one point is the one-point truth grid, so it rejects the
        # rescaled times the grid rejects instead of clamping them
        model = far2(size=4)
        for u, omega in ((0.0, 0.4), (0.6, -2.0), (1.0, np.pi)):
            a = transfer_operator(model, u, omega)[0]
            want = a @ model.innovations.covariance @ np.conj(a.T)
            got = true_spectral_density(model, u, omega)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        with pytest.raises(ValueError, match=r"u must lie in \[0, 1\], got 1.2"):
            true_spectral_density(model, 1.2, 0.5)


class TestLocalAutocovariance:
    def test_constant_ar1_matches_stationary_solution(self):
        model = scalar_ar1()
        var = 1.0 / (1.0 - 0.25)
        for s in range(4):
            c = local_autocov(model, 0.5, s, T=500)
            assert c[0, 0] == pytest.approx(var * 0.5**s, abs=1e-9)

    def test_sequence_matches_single_lags(self):
        model = far1(size=3)
        seq = autocov_sequence(model, 0.5, T=200, s_max=5)
        for s in range(6):
            assert np.allclose(seq[s], local_autocov(model, 0.5, s, T=200), atol=1e-12)

    def test_fourier_pair_truncated_parseval(self):
        # finite trig polynomial: sum of squared filter norms equals
        # 2 pi times the exact Fourier-grid mean of the squared density norm
        model = far1(size=4)
        T, s_max = 256, 24
        covs = autocov_sequence(model, 0.5, T, s_max)
        grid_size = 128
        omegas = TWO_PI * np.arange(grid_size) / grid_size
        wv = wigner_ville(model, [0.5], omegas, T, s_max)
        total = sum(np.linalg.norm(covs[s]) ** 2 for s in range(1, s_max + 1)) * 2
        total += np.linalg.norm(covs[0]) ** 2
        quad = TWO_PI * np.mean([np.linalg.norm(wv.values[0, j]) ** 2 for j in range(grid_size)])
        assert quad * TWO_PI == pytest.approx(total, rel=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(16, 64),
        u=st.floats(0.0, 1.0),
        s=st.integers(-12, 12),
        lags=st.integers(0, 8),
    )
    def test_matches_per_lag_oracle(self, seed, dim, m, n, with_c, T, u, s, lags):
        # negative s and lags |d| > L (exact zeros) are both in range
        model = random_model(seed, dim, m, n, with_c)
        t1 = int(np.floor(u * T - s / 2.0))
        t2 = int(np.floor(u * T + s / 2.0))
        want = per_lag_autocov(model, t2, t1, T, lags)
        got = local_autocov(model, u, s, T, lags=lags)
        seq = autocov_sequence(model, u, T, abs(s), lags=lags)[abs(s)]
        bound = 1e-12 * np.abs(want).max()
        assert np.abs(got - want).max() <= bound
        assert np.abs((seq if s >= 0 else seq.T) - want).max() <= bound
        if abs(t2 - t1) > lags:
            assert not got.any()


class TestWignerVille:
    def test_matches_per_lag_phase_sum(self):
        model = far1(size=4)
        T, s_max = 128, 12
        us = [0.3, 0.55]
        wv = wigner_ville(model, us, OMEGAS, T, s_max)
        for a, u in enumerate(us):
            covs = autocov_sequence(model, u, T, s_max)
            acc = np.zeros((OMEGAS.size, 4, 4), dtype=complex)
            for s in range(-s_max, s_max + 1):
                cov = covs[s] if s >= 0 else covs[-s].T
                acc += np.exp(-1j * OMEGAS * s)[:, None, None] * cov
            want = acc / TWO_PI
            assert np.abs(wv.values[a] - want).max() <= 1e-12 * np.abs(want).max()

    def test_one_truncation_and_every_filter_stack_within_the_budget(self, monkeypatch):
        truncations = []
        anchors = []
        real_order, real_filters = spectrum.choose_ma_order, spectrum.ma_coefficients

        def order(*args, **kwargs):
            truncations.append(real_order(*args, **kwargs))
            return truncations[-1]

        def filters(model, ts, T, lags):
            out = real_filters(model, ts, T, lags)
            assert out.nbytes <= _FILTER_BYTES
            anchors.extend(ts.tolist())
            return out

        monkeypatch.setattr(spectrum, "choose_ma_order", order)
        monkeypatch.setattr(spectrum, "ma_coefficients", filters)
        us = [0.3, 0.5, 0.7]
        # K = 15 at L = 64 fits 8 anchors in the budget: 33 anchors per u take 5 calls
        wigner_ville(far2(size=15), us, OMEGAS, T=512, s_max=32)
        assert truncations == [64]
        # along s = 0, 1, ... every time of a u is filtered once
        want = sorted(t for u in us for t in range(int(u * 512) - 16, int(u * 512) + 17))
        assert sorted(anchors) == want

    def test_only_times_of_nonzero_lags_are_filtered(self, monkeypatch):
        model = far2(size=15)
        T, u = 4096, 0.5
        lags = choose_ma_order(model, T)
        s = np.arange(257)
        earlier = np.floor(u * T - s / 2.0).astype(int)
        later = np.floor(u * T + s / 2.0).astype(int)
        near = np.abs(later - earlier) <= lags
        wanted = set(earlier[near]) | set(later[near])
        seen = []
        real = spectrum.ma_coefficients

        def filters(model, ts, T, lags):
            seen.extend(ts.tolist())
            return real(model, ts, T, lags)

        monkeypatch.setattr(spectrum, "ma_coefficients", filters)
        covs = autocov_sequence(model, u, T, 256, lags=lags)
        assert set(seen) <= wanted
        assert not covs[~near].any()

    def test_lags_past_the_truncation_cost_little(self):
        model = far2(size=15)
        T = 4096
        lags = choose_ma_order(model, T)

        best = {64: np.inf, 256: np.inf}
        for _ in range(7):  # interleaved, so a busy spell slows both alike
            for s_max in best:
                start = time.perf_counter()
                autocov_sequence(model, 0.5, T, s_max, lags=lags)
                best[s_max] = min(best[s_max], time.perf_counter() - start)
        # the filters of s <= 65 decide both; filtering every anchor of
        # s <= 256 took four times as long
        assert best[256] <= 1.3 * best[64]

    def test_memory_does_not_grow_with_anchors_times_lags(self):
        model = far2(size=15)
        T = 4096
        lags = choose_ma_order(model, T)
        tracemalloc.start()
        try:
            wigner_ville(model, [0.25, 0.5, 0.75], OMEGAS, T, 256, lags=lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one stack of every filter the three u read took 38 MB
        assert peak <= 4e6

    def test_hermitian_by_construction(self):
        model = far1(size=4)
        wv = wigner_ville(model, [0.4], OMEGAS, T=128, s_max=16)
        vals = wv.values
        assert np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max() < 1e-12
        assert wv.provenance == "wigner_ville"

    def test_converges_to_limit_as_sample_grows(self):
        model = far1(size=5)
        us = np.array([0.35, 0.5, 0.65])
        truth = truth_grid(model, us, OMEGAS).values
        errs = {}
        for T in (2**8, 2**12):
            wv = wigner_ville(model, us, OMEGAS, T, s_max=40)
            errs[T] = np.mean(np.abs(wv.values - truth) ** 2)
        assert errs[2**12] < errs[2**8]


def dense_local_autocovs(model, u, s, T, lags):
    """Reference: every time's filters in one whole stack, no lag skipped."""
    earlier = np.floor(u * T - s / 2.0).astype(int)
    later = np.floor(u * T + s / 2.0).astype(int)
    anchors, idx = np.unique(np.concatenate([later, earlier]), return_inverse=True)
    filters = dense_ma_coefficients(model, anchors, T, lags)
    cov = model.innovations.covariance
    out = np.zeros((s.size, model.dim, model.dim))
    for p, (a, b) in enumerate(zip(idx[:s.size], idx[s.size:])):
        d = int(later[p] - earlier[p])
        n = lags + 1 - abs(d)
        if n > 0:
            la, lb = max(d, 0), max(-d, 0)
            out[p] = np.tensordot(filters[a, la:la + n] @ cov, filters[b, lb:lb + n],
                                  axes=([0, 2], [0, 2]))
    return out


class TestBoundedAutocovariances:
    """Runs of lags within ``_FILTER_BYTES`` against one whole filter stack."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 3]),
        m=st.integers(0, 2),
        n=st.integers(0, 2),
        with_c=st.booleans(),
        T=st.integers(16, 64),
        u=st.floats(0.0, 1.0),
        s_max=st.integers(0, 20),
        s=st.integers(-20, 20),
        lags=st.integers(0, 8),
        budget=st.sampled_from([1, 400, 2**20]),
    )
    # rounding at uT = 16 - 2e-15 moves both times of s = 2 at once, and s = 3
    # needs no new time: a group with nothing to filter
    @example(seed=0, dim=1, m=0, n=0, with_c=False, T=16, u=0.9999999999999999, s_max=3, s=0,
             lags=3, budget=1)
    def test_pass_equals_the_whole_stack(self, seed, dim, m, n, with_c, T, u, s_max, s, lags,
                                         budget):
        # s_max and |s| run past L, where the autocovariances are exact zeros
        model = random_model(seed, dim, m, n, with_c)
        omegas = OMEGAS[::8]
        with pytest.MonkeyPatch.context() as mp:
            filter_budget(mp, budget)
            seq = autocov_sequence(model, u, T, s_max, lags=lags)
            one = local_autocov(model, u, s, T, lags=lags)
            wv = wigner_ville(model, [u], omegas, T, s_max, lags=lags).values[0]
        want = dense_local_autocovs(model, u, np.arange(s_max + 1), T, lags)
        assert seq.tobytes() == want.tobytes()
        assert one.tobytes() == dense_local_autocovs(model, u, np.array([s]), T, lags)[0].tobytes()
        both = np.concatenate([np.swapaxes(want[:0:-1], 1, 2), want])
        phase = np.exp(-1j * np.outer(omegas, np.arange(-s_max, s_max + 1)))
        dense_wv = (phase @ both.reshape(2 * s_max + 1, dim * dim)).reshape(-1, dim, dim) / TWO_PI
        assert wv.tobytes() == dense_wv.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(0.0, 1.0),
        T=st.integers(16, 4096),
        s_max=st.integers(0, 64),
        lags=st.integers(0, 16),
        budget=st.integers(1, 2**20),
    )
    # rounding at uT = 16 - 2e-15 moves both times of s = 2 at once: a run of
    # one lag brings two new times
    @example(u=0.9999999999999999, T=16, s_max=8, lags=8, budget=1)
    def test_runs_filter_each_time_once(self, u, T, s_max, lags, budget):
        model = random_model(0, 2, 1, 1, True)
        per_call = max(1, budget // ((lags + 1) * model.dim**2 * 8))
        calls = []
        real = spectrum.ma_coefficients

        def filters(model, ts, T, lags):
            calls.append(ts.tolist())
            return real(model, ts, T, lags)

        with pytest.MonkeyPatch.context() as mp:
            filter_budget(mp, budget)
            mp.setattr(spectrum, "ma_coefficients", filters)
            autocov_sequence(model, u, T, s_max, lags=lags)
        s = np.arange(s_max + 1)
        earlier = np.floor(u * T - s / 2.0).astype(int)
        later = np.floor(u * T + s / 2.0).astype(int)
        near = np.abs(later - earlier) <= lags
        filtered = sorted(t for ts in calls for t in ts)
        assert filtered == sorted(set(earlier[near]) | set(later[near]))
        assert max(map(len, calls), default=0) <= per_call + 1
