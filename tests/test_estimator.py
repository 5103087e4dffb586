import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvfspec.estimator import (
    BoundaryError,
    _smoothed_rows,
    _smoothing_band,
    EstimatorConfig,
    TaperSpec,
    estimate_grid,
    fourier_frequencies,
    frequency_constants,
    frequency_kernel,
    induced_time_kernel,
    kernel_constants,
    local_fdft,
    local_fdft_grid,
    local_periodogram,
    local_periodogram_grid,
    wrap_frequency,
)
from tvfspec.model import InnovationSpec, TvFarmaModel, simulate
from tvfspec.spectrum import TWO_PI

from test_model import simulated_rows


def white(sigma=1.0, dim=1):
    return TvFarmaModel(innovations=InnovationSpec(np.full(dim, sigma)))


class TestTapers:
    def test_flat(self):
        h = TaperSpec(name="flat")
        assert np.array_equal(h.values([0.0, 0.3, 1.0]), [1.0, 1.0, 1.0])
        assert np.array_equal(h.values([-0.1, 1.1]), [0.0, 0.0])

    def test_cosine_flat_plateau_and_rise(self):
        h = TaperSpec(name="cosine_flat", rho=0.2)
        assert h.values(0.5) == 1.0
        assert h.values(0.2) == 1.0
        assert h.values(0.0) == 0.0
        assert h.values(0.1) == pytest.approx(0.5, abs=1e-12)

    def test_sqrt_epanechnikov_values(self):
        h = TaperSpec(name="sqrt_epanechnikov")
        assert h.values(0.5) == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert h.values(0.0) == 0.0
        assert h.values(1.0) == 0.0

    def test_symmetry_about_midpoint(self):
        x = np.linspace(0.0, 0.5, 41)
        for name in ("flat", "cosine_flat", "sqrt_epanechnikov"):
            h = TaperSpec(name=name)
            assert np.allclose(h.values(x), h.values(1.0 - x), atol=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown taper"):
            TaperSpec(name="hann")
        with pytest.raises(ValueError, match="rise fraction"):
            TaperSpec(name="cosine_flat", rho=0.7)

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5])
    def test_cosine_flat_breakpoints_are_the_sorted_distinct_ends(self, rho):
        breaks = TaperSpec(name="cosine_flat", rho=rho).breakpoints()
        want = np.unique([0.0, rho, 1.0 - rho, 1.0])
        assert breaks.dtype == want.dtype and breaks.tobytes() == want.tobytes()

    def test_induced_kernel_of_sqrt_epanechnikov(self):
        kernel = induced_time_kernel(TaperSpec(name="sqrt_epanechnikov"))
        x = np.linspace(-0.5, 0.5, 101)
        assert np.allclose(kernel(x), 6.0 * (0.25 - x * x), atol=1e-9)


class TestKernelConstants:
    def test_epanechnikov_moments(self):
        c = frequency_constants()
        assert c.mass == pytest.approx(1.0, abs=1e-10)
        assert c.mean == pytest.approx(0.0, abs=1e-12)
        assert c.kappa == pytest.approx(1.0 / 20.0, abs=1e-10)
        assert c.l2 == pytest.approx(6.0 / 5.0, abs=1e-10)

    def test_flat_taper_moments(self):
        c = kernel_constants(TaperSpec(name="flat"))
        assert c.kappa == pytest.approx(1.0 / 12.0, abs=1e-13)
        assert c.l2 == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5])
    def test_cosine_flat_mass_and_mean(self, rho):
        c = kernel_constants(TaperSpec(name="cosine_flat", rho=rho))
        assert c.mass == pytest.approx(1.0, abs=1e-13)
        assert c.mean == pytest.approx(0.0, abs=1e-13)


class TestFrequencyGrids:
    def test_fourier_frequencies(self):
        f = fourier_frequencies(8)
        assert np.allclose(f, TWO_PI * np.arange(-4, 4) / 8, atol=1e-15)
        assert f[0] == -np.pi
        assert f[-1] < np.pi

    def test_wrap_frequency(self):
        assert wrap_frequency(np.pi) == pytest.approx(-np.pi)
        assert wrap_frequency(TWO_PI + 0.3) == pytest.approx(0.3, abs=1e-12)
        assert wrap_frequency(-np.pi - 0.1) == pytest.approx(np.pi - 0.1, abs=1e-12)


class TestDefaultBandwidths:
    """``EstimatorConfig.auto``: the reference rates for a sample size."""

    def test_reference_values(self):
        cfg = EstimatorConfig.auto(4096)
        assert cfg.N == 1024
        assert cfg.b_t(4096) == pytest.approx(0.25)
        assert cfg.b_f == pytest.approx(2.0 * 4096.0 ** (-0.2) - 0.25, abs=1e-12)
        assert EstimatorConfig.auto(512).N == 182

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            EstimatorConfig.auto(4)

    def test_variance_scale_grows(self):
        cfgs = {T: EstimatorConfig.auto(T) for T in (2**9, 2**12, 2**16)}
        scale = [cfg.b_t(T) * cfg.b_f * T for T, cfg in cfgs.items()]
        assert scale[0] < scale[1] < scale[2]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="even"):
            EstimatorConfig(N=7, b_f=0.3)
        for b_f in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                EstimatorConfig(N=8, b_f=b_f)
        cfg = EstimatorConfig.auto(512)
        assert cfg.N == 182
        lo, hi = cfg.valid_band(512)
        assert lo == pytest.approx(182.0 / 1024.0)
        assert hi == pytest.approx(1.0 - 182.0 / 1024.0)


class TestLocalFdft:
    def test_flat_taper_cosine_line(self):
        T, n = 256, 64
        cfg = EstimatorConfig(N=n, b_f=0.3, taper=TaperSpec(name="flat"))
        m = 8
        omega0 = TWO_PI * m / n
        t = np.arange(1, T + 1)
        x = np.cos(omega0 * t)[:, None]
        d = local_fdft(x, 0.5, omega0, cfg, T)
        start = T // 2 - n // 2 + 1
        expected = 0.5 * n * np.exp(1j * omega0 * start)
        assert abs(d[0] - expected) < 1e-8 * n

    def test_grid_matches_single_frequency_calls(self):
        rng = np.random.default_rng(7)
        T, n = 128, 32
        x = rng.standard_normal((T, 3))
        cfg = EstimatorConfig(N=n, b_f=0.4)
        grid = local_fdft_grid(x, 0.5, cfg, T)
        for j in (0, 5, 17, 31):
            single = local_fdft(x, 0.5, fourier_frequencies(n)[j], cfg, T)
            assert np.abs(grid[j] - single).max() < 1e-9

    def test_boundary_error_names_band(self):
        cfg = EstimatorConfig(N=64, b_f=0.3)
        x = np.zeros((256, 1))
        with pytest.raises(BoundaryError, match="valid band"):
            local_fdft(x, 0.01, 0.0, cfg, 256)
        # just inside the band is fine
        local_fdft(x, 64.0 / 512.0, 0.0, cfg, 256)

    def test_boundary_error_names_the_window_band(self):
        # a window [t0, t_end] wider than [1, T] has its own band, [0, 1] here
        cfg = EstimatorConfig(N=64, b_f=0.3)
        x = np.zeros((320, 1))
        assert cfg.valid_band(256, -31, 288) == (0.0, 1.0)
        assert cfg.segment(256, 1.0, -31, 288) == (225, 288)
        local_fdft(x, 1.0, 0.0, cfg, 256, t0=-31)
        with pytest.raises(BoundaryError, match=r"observations \[-31, 288\].*"
                           r"u in \[0\.000000, 1\.000000\]"):
            local_fdft(x, 1.01, 0.0, cfg, 256, t0=-31)

    def test_both_ends_of_the_valid_band_are_accepted_at_every_T(self):
        for T in range(8, 20001):
            cfg = EstimatorConfig.auto(T)
            half = cfg.N // 2
            lo, hi = cfg.valid_band(T)
            assert cfg.segment(T, lo) == (1, cfg.N)
            assert cfg.segment(T, hi)[1] in (T - 1, T)
            # half a step outside the first and the last accepted anchor
            for u in ((half - 0.5) / T, (T - half + 1.5) / T):
                with pytest.raises(BoundaryError):
                    cfg.segment(T, u)


class TestPeriodogram:
    def test_rank_one_psd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((128, 4))
        cfg = EstimatorConfig(N=32, b_f=0.4)
        per = local_periodogram(x, 0.5, 0.7, cfg, 128)
        assert np.abs(per - per.conj().T).max() < 1e-12
        eigs = np.linalg.eigvalsh(per)
        assert eigs.min() > -1e-12
        assert np.sum(eigs > 1e-10) == 1

    def test_mean_matches_white_noise_density(self):
        model = white()
        T = n = 64
        cfg = EstimatorConfig(N=n, b_f=0.4, taper=TaperSpec(name="flat"))
        reps = 3000
        vals = np.empty(reps)
        for r in range(reps):
            x = simulated_rows(model, T, [r], 1, 1, T)[0]
            vals[r] = local_periodogram(x, 0.5, np.pi / 2.0, cfg, T)[0, 0].real
        target = 1.0 / TWO_PI
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - target) < 3.0 * se + 1e-12

    def test_variance_does_not_shrink_with_sample_size(self):
        # fixed segment length: more data does not help the raw periodogram
        model = white()
        cfg = EstimatorConfig(N=64, b_f=0.4)
        out = {}
        for T in (256, 1024):
            vals = [
                local_periodogram(simulated_rows(model, T, [r], 1, 1, T)[0], 0.5, np.pi / 2.0,
                                  cfg, T)[0, 0].real
                for r in range(600)
            ]
            out[T] = np.var(vals, ddof=1)
        ratio = out[1024] / out[256]
        assert 0.5 < ratio < 2.0


def weight_loop_estimate(x, cfg, T, u, omegas):
    """Reference smoother: one explicit normalized weight sum per frequency."""
    per = local_periodogram_grid(x, u, cfg, T)
    grid = fourier_frequencies(cfg.N)
    out = []
    for omega in omegas:
        w = frequency_kernel(wrap_frequency(omega - grid) / cfg.b_f)
        out.append(sum(wn * pn for wn, pn in zip(w / w.sum(), per)))
    return np.array(out)


def dense_estimate(x, cfg, T, u, omegas, t0=1):
    """Reference smoother: dense weight matrix over all N periodogram operators."""
    per = local_periodogram_grid(x, u, cfg, T, t0=t0)
    w = frequency_kernel(
        wrap_frequency(np.asarray(omegas)[:, None] - fourier_frequencies(cfg.N)) / cfg.b_f
    )
    w /= w.sum(axis=1, keepdims=True)
    return np.einsum("bn,nij->bij", w, per)


def segments(xs, cfg, T, u, t0=1):
    """The (R, N, K) segments for u of the series ``xs``, whose first row is at ``t0``."""
    start, stop = cfg.segment(T, u, t0, t0 + xs.shape[1] - 1)
    return xs[:, start - t0:stop - t0 + 1]


class TestSmoothing:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.sampled_from([1, 3]),
        n=st.sampled_from([16, 32, 64]),
        b_f=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**16),
        us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        fourier_idx=st.lists(st.integers(0, 63), min_size=1, max_size=4),
        off_grid=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), max_size=4),
        default_grid=st.booleans(),
    )
    def test_matches_per_frequency_weight_loop(self, k, n, b_f, seed, us, fourier_idx,
                                               off_grid, default_grid):
        T = 4 * n
        x = np.random.default_rng(seed).standard_normal((T, k))
        cfg = EstimatorConfig(N=n, b_f=b_f)
        lo, hi = cfg.valid_band(T)
        us = [lo + (hi - lo) * v for v in us]
        if default_grid:
            omegas = None
            expected_omegas = fourier_frequencies(n)
        else:
            omegas = [fourier_frequencies(n)[j % n] for j in fourier_idx] + off_grid
            expected_omegas = omegas
        est = estimate_grid(x, cfg, T, us, omegas)
        assert np.array_equal(est.omega, expected_omegas)
        for vals, u in zip(est.values, us):
            ref = weight_loop_estimate(x, cfg, T, u, expected_omegas)
            scale = np.abs(ref).max()
            assert np.abs(vals - ref).max() <= 1e-12 * scale
            assert np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max() <= 1e-12 * scale
            assert np.linalg.eigvalsh(vals).min() >= -1e-10 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(2, 4),
        k=st.sampled_from([1, 3]),
        n=st.sampled_from([16, 32, 64]),
        b_f=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**16),
        t0=st.integers(-40, 40),
        u=st.floats(0.0, 1.0),
        fourier_idx=st.lists(st.integers(0, 63), max_size=4),
        off_grid=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), min_size=1, max_size=4),
    )
    def test_banded_rows_match_dense_oracle(self, rows, k, n, b_f, seed, t0, u, fourier_idx,
                                            off_grid):
        T = 4 * n
        xs = np.random.default_rng(seed).standard_normal((rows, T, k))
        cfg = EstimatorConfig(N=n, b_f=b_f)
        # the window starts at t0, so the valid band is shifted by (t0 - 1) / T
        lo, hi = (t0 - 1 + n / 2) / T, (t0 - 1 + T - n / 2) / T
        u = lo + (hi - lo) * u
        omegas = ([fourier_frequencies(n)[j % n] for j in fourier_idx] + off_grid
                  + [np.pi - 1e-3, -np.pi])
        est = _smoothed_rows(segments(xs, cfg, T, u, t0), cfg,
                             _smoothing_band(cfg, np.array(omegas)))
        assert est.shape == (rows, len(omegas), k, k)
        for vals, x in zip(est, xs):
            ref = dense_estimate(x, cfg, T, u, omegas, t0)
            assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()
            single = estimate_grid(x, cfg, T, [u], omegas, t0=t0).values[0]
            assert np.array_equal(vals, single)

    def test_band_supports_vary_and_wrap_across_pi(self):
        cfg = EstimatorConfig(N=32, b_f=0.9)
        grid = fourier_frequencies(32)
        omegas = np.array([grid[5], 0.5 * (grid[5] + grid[6]), np.pi - 0.01, -np.pi])
        index, weights = _smoothing_band(cfg, omegas)
        support = [set(index[b][weights[b] > 0].tolist()) for b in range(len(omegas))]
        assert len({len(sup) for sup in support}) > 1
        # unshifted bins: 16 is -pi, 15 is the last bin below +pi
        assert {15, 16} <= support[2] and {15, 16} <= support[3]
        assert np.allclose(weights.sum(axis=1), 1.0)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((3, 128, 2))
        est = _smoothed_rows(segments(xs, cfg, 128, 0.5), cfg, (index, weights))
        for vals, x in zip(est, xs):
            ref = dense_estimate(x, cfg, 128, 0.5, omegas)
            assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_rows_reject_out_of_band_u(self):
        cfg = EstimatorConfig(N=32, b_f=0.9)
        xs = np.zeros((3, 128, 2))
        lo, hi = cfg.valid_band(128)
        band = _smoothing_band(cfg, np.array([0.0]))
        with pytest.raises(BoundaryError, match="valid band"):
            _smoothed_rows(segments(xs, cfg, 128, lo - 0.01), cfg, band)
        with pytest.raises(BoundaryError, match="valid band"):
            _smoothed_rows(segments(xs, cfg, 128, hi + 0.01), cfg, band)

    def test_explicit_weights_match_convolution_path(self):
        rng = np.random.default_rng(11)
        T = 512
        x = rng.standard_normal((T, 2))
        cfg = EstimatorConfig(N=128, b_f=0.5)
        fourier = estimate_grid(x, cfg, T, [0.5]).values[0]
        explicit = estimate_grid(x, cfg, T, [0.5], omega_grid=fourier_frequencies(cfg.N)).values[0]
        assert np.abs(fourier - explicit).max() < 1e-10

    def test_single_point_matches_grid(self):
        rng = np.random.default_rng(13)
        T = 256
        x = rng.standard_normal((T, 2))
        cfg = EstimatorConfig(N=64, b_f=0.5)
        omega = fourier_frequencies(cfg.N)[20]
        single = estimate_grid(x, cfg, T, [0.5], omega_grid=[omega]).values[0, 0]
        grid = estimate_grid(x, cfg, T, [0.5]).values[0, 20]
        assert np.abs(single - grid).max() < 1e-10

    def test_series_must_be_two_dimensional(self):
        cfg = EstimatorConfig(N=32, b_f=0.5)
        with pytest.raises(ValueError, match="2-d array"):
            estimate_grid(np.zeros(128), cfg, 128, [0.5])

    def test_provenance_labels(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((128, 1))
        cfg = EstimatorConfig(N=32, b_f=0.5)
        assert estimate_grid(x, cfg, 128, [0.5]).provenance == "smoothed"

    def test_degenerate_bandwidth_warns_then_fails_off_grid(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((128, 1))
        cfg = EstimatorConfig(N=32, b_f=1e-6)
        off_grid = 0.5 * (fourier_frequencies(32)[3] + fourier_frequencies(32)[4])
        with pytest.warns(UserWarning, match="does not exceed the Fourier"):
            with pytest.raises(ValueError, match="no Fourier frequency"):
                estimate_grid(x, cfg, 128, [0.5], omega_grid=[off_grid])

    def test_smoothed_estimate_is_hermitian_psd(self):
        model = white(dim=3)
        T = 512
        x = simulate(model, T, seed=5)
        cfg = EstimatorConfig.auto(T)
        est = estimate_grid(x, cfg, T, [0.5]).values[0]
        assert np.abs(est - np.conj(np.swapaxes(est, -1, -2))).max() < 1e-10
        assert np.linalg.eigvalsh(est).min() > -1e-10
