import numpy as np
import pytest

from tvfspec.funspace import hs_norm, op_norm
from tvfspec.model import InnovationSpec, OperatorCurve, TvFarmaModel, far1
from tvfspec.spectrum import (
    TWO_PI,
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
        near = grid.at(0.49, OMEGAS[3] + 0.01)
        assert np.array_equal(near, grid.values[0, 3])


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
        total = sum(hs_norm(covs[s]) ** 2 for s in range(1, s_max + 1)) * 2
        total += hs_norm(covs[0]) ** 2
        quad = TWO_PI * np.mean([hs_norm(wv.values[0, j]) ** 2 for j in range(grid_size)])
        assert quad * TWO_PI == pytest.approx(total, rel=1e-10)


class TestWignerVille:
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
