import numpy as np
import pytest

from tvfspec.funspace import BasisSpec, adjoint, kernel_grid, op_norm


def trap_grid(n):
    return np.linspace(0.0, 1.0, n)


def test_basis_columns():
    basis = BasisSpec(size=5)
    tau = trap_grid(17)
    vals = basis.evaluate(tau)
    assert vals.shape == (17, 5)
    assert np.allclose(vals[:, 0], 1.0)
    assert np.allclose(vals[:, 1], np.sqrt(2) * np.cos(2 * np.pi * tau))
    assert np.allclose(vals[:, 2], np.sqrt(2) * np.sin(2 * np.pi * tau))
    assert np.allclose(vals[:, 3], np.sqrt(2) * np.cos(4 * np.pi * tau))
    assert np.allclose(vals[:, 4], np.sqrt(2) * np.sin(4 * np.pi * tau))


def test_basis_orthonormal_under_quadrature():
    basis = BasisSpec(size=15)
    tau = trap_grid(4097)
    vals = basis.evaluate(tau)
    gram = np.trapezoid(vals[:, :, None] * vals[:, None, :], tau, axis=0)
    assert np.abs(gram - np.eye(15)).max() < 1e-8


def test_basis_size_validation():
    with pytest.raises(ValueError):
        BasisSpec(size=0)


def test_kernel_grid_rejects_points_outside_unit_interval():
    basis = BasisSpec(size=3)
    mat = np.eye(3)
    with pytest.raises(ValueError):
        kernel_grid(mat, basis, [1.2], [0.5])
    with pytest.raises(ValueError):
        kernel_grid(mat, basis, [0.5], [-0.1])


def test_adjoint_involution_and_inner_symmetry():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.array_equal(adjoint(adjoint(a)), a)
    # Hilbert-Schmidt inner product trace(a b*) is conjugate symmetric
    assert np.isclose(np.trace(a @ adjoint(b)), np.conj(np.trace(b @ adjoint(a))))
    assert np.isclose(np.linalg.norm(a) ** 2, np.trace(a @ adjoint(a)).real)


def test_schatten_norm_ordering():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert op_norm(a) <= np.linalg.norm(a) + 1e-12
        assert np.linalg.norm(a) <= np.linalg.norm(a, "nuc") + 1e-12


def test_operator_composition_matches_kernel_composition():
    # a c b* has kernel int int a(tau, x) c(x, y) conj(b(sigma, y)) dx dy;
    # basis size 3 keeps the integrands band-limited, so trapezoid on a
    # moderate grid is exact to rounding.
    basis = BasisSpec(size=3)
    rng = np.random.default_rng(19)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    grid = trap_grid(257)
    taus = np.array([0.15, 0.5, 0.85])
    sigmas = np.array([0.25, 0.7])
    ka = kernel_grid(a, basis, taus, grid)
    kb = kernel_grid(b, basis, sigmas, grid)
    kc = kernel_grid(c, basis, grid, grid)
    inner = np.trapezoid(kc[None, :, :] * np.conj(kb)[:, None, :], grid, axis=2)
    expected = np.trapezoid(ka[:, None, :] * inner[None, :, :], grid, axis=2)
    direct = kernel_grid(a @ c @ adjoint(b), basis, taus, sigmas)
    assert np.abs(direct - expected).max() < 1e-8


def kernel_at(mat, tau, sigma):
    """Oracle: sum_ij M_ij psi_i(tau) psi_j(sigma) with the basis written out."""

    def psi(i, x):
        if i == 0:
            return 1.0
        phase = 2.0 * np.pi * ((i + 1) // 2) * x
        return np.sqrt(2.0) * (np.cos(phase) if i % 2 == 1 else np.sin(phase))

    k = mat.shape[0]
    return sum(mat[i, j] * psi(i, tau) * psi(j, sigma) for i in range(k) for j in range(k))


def test_kernel_grid_matches_pointwise_eval():
    basis = BasisSpec(size=4)
    rng = np.random.default_rng(23)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    taus = np.array([0.1, 0.6])
    sigmas = np.array([0.3, 0.9])
    grid = kernel_grid(mat, basis, taus, sigmas)
    for i, tau in enumerate(taus):
        for j, sigma in enumerate(sigmas):
            assert np.isclose(grid[i, j], kernel_at(mat, tau, sigma))
