"""Exact second-order structure of time-varying functional ARMA models.

Conventions.  With B(u, omega) = I - sum_{j=1..m} e^{-i omega j} B_{u,j} and
Phi(u, omega) = I + sum_{l=1..n} e^{-i omega l} Phi_{u,l}, the transfer
operator is

    A(u, omega) = (2 pi)^{-1/2} B(u, omega)^{-1} Phi(u, omega) C_u,

so the time-varying spectral density operator is F(u, omega) =
A(u, omega) C_eps A(u, omega)* with C_eps the innovation covariance; the
factor 1/(2 pi) lives entirely in the transfer operator.  Local
autocovariances pair the filters of the two time points straddling uT, and
their truncated Fourier sum is the finite-T spectral density operator.  One
private pass computes them: the causal filters of every time point it needs
come from a single call of ``ma_coefficients`` batched over anchor times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .funspace import adjoint
from .model import choose_ma_order, ma_coefficients

PROVENANCES = ("truth", "wigner_ville", "smoothed")

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class SpectralGrid:
    """Operator values on a (u, omega) product grid.

    values[a, b] is the K x K coefficient matrix at (u[a], omega[b]);
    provenance records which pipeline stage produced it.
    """

    u: np.ndarray
    omega: np.ndarray
    values: np.ndarray
    provenance: str

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        values = np.asarray(self.values, dtype=complex)
        if values.shape[:2] != (u.size, omega.size) or values.shape[2] != values.shape[3]:
            raise ValueError("values must have shape (len(u), len(omega), K, K)")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)

    @property
    def dim(self):
        return self.values.shape[-1]

    def at(self, u, omega):
        a = int(np.argmin(np.abs(self.u - u)))
        b = int(np.argmin(np.abs(self.omega - omega)))
        return self.values[a, b]


class TransferSingularError(RuntimeError):
    """AR symbol numerically singular at the requested (u, omega)."""

    def __init__(self, u, omega, cond):
        self.cond = cond
        super().__init__(
            f"AR symbol at u={u:.4f}, omega={omega:.4f} has condition number {cond:.3e}"
        )


def _ar_symbol(model, u, omegas):
    """B(u, omega) stacked over omegas, shape (len(omegas), K, K)."""
    k = model.dim
    omegas = np.asarray(omegas, dtype=float)
    bmat = np.broadcast_to(np.eye(k, dtype=complex), (omegas.size, k, k)).copy()
    for j, curve in enumerate(model.ar, start=1):
        bmat -= np.exp(-1j * omegas * j)[:, None, None] * curve(u)
    return bmat


def _ma_symbol(model, u, omegas):
    """Phi(u, omega) C_u stacked over omegas."""
    k = model.dim
    omegas = np.asarray(omegas, dtype=float)
    phi = np.broadcast_to(np.eye(k, dtype=complex), (omegas.size, k, k)).copy()
    for l, curve in enumerate(model.ma, start=1):
        phi += np.exp(-1j * omegas * l)[:, None, None] * curve(u)
    return phi @ model.c_at(u).astype(complex)


def transfer_operator(model, u, omegas):
    """Transfer operators A(u, omega) over frequencies, shape (len(omegas), K, K).

    Raises ``TransferSingularError`` when the AR symbol's condition number
    exceeds 1e12 (or is not finite) at any of the frequencies.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    bmat = _ar_symbol(model, u, omegas)
    conds = np.linalg.cond(bmat)
    bad = np.flatnonzero(~(conds <= 1e12))
    if bad.size:
        raise TransferSingularError(u, float(omegas[bad[0]]), float(conds[bad[0]]))
    return np.linalg.solve(bmat, _ma_symbol(model, u, omegas)) / np.sqrt(TWO_PI)


def true_spectral_density(model, u, omega):
    """Exact spectral density operator F(u, omega) = A C_eps A*."""
    a = transfer_operator(model, u, omega)[0]
    return a @ model.innovations.covariance @ adjoint(a)


def truth_grid(model, u_grid, omega_grid):
    """Exact spectral density operators on a (u, omega) product grid."""
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    k = model.dim
    cov = model.innovations.covariance.astype(complex)
    values = np.empty((u_grid.size, omega_grid.size, k, k), dtype=complex)
    for a, u in enumerate(u_grid):
        amp = transfer_operator(model, u, omega_grid)
        values[a] = amp @ cov @ adjoint(amp)
    return SpectralGrid(u=u_grid, omega=omega_grid, values=values, provenance="truth")


def local_autocov(model, u, s, T, lags=None):
    """Local autocovariance operator pairing the times straddling uT.

    cov(X_{t2,T}, X_{t1,T}) with t1 = floor(uT - s/2), t2 = floor(uT + s/2);
    the later time comes first, so in the stationary limit this is C_s with
    C_s = B^s C_0 for an AR(1).  Negative s gives the transpose of lag -s.

    Parameters
    ----------
    lags : int, optional
        Filter truncation order L; chosen by ``choose_ma_order`` when omitted.
    """
    return _local_autocovs(model, u, np.array([s]), T, lags)[0]


def autocov_sequence(model, u, T, s_max, lags=None):
    """Local autocovariances for s = 0, ..., s_max, shape (s_max + 1, K, K)."""
    return _local_autocovs(model, u, np.arange(s_max + 1), T, lags)


def _local_autocovs(model, u, s, T, lags):
    """The one autocovariance pass: local autocovariances at lags ``s`` around uT.

    Each lag pairs a later time t2 = floor(uT + s/2) with an earlier time
    t1 = floor(uT - s/2), d = t2 - t1, through the filters truncated at L:

        sum_l A_{t2,T}(l) C_eps A_{t1,T}(l - d)',  0 <= l, l - d <= L,

    which is exactly zero for |d| > L.  The filters of all distinct times
    come from one batched ``ma_coefficients`` call, and each lag is one
    matrix product over the stacked filter pairs.
    """
    if lags is None:
        lags = choose_ma_order(model, T)
    earlier = np.floor(u * T - s / 2.0).astype(int)
    later = np.floor(u * T + s / 2.0).astype(int)
    anchors, idx = np.unique(np.concatenate([later, earlier]), return_inverse=True)
    filters = ma_coefficients(model, anchors, T, lags)[0]
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


def wigner_ville(model, u_grid, omega_grid, T, s_max, lags=None):
    """Finite-T spectral density operator from truncated autocovariances.

    (2 pi)^{-1} sum_{|s| <= s_max} C_{u,s} e^{-i omega s}, one phase-matrix
    product per u; the negative lags enter through C_{u,-s} = C_{u,s}'.  The
    truncation L is chosen once for all u.
    """
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if lags is None:
        lags = choose_ma_order(model, T)
    k = model.dim
    phase = np.exp(-1j * np.outer(omega_grid, np.arange(-s_max, s_max + 1)))
    values = np.empty((u_grid.size, omega_grid.size, k, k), dtype=complex)
    for a, u in enumerate(u_grid):
        covs = autocov_sequence(model, u, T, s_max, lags=lags)
        both = np.concatenate([np.swapaxes(covs[:0:-1], 1, 2), covs])
        values[a] = (phase @ both.reshape(2 * s_max + 1, k * k)).reshape(-1, k, k) / TWO_PI
    return SpectralGrid(u=u_grid, omega=omega_grid, values=values, provenance="wigner_ville")
