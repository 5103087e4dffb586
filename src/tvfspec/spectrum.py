"""Exact second-order structure of time-varying functional ARMA models.

Conventions.  With B(u, omega) = I - sum_{j=1..m} e^{-i omega j} B_{u,j} and
Phi(u, omega) = I + sum_{l=1..n} e^{-i omega l} Phi_{u,l}, the transfer
operator is

    A(u, omega) = (2 pi)^{-1/2} B(u, omega)^{-1} Phi(u, omega) C_u,

so the time-varying spectral density operator is F(u, omega) =
A(u, omega) C_eps A(u, omega)* with C_eps the innovation covariance; the
factor 1/(2 pi) lives entirely in the transfer operator.  ``_symbols`` builds
B(u, omega) and Phi(u, omega) C_u from one call of ``model._curves_at``; a
model without C skips the product.  ``true_spectral_density`` is the
one-point case of ``truth_grid``, so both reject u outside [0, 1].  Local
autocovariances pair the filters of the two time points straddling uT, and
their truncated Fourier sum is the finite-T spectral density operator.  One
private pass computes them from the causal filters (``ma_coefficients``) of
the time points it needs, taking the lags in runs whose filters fit the
filter layer's byte budget ``model._FILTER_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as _model
from .funspace import adjoint, check_unit_interval
from .model import _curves_at, choose_ma_order, ma_coefficients

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


class TransferSingularError(RuntimeError):
    """AR symbol numerically singular at the requested (u, omega)."""

    def __init__(self, u, omega, cond):
        self.cond = cond
        super().__init__(
            f"AR symbol at u={u:.4f}, omega={omega:.4f} has condition number {cond:.3e}"
        )


def _symbols(model, u, omegas):
    """The AR symbol B(u, omega) and the MA symbol Phi(u, omega) C_u over the
    1-D array ``omegas``, each (len(omegas), K, K), from one evaluation of
    the curves at ``u``; without C the MA symbol is Phi(u, omega)."""
    ar, ma, c = _curves_at(model, np.array([float(u)]))
    eye = np.broadcast_to(np.eye(model.dim, dtype=complex), (omegas.size, model.dim, model.dim))
    bmat = eye.copy()
    for j, b in enumerate(ar[0], start=1):
        bmat -= np.exp(-1j * omegas * j)[:, None, None] * b
    phi = eye.copy()
    for l, p in enumerate(ma[0], start=1):
        phi += np.exp(-1j * omegas * l)[:, None, None] * p
    return bmat, phi if c is None else phi @ c[0].astype(complex)


def transfer_operator(model, u, omegas):
    """Transfer operators A(u, omega) over frequencies, shape (len(omegas), K, K).

    Raises ``TransferSingularError`` when the AR symbol's condition number
    exceeds 1e12 (or is not finite) at any of the frequencies.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    bmat, phi = _symbols(model, u, omegas)
    conds = np.linalg.cond(bmat)
    bad = np.flatnonzero(~(conds <= 1e12))
    if bad.size:
        raise TransferSingularError(u, float(omegas[bad[0]]), float(conds[bad[0]]))
    return np.linalg.solve(bmat, phi) / np.sqrt(TWO_PI)


def true_spectral_density(model, u, omega):
    """F(u, omega) = A C_eps A* at one point: the one-point ``truth_grid``."""
    return truth_grid(model, [u], [omega]).values[0, 0]


def truth_grid(model, u_grid, omega_grid):
    """Exact spectral density operators on a (u, omega) product grid."""
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    check_unit_interval(u_grid, "u")
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

    which is exactly zero for |d| > L, so only the times of pairs with
    |d| <= L are filtered.  The pairs are taken in runs of ``per_call``
    consecutive lags, ``per_call`` anchors' filters filling at most
    ``model._FILTER_BYTES``, and a run's new times are filtered in one
    ``ma_coefficients`` call; the filters of a run's last pair are kept for
    the next run, so along s = 0, 1, ... each time is filtered once.  A run
    of c lags brings at most c + 1 new times, c + 1 only where float rounding
    moves both times of a lag at once (u = 0.9999999999999999 at T = 16: d
    runs 0, 1, 3, 3, 5, ...), so a call gets at most ``per_call`` + 1 anchors
    and working memory does not grow with anchors x lags.  Each lag is one matrix product over its
    filter pair, bitwise as from one stack of all the filters.
    """
    if lags is None:
        lags = choose_ma_order(model, T)
    k = model.dim
    earlier = np.floor(u * T - s / 2.0).astype(int)
    later = np.floor(u * T + s / 2.0).astype(int)
    per_call = max(1, _model._FILTER_BYTES // ((lags + 1) * k * k * 8))
    cov = model.innovations.covariance
    out = np.zeros((s.size, k, k))
    todo = np.flatnonzero(np.abs(later - earlier) <= lags)
    held = {}  # filters by time: the last run's last pair, then this run's
    for a in range(0, todo.size, per_call):
        run = todo[a:a + per_call]
        pairs = np.stack([later[run], earlier[run]], axis=1).ravel()
        fresh = [t for t in dict.fromkeys(pairs) if t not in held]
        if fresh:
            held.update(zip(fresh, ma_coefficients(model, np.array(fresh), T, lags)))
        for p in run:
            d = int(later[p] - earlier[p])
            n = lags + 1 - abs(d)
            la, lb = max(d, 0), max(-d, 0)
            out[p] = np.tensordot(held[later[p]][la:la + n] @ cov,
                                  held[earlier[p]][lb:lb + n], axes=([0, 2], [0, 2]))
        held = {t: held[t].copy() for t in (later[run[-1]], earlier[run[-1]])}
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
        # complex from the start: the product would otherwise cast a copy
        both = np.empty((2 * s_max + 1, k, k), dtype=complex)
        both[:s_max] = np.swapaxes(covs[:0:-1], 1, 2)
        both[s_max:] = covs
        del covs
        values[a] = (phase @ both.reshape(2 * s_max + 1, k * k)).reshape(-1, k, k) / TWO_PI
        del both  # freed before the next u's filters
    return SpectralGrid(u=u_grid, omega=omega_grid, values=values, provenance="wigner_ville")
