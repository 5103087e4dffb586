"""Real Fourier basis on [0, 1] and operator algebra on its coefficients.

A function f in the model space is stored as its coefficient vector against
the orthonormal system psi_1 = 1, psi_{2l} = sqrt(2) cos(2 pi l tau),
psi_{2l+1} = sqrt(2) sin(2 pi l tau).  An operator is a K x K complex matrix
M acting on coefficient vectors; its integral kernel is
a(tau, sigma) = sum_{ij} M_ij psi_i(tau) conj(psi_j(sigma)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BasisSpec:
    """Finite real Fourier basis on [0, 1].

    Parameters
    ----------
    size : int
        Number of basis functions K (>= 1).  Columns are ordered
        1, cos, sin, cos, sin, ... with increasing integer frequency.
    """

    size: int = 15

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("basis size must be >= 1")

    def evaluate(self, tau):
        """Evaluate all basis functions at points ``tau``.

        Parameters
        ----------
        tau : array_like
            Points in [0, 1].

        Returns
        -------
        ndarray, shape (len(tau), K)
        """
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        check_unit_interval(tau, "tau")
        out = np.empty((tau.size, self.size))
        out[:, 0] = 1.0
        for col in range(1, self.size):
            freq = (col + 1) // 2
            phase = 2.0 * np.pi * freq * tau
            if col % 2 == 1:
                out[:, col] = np.sqrt(2.0) * np.cos(phase)
            else:
                out[:, col] = np.sqrt(2.0) * np.sin(phase)
        return out


def check_unit_interval(x, name):
    """Raise ``ValueError`` unless every point of ``x`` (a number or an array) lies in [0, 1]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    outside = x[~((x >= 0.0) & (x <= 1.0))]
    if outside.size:
        raise ValueError(f"{name} must lie in [0, 1], got {float(outside[0])}")


def adjoint(mat):
    """Adjoint (conjugate transpose) of an operator matrix."""
    return np.conj(np.swapaxes(mat, -1, -2))


def op_norm(mat):
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(mat, 2))


def kernel_grid(mat, basis, taus, sigmas):
    """Integral kernel of ``mat`` on a product grid.

    A stack of operators, shape (..., K, K), renders in one call.

    Returns
    -------
    ndarray, shape (..., len(taus), len(sigmas)), complex
        Values a(tau_i, sigma_j).
    """
    pt = basis.evaluate(taus)
    ps = basis.evaluate(sigmas)
    return pt @ mat @ np.conj(ps).T
