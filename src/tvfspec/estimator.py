"""Tapered segmented spectral estimation on the rescaled time axis.

For a series observed at t = 1..T the local functional DFT at rescaled time
u uses the N observations centred at floor(uT),

    D(u, omega) = sum_{s=0..N-1} h(s/N) X_{floor(uT) - N/2 + s + 1} e^{-i omega s},

the periodogram operator is the normalized rank-one tensor
D (x) D / (2 pi H_{2,N}(0)) with H_{k,N}(omega) = sum_s h(s/N)^k e^{-i omega s},
and the estimate at any frequency omega_b is one weight sum over the N
Fourier frequencies omega_n,

    Fhat(u, omega_b) = sum_n W[b, n] I_N(u, omega_n),
    W[b, n] = K_f(wrap(omega_b - omega_n) / b_f) / sum_m K_f(wrap(omega_b - omega_m) / b_f),

with frequency distances wrapped into [-pi, pi).  W[b, .] is zero outside
the kernel support, so the sum runs only over the ~b_f N / 2 pi Fourier
frequencies inside it, taken straight from the DFTs as
sum_n W[b, n] D_n D_n^H / (2 pi H_2): the N periodogram operators are
never formed.  One private smoother does this for a stack of R segments at
once; ``estimate_grid`` is its single-series case.  The taper implicitly
smooths over time with kernel K_t(x) = h(x + 1/2)^2 / int h^2 and bandwidth
b_t = N / T.  K_f is ``frequency_kernel``, Epanechnikov on [-1/2, 1/2], so
b_f alone sets the smoothing support [-b_f/2, b_f/2].

``EstimatorConfig.segment`` places every segment: the N times centred at
floor(uT), which must lie inside the observations (default [1, T]), or
``BoundaryError`` rather than padding.  The smoother takes the segments.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .spectrum import SpectralGrid, TWO_PI


@dataclass(frozen=True)
class TaperSpec:
    """Data taper h on [0, 1], symmetric about 1/2.

    Built-ins: ``flat`` (h = 1), ``cosine_flat`` (raised-cosine rise and fall
    over a fraction ``rho`` of the support, flat between), and
    ``sqrt_epanechnikov`` (h(x) = sqrt(6 x (1 - x)), whose induced time
    kernel is exactly the Epanechnikov kernel 6(1/4 - x^2)).
    """

    name: str = "cosine_flat"
    rho: float = 0.1

    def __post_init__(self):
        if self.name not in ("flat", "cosine_flat", "sqrt_epanechnikov"):
            raise ValueError(f"unknown taper {self.name!r}")
        if self.name == "cosine_flat" and not 0.0 < self.rho <= 0.5:
            raise ValueError("cosine_flat rise fraction must be in (0, 1/2]")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= 1.0)
        if self.name == "flat":
            return np.where(inside, 1.0, 0.0)
        if self.name == "sqrt_epanechnikov":
            return np.where(inside, np.sqrt(np.clip(6.0 * x * (1.0 - x), 0.0, None)), 0.0)
        rho = self.rho
        edge = np.minimum(x, 1.0 - x)
        rise = 0.5 * (1.0 - np.cos(np.pi * edge / rho))
        return np.where(inside, np.where(edge < rho, rise, 1.0), 0.0)

    def breakpoints(self):
        """Ends of the pieces of [0, 1] on which h is smooth."""
        if self.name == "cosine_flat":
            # the sorted distinct ends, 1/2 once at rho = 1/2 (np.unique would import numpy.ma)
            return np.array(sorted({0.0, self.rho, 1.0 - self.rho, 1.0}), dtype=float)
        return np.array([0.0, 1.0])


def frequency_kernel(x):
    """K_f of every estimate and limit, the Epanechnikov kernel 6 (1/4 - x^2) on
    [-1/2, 1/2]: unit mass, second moment 1/20, squared L2 norm 6/5."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 0.5, 6.0 * (0.25 - x * x), 0.0)


@dataclass(frozen=True)
class KernelConstants:
    """Moments of a smoothing kernel: mass, mean, kappa = second moment, L2^2."""

    mass: float
    mean: float
    kappa: float
    l2: float


def _quadrature(breaks):
    """Gauss-Legendre nodes and weights over [breaks[0], breaks[-1]].

    A fixed 64-point rule on each piece between consecutive breaks, so
    integrands smooth on every piece converge to rounding level.
    """
    breaks = np.asarray(breaks, dtype=float)
    t, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * np.diff(breaks)[:, None]
    return (breaks[:-1, None] + half * (t + 1.0)).ravel(), (half * w).ravel()


def induced_time_kernel(taper):
    """Time-direction kernel K_t(x) = h(x + 1/2)^2 / int h^2 on [-1/2, 1/2]."""
    x, w = _quadrature(taper.breakpoints())
    h2_mass = float(w @ taper.values(x) ** 2)

    def kernel(x):
        return taper.values(np.asarray(x) + 0.5) ** 2 / h2_mass

    return kernel


def _moments(kernel, breaks):
    """``KernelConstants`` of ``kernel`` over [breaks[0], breaks[-1]] by ``_quadrature``."""
    x, w = _quadrature(breaks)
    f = kernel(x)
    return KernelConstants(
        mass=float(w @ f), mean=float(w @ (x * f)),
        kappa=float(w @ (x * x * f)), l2=float(w @ (f * f)),
    )


def kernel_constants(taper):
    """Moments of the time kernel K_t that the TaperSpec ``taper`` induces."""
    return _moments(induced_time_kernel(taper), taper.breakpoints() - 0.5)


@functools.cache  # on first use: the quadrature imports numpy.polynomial
def frequency_constants():
    """Moments of the frequency kernel K_f (``frequency_kernel``)."""
    return _moments(frequency_kernel, [-0.5, 0.5])


def fourier_frequencies(count):
    """The ``count`` Fourier frequencies 2 pi j / count, j = -count/2 .. count/2 - 1."""
    return TWO_PI * np.arange(-(count // 2), count - count // 2) / count


def wrap_frequency(omega):
    """Wrap frequencies into [-pi, pi)."""
    return np.mod(np.asarray(omega, dtype=float) + np.pi, TWO_PI) - np.pi


class BoundaryError(ValueError):
    """Requested segment leaves the observation window."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Segment length, frequency bandwidth and taper.

    The time bandwidth is implied: b_t = N / T once the sample size is known.
    The frequency kernel is ``frequency_kernel`` on [-b_f/2, b_f/2].
    """

    N: int
    b_f: float
    taper: TaperSpec = TaperSpec()

    def __post_init__(self):
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("segment length N must be even and >= 2")
        if not 0 < self.b_f < np.inf:
            raise ValueError("frequency bandwidth must be positive and finite")

    @classmethod
    def auto(cls, T, taper=None):
        """Bandwidths from the reference rates b_t = T^(-1/6), b_f = 2 T^(-1/5) - b_t:
        N is T b_t rounded to an even number, and b_f takes the realized b_t = N / T."""
        if T < 8:
            raise ValueError(f"sample size {T} is too small for the reference bandwidths (least 8)")
        n = int(2 * round(T ** (5.0 / 6.0) / 2.0))
        b_f = 2.0 * T ** (-0.2) - n / T
        if b_f <= 0:
            raise ValueError("reference rates give a nonpositive frequency bandwidth")
        return cls(N=n, b_f=b_f, taper=taper or TaperSpec())

    def b_t(self, T):
        return self.N / T

    def segment(self, T, u, t0=1, t_end=None):
        """Absolute, inclusive (start, stop) of the N times centred at floor(uT); raises
        ``BoundaryError`` unless they lie inside [t0, t_end] (default [1, T])."""
        t_end = T if t_end is None else t_end
        start = int(np.floor(u * T)) - self.N // 2 + 1
        stop = start + self.N - 1
        if start < t0 or stop > t_end:
            where = f"segment [{start}, {stop}] for u={u:.4f} leaves observations [{t0}, {t_end}]"
            if self.N > t_end - t0 + 1:  # the valid band is empty
                raise BoundaryError(f"{where}; N={self.N} exceeds the {t_end - t0 + 1} "
                                    "observations, so no u has a segment")
            lo, hi = self.valid_band(T, t0, t_end)
            raise BoundaryError(f"{where}; with N={self.N} and T={T} the valid band is "
                                f"u in [{lo:.6f}, {hi:.6f}]")
        return start, stop

    def valid_band(self, T, t0=1, t_end=None):
        """Closed band of u, about [(t0 - 1 + N/2) / T, (t_end - N/2) / T], that the
        default u axes span: ``segment`` accepts all of it and u up to 1/T above it."""
        t_end = T if t_end is None else t_end
        lo = self.N / (2.0 * T) + (t0 - 1) / T
        hi = 1.0 - self.N / (2.0 * T) + (t_end - T) / T
        while np.floor(lo * T) < t0 - 1 + self.N // 2:  # floor(uT) rounded it one short
            lo = float(np.nextafter(lo, np.inf))
        return lo, hi


# Bytes of temporaries one row block of the smoother may hold (see
# _smoothed_blocks): one row of the README imse config (64 frequencies) at
# T = 512 and 4096, 14 rows of ``reproduce far2`` (one frequency) at T = 512
_BLOCK_BYTES = 2**20


def _taper_values(cfg):
    return cfg.taper.values(np.arange(cfg.N) / cfg.N)


def _segment(x, u, cfg, T, t0):
    """Rows of the segment for rescaled time u of a series whose first row is at ``t0``."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("series must be a 2-d array (time, coefficient)")
    start, stop = cfg.segment(T, u, t0, t0 + len(x) - 1)
    return x[start - t0:stop - t0 + 1]


def local_fdft(x, u, omega, cfg, T, t0=1):
    """Local functional DFT at one (u, omega), as a coefficient vector.

    The paper's definition, summed term by term: the tapered segment of N
    observations centred at floor(uT) against e^{-i omega s}.  No pipeline
    calls it; it is the single-point oracle the tests hold the FFT paths
    against.
    """
    seg = _taper_values(cfg)[:, None] * _segment(x, u, cfg, T, t0)
    s = np.arange(cfg.N)
    return np.exp(-1j * float(omega) * s) @ seg


def local_fdft_grid(x, u, cfg, T, t0=1):
    """Local functional DFTs at all N Fourier frequencies (sorted order).

    The paper's definition at the Fourier frequencies, as one FFT of the
    tapered segment; the smoother takes the same FFT inside its row blocks.
    The tests check it against ``local_fdft`` point by point.
    """
    seg = _taper_values(cfg)[:, None] * _segment(x, u, cfg, T, t0)
    return np.fft.fftshift(np.fft.fft(seg, axis=0), axes=0)


def _periodogram_norm(cfg):
    h = _taper_values(cfg)
    return TWO_PI * float(np.sum(h * h))


def local_periodogram(x, u, omega, cfg, T, t0=1):
    """Periodogram operator D (x) D / (2 pi H_{2,N}(0)) at one (u, omega).

    The paper's rank-one definition at a single point, from ``local_fdft``.
    No pipeline calls it; the tests check the periodogram's rank, sign,
    mean and variance on it.
    """
    d = local_fdft(x, u, omega, cfg, T, t0=t0)
    return np.outer(d, np.conj(d)) / _periodogram_norm(cfg)


def local_periodogram_grid(x, u, cfg, T, t0=1):
    """Periodogram operators at all N Fourier frequencies, shape (N, K, K).

    The smoother never forms them (it works on the DFTs directly); this is
    their definition, and the dense reference the smoother is tested against.
    """
    d = local_fdft_grid(x, u, cfg, T, t0=t0)
    return d[:, :, None] * np.conj(d[:, None, :]) / _periodogram_norm(cfg)


def _smoothing_band(cfg, omegas):
    """Support and weights of the frequency smoother at each omega_b.

    Returns ``(index, weights)``, both (len(omegas), S): the unshifted DFT
    bins n (Fourier frequency 2 pi n / N) of a window of S consecutive
    Fourier frequencies that contains the kernel support of every omega_b,
    and the row-normalized weights W[b, n] on them, zero outside the
    support.  S is about b_f N / 2 pi, capped at N; windows wrap across
    +-pi.  Raises ValueError when a support holds no Fourier frequency.
    """
    n = cfg.N
    spacing = TWO_PI / n
    reach = 0.5 * cfg.b_f / spacing  # K_f's half width at b_f, in Fourier spacings
    width = min(n, 2 * int(np.ceil(reach)) + 3)
    first = np.floor(omegas / spacing - reach).astype(int) - 1
    index = np.mod(first[:, None] + np.arange(width), n)
    freqs = fourier_frequencies(n)[(index + n // 2) % n]
    w = frequency_kernel(wrap_frequency(omegas[:, None] - freqs) / cfg.b_f)
    totals = w.sum(axis=1)
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        raise ValueError(
            "no Fourier frequency falls inside the kernel support "
            f"at omega={omegas[empty[0]]:.6g}"
        )
    return index, w / totals[:, None]


def _warn_degenerate(cfg, stacklevel=3):
    """Warn when b_f does not exceed the Fourier spacing 2 pi / N, naming the caller
    of the public function that was given ``cfg`` (``stacklevel`` frames up)."""
    spacing = TWO_PI / cfg.N
    if cfg.b_f <= spacing:
        warnings.warn(
            f"frequency bandwidth {cfg.b_f:.4g} does not exceed the Fourier "
            f"spacing {spacing:.4g}; the weight sum degenerates",
            stacklevel=stacklevel,
        )


def _smoothed_blocks(segments, cfg, band):
    """Smoothed estimates of every segment in ``segments``, by row blocks.

    ``segments`` is (R, N, K) and ``band`` is ``_smoothing_band(cfg, omegas)``.
    One FFT over the tapered segments gives the DFTs D_n; each estimate is
    one weighted bilinear form over its band,

        Fhat(u, omega_b) = sum_{n in band b} W[b, n] D_n D_n^H / (2 pi H_2),

    taken as a batched (K x S) @ (S x K) product per row and frequency.
    Yields ``(rows, estimates)``: a slice of the rows of ``segments`` and
    their (rows, len(omegas), K, K) estimates, block after block.  A block's
    temporaries stay within ``_BLOCK_BYTES`` (at least one row per block),
    so the working memory does not grow with R, and a row's estimates do
    not depend on its block.
    """
    index, weights = band
    k = segments.shape[2]
    taper = _taper_values(cfg)[:, None]
    scale = (weights / _periodogram_norm(cfg))[..., None]
    # per row: the real segment, its complex FFT, the gathered and the
    # weighted band, and the product
    row_bytes = 8 * 3 * cfg.N * k + 16 * (2 * index.size * k + index.shape[0] * k * k)
    step = max(1, _BLOCK_BYTES // row_bytes)
    for r in range(0, len(segments), step):
        seg = taper * segments[r:r + step]
        # np.take keeps the gathered DFTs C-contiguous for every block size,
        # so each (r, b) product sees the same memory layout
        d = np.take(np.fft.fft(seg, axis=1), index, axis=1)
        yield slice(r, r + step), np.swapaxes(d * scale, -1, -2) @ np.conjugate(d, out=d)


def _smoothed_rows(segments, cfg, band):
    """All the estimates of ``_smoothed_blocks``, shape (R, len(omegas), K, K)."""
    k = segments.shape[2]
    out = np.empty((len(segments), band[0].shape[0], k, k), dtype=complex)
    for rows, est in _smoothed_blocks(segments, cfg, band):
        out[rows] = est
    return out


def estimate_grid(x, cfg, T, u_grid, omega_grid=None, t0=1):
    """Smoothed spectral estimates on a (u, omega) product grid.

    The single-series case of the replication-batched smoother that the
    Monte Carlo checks drive, one row per u: one FFT per u, and each frequency's
    weights applied only over the Fourier frequencies inside its kernel support.

    Parameters
    ----------
    omega_grid : array_like, optional
        Frequencies to estimate at, on or off the Fourier grid; defaults to
        the N Fourier frequencies.

    Returns
    -------
    SpectralGrid with provenance ``smoothed``.
    """
    u_grid = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if omega_grid is None:
        omegas = fourier_frequencies(cfg.N)
    else:
        omegas = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    _warn_degenerate(cfg)
    band = _smoothing_band(cfg, omegas)
    segments = np.stack([_segment(x, u, cfg, T, t0) for u in u_grid])
    return SpectralGrid(u=u_grid, omega=omegas, values=_smoothed_rows(segments, cfg, band),
                        provenance="smoothed")
