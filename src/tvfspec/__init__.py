"""Simulation and spectral estimation for time-varying functional time series.

The package represents curves in a finite real Fourier basis on [0, 1], so
functions are coefficient vectors and operators are complex matrices acting on
those coefficients.  Submodules:

``funspace``
    Basis handling and operator algebra (adjoint, operator norm, kernels).
``model``
    Time-varying functional ARMA models, stability checks, simulation.
``spectrum``
    Exact transfer operators, spectral density operators, local
    autocovariances and their short-time Fourier transforms.
``estimator``
    Tapered local functional DFTs, periodogram operators and two-way
    kernel-smoothed spectral estimates.
``evaluate``
    Monte Carlo verification of bias, variance, normality and consistency.
``ingest``
    File formats for series, models, spectral grids and reports.
``cli``
    Command-line front end.
"""

__version__ = "0.1.0"
