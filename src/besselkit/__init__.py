"""Numerical harmonic analysis on the weighted half-line (R+, x^(2*lam) dx).

Layers, bottom up:

- ``measure``    -- the measure space, intervals, grids, exact grid integrals
- ``special``    -- modified Bessel I_mu and log-Gamma
- ``quadrature`` -- adaptive and principal-value integration
- ``kernels``    -- heat, Poisson, conjugate-Poisson, Riesz and fractional kernels
- ``operators``  -- semigroups, singular and fractional integrals, commutators,
                    maximal functions
"""

from .measure import (
    GridFunction,
    Interval,
    MeasureSpace,
    comparable_volume,
    doubling_ratio,
    integrate_grid,
    make_log_grid,
    measure_interval,
)
from .special import bessel_i, log_gamma

__version__ = "0.1.0"

__all__ = [
    "MeasureSpace",
    "Interval",
    "GridFunction",
    "measure_interval",
    "doubling_ratio",
    "comparable_volume",
    "make_log_grid",
    "integrate_grid",
    "bessel_i",
    "log_gamma",
    "__version__",
]
