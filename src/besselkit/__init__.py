"""Numerical harmonic analysis on the weighted half-line (R+, x^(2*lam) dx).

Layers, bottom up:

- ``measure``    -- the measure space, ball volumes, grids, exact grid integrals
- ``special``    -- modified Bessel I_mu
- ``quadrature`` -- one Chebyshev panel rule: adaptive, product and PV integration
- ``kernels``    -- heat, Poisson, conjugate-Poisson, Riesz and fractional kernels
- ``operators``  -- semigroups, singular and fractional integrals, commutators,
                    maximal functions
"""

from .measure import (
    GridFunction,
    MeasureSpace,
    comparable_volume,
    doubling_ratio,
    make_log_grid,
)
from .special import bessel_i

__version__ = "0.1.0"

__all__ = [
    "MeasureSpace",
    "GridFunction",
    "doubling_ratio",
    "comparable_volume",
    "make_log_grid",
    "bessel_i",
    "__version__",
]
