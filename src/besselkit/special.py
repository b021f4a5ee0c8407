"""Modified Bessel function I_mu for real order mu >= -1/2.

The heat kernel on the weighted half-line needs I_(lam - 1/2) evaluated with
a fused exponential: exp(-(x-y)^2/4t) * [exp(-z) I_mu(z)] never overflows,
whereas the textbook factorization exp(-(x^2+y^2)/4t) * I_mu(xy/2t) does.
Both the raw and the exponentially scaled value are provided.

Implementation: scipy's exponentially scaled ``ive`` up to an order-dependent
crossover, and the large-argument asymptotic expansion with optimal
truncation above it.  The expansion is kept because ``ive`` returns NaN,
without warning, for arguments of about 1e9 and beyond (scipy 1.17).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ive

__all__ = [
    "bessel_i",
    "series_crossover",
]

# Raw values overflow once exp(z) does; the scaled path has no such limit.
_RAW_OVERFLOW_Z = 705.0

_ASYMPTOTIC_MAX_TERMS = 60


def series_crossover(mu: float) -> float:
    """Argument up to which scipy's ``ive`` is used for order ``mu``.

    Above the crossover the asymptotic expansion reaches ~1e-14 relative
    truncation error; the margin grows with mu^2 because the expansion's
    early terms scale like (4 mu^2)^k / (8 z)^k.  Below it ``ive`` is
    accurate to a few ulps.
    """
    return max(40.0, mu * mu + 30.0)


def _asymptotic_scaled(mu: float, z: np.ndarray) -> np.ndarray:
    """exp(-z) I_mu(z) ~ (2 pi z)^(-1/2) * sum_k (-1)^k a_k(mu) / z^k.

    Terms are added while they keep shrinking (optimal truncation); the
    neglected exp(-2z) companion series is < 1e-26 beyond the crossover.
    """
    fourmu2 = 4.0 * mu * mu
    total = np.ones_like(z)
    term = np.ones_like(z)
    active = np.ones_like(z, dtype=bool)
    for k in range(1, _ASYMPTOTIC_MAX_TERMS):
        factor = -(fourmu2 - (2.0 * k - 1.0) ** 2) / (8.0 * k * z)
        new_term = term * factor
        # stop (per element) once terms stop decreasing or are negligible
        grew = np.abs(new_term) >= np.abs(term)
        active &= ~grew
        total = np.where(active, total + new_term, total)
        term = np.where(active, new_term, term)
        if not np.any(active) or np.all(np.abs(term) <= 1e-18 * np.abs(total)):
            break
    return total / np.sqrt(2.0 * np.pi * z)


def bessel_i(mu: float, z, scaled: bool = False):
    """I_mu(z) for mu >= -1/2 and z >= 0; ``scaled`` returns exp(-z) I_mu(z).

    At z = 0 the value is 0 for mu > 0, 1 for mu = 0 and +inf for
    -1/2 <= mu < 0.  Raw evaluation raises OverflowError once exp(z) is
    unrepresentable; callers hitting that regime should request the scaled
    value instead.
    """
    if mu < -0.5:
        raise ValueError(f"order must be >= -1/2, got {mu}")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z).astype(float)
    if np.any(z < 0):
        raise ValueError("argument must be nonnegative")
    if not scaled and np.any(z > _RAW_OVERFLOW_Z):
        raise OverflowError(
            f"exp(z) overflows for z > {_RAW_OVERFLOW_Z}; use scaled=True"
        )

    small = z <= series_crossover(mu)
    out = np.empty_like(z)
    out[small] = ive(mu, z[small])
    if mu < 0:
        out[z == 0] = np.inf  # ive returns NaN here
    if np.any(~small):
        out[~small] = _asymptotic_scaled(mu, z[~small])

    if not scaled:
        out = out * np.exp(z)
    return float(out[0]) if scalar else out
