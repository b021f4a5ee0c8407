"""The Gauss-Legendre 21/10 panel pair, a reference rule for the tests.

The library integrates with one Chebyshev product rule.  This pair samples
the integrand at other points and estimates the error differently, so a
route through it is an independent check of the library's values and error
bars.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from besselkit.quadrature import IntegralResult, QuadConfig, _rounds

X10, W10 = np.polynomial.legendre.leggauss(10)
X21, W21 = np.polynomial.legendre.leggauss(21)


def gl_panels(f, lo, hi):
    """(value, error) of every panel (lo, hi): GL 21 and its gap to GL 10."""
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = np.concatenate([X10, X21])
    y = np.asarray(f((mid[:, None] + half[:, None] * nodes).ravel()), dtype=float)
    y = y.reshape(lo.size, nodes.size)
    v21 = half * (y[:, 10:] @ W21)
    return v21, np.abs(v21 - half * (y[:, :10] @ W10))


def integrate_gl(f, a: float, b: float, cfg: QuadConfig, breaks=None) -> IntegralResult:
    """∫_a^b f by the GL 21/10 pair, refined by the library's rounds."""
    return _rounds(partial(gl_panels, f), a, b, cfg, breaks)
