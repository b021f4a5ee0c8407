"""Independent references for the benchmark, built from heat-semigroup identities.

The input of every kernel workload is the Gaussian G_s(y) = exp(-y^2 / 4s).
Its heat evolution on (R+, y^(2 lam) dy) is exact,

    W_t G_s(x) = (s / (t + s))^(lam + 1/2) exp(-x^2 / 4(t + s)),

and every other operator is a one-dimensional integral of W_u G_s over the
time u (subordination), evaluated here with scipy.integrate.quad.  None of
these routes touches besselkit's kernels, quadrature or Bessel functions.

Each reference checks quad's own error estimate against ``tol / 100`` and
raises ReferenceInaccurate when it is larger: a reference that cannot vouch
for itself must stop the benchmark, not grade the library.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

SQRT_PI = math.sqrt(math.pi)


class ReferenceInaccurate(RuntimeError):
    """quad could not certify a reference to a hundredth of the tolerance."""


def _quad(f, a, b, tol, **kw):
    val, err = quad(f, a, b, epsabs=tol * 1e-3, epsrel=1e-12, limit=400, **kw)
    if not (math.isfinite(val) and err <= tol / 100.0):
        raise ReferenceInaccurate(f"quad error {err:.3e} exceeds tol/100 = {tol / 100:.3e}")
    return val


def _u_integral(f, scale, tol):
    """int_0^inf f(u) du, split at ``scale`` so quad sees each end separately."""
    return _quad(f, 0.0, scale, tol) + _quad(f, scale, math.inf, tol)


def heat(lam, s, t, x):
    """W_t G_s(x), exact."""
    return (s / (t + s)) ** (lam + 0.5) * math.exp(-x * x / (4.0 * (t + s)))


def poisson(lam, s, t, x, tol):
    """P_t G_s(x) = int_0^inf t/(2 sqrt(pi)) e^(-t^2/4u) u^(-3/2) W_u G_s(x) du."""

    def f(u):
        return t / (2.0 * SQRT_PI) * math.exp(-t * t / (4.0 * u)) * u ** -1.5 * heat(lam, s, u, x)

    return _u_integral(f, max(t * t, s), tol)


def _conj_integrand(lam, s, t, x):
    def f(u):
        return u ** -0.5 * math.exp(-t * t / (4.0 * u)) * heat(lam, s, u, x) / (u + s)

    return f


def conj_poisson(lam, s, t, x, tol):
    """Q_t G_s(x) = -x/(2 sqrt(pi)) int_0^inf u^(-1/2) e^(-t^2/4u) W_u G_s(x)/(u+s) du."""
    scale = max(t * t, s)
    return -x / (2.0 * SQRT_PI) * _u_integral(_conj_integrand(lam, s, t, x), scale, tol)


def riesz(lam, s, x, tol):
    """R G_s(x) = Q_0 G_s(x)."""
    return conj_poisson(lam, s, 0.0, x, tol)


def riesz_commutator_y2(lam, s, x, tol):
    """[b, R] G_s(x) for b(y) = y^2: x^2 R G_s(x) - 4 s^2 d/ds R G_s(x).

    y^2 G_s = 4 s^2 dG_s/ds, and d/ds is taken under the u-integral:
    d/ds W_u G_s(x) = W_u G_s(x) ((lam + 1/2)/s - (lam + 3/2)/v + x^2/4v^2)
    with v = u + s, which also differentiates the 1/(u + s) factor.
    """

    def ds(u):
        v = u + s
        w = heat(lam, s, u, x)
        d = (lam + 0.5) / s - (lam + 1.5) / v + x * x / (4.0 * v * v)
        return u ** -0.5 * w / v * d

    dr = -x / (2.0 * SQRT_PI) * _u_integral(ds, s, tol / (4.0 * s * s))
    return x * x * riesz(lam, s, x, tol) - 4.0 * s * s * dr


def fractional(lam, s, alpha, x, tol):
    """K_alpha G_s(x) = Gamma(alpha)^-1 int_0^inf u^(alpha/2 - 1) W_u G_s(x) du."""
    g = gamma_fn(alpha)

    def f(u):
        return u ** (0.5 * alpha - 1.0) * heat(lam, s, u, x)

    return _u_integral(f, s, tol * g) / g


def frac_integral_igamma(lam, s, gamma, x, lo, hi, tol):
    """int_lo^hi G_s(u) m(I(x, |x - u|))^(gamma - 1) u^(2 lam) du, split at x.

    m(I(x, r)) = ((x + r)^Q - max(x - r, 0)^Q) / Q with Q = 2 lam + 1.  The
    integrand has an integrable |x - u|^(gamma - 1) singularity at u = x,
    which quad's endpoint extrapolation handles once x is a breakpoint.
    """
    q = 2.0 * lam + 1.0

    def f(u):
        r = abs(x - u)
        m = ((x + r) ** q - max(x - r, 0.0) ** q) / q
        return math.exp(-u * u / (4.0 * s)) * m ** (gamma - 1.0) * u ** (2.0 * lam)

    if lo < x < hi:
        return _quad(f, lo, x, tol) + _quad(f, x, hi, tol)
    return _quad(f, lo, hi, tol)


def exact_maximal(lam, nodes, cell_values, x):
    """Exact Hardy-Littlewood maximal function of a step function at x.

    The step function is ``cell_values[i]`` on [nodes[i], nodes[i+1]) and 0
    elsewhere; the average of |f| against y^(2 lam) dy over [a, b] is taken
    for every a in nodes ∪ {0, x} with a <= x and every b in nodes ∪ {x}
    with b >= x.  For piecewise-constant f the average is monotone in each
    endpoint inside a cell, so this finite family attains the supremum.
    Prefix sums of y^(2 lam + 1) / (2 lam + 1) make each pair O(1).
    """
    q = 2.0 * lam + 1.0
    prim = nodes ** q / q
    mass = np.concatenate([[0.0], np.cumsum(np.abs(cell_values) * np.diff(prim))])

    def cum(y):
        # int_0^y |f| dm for y in the closed range [0, inf)
        y = np.asarray(y, dtype=float)
        i = np.clip(np.searchsorted(nodes, y, side="right") - 1, 0, nodes.size - 2)
        inside = (y >= nodes[0]) & (y < nodes[-1])
        part = np.where(inside, np.abs(cell_values[i]) * (y ** q / q - prim[i]), 0.0)
        base = np.where(y < nodes[0], 0.0, np.where(y >= nodes[-1], mass[-1], mass[i]))
        return base + part

    left = np.concatenate([[0.0, x], nodes[nodes < x]])
    right = np.concatenate([[x], nodes[nodes > x]])
    cl, cr = cum(left), cum(right)
    pl, pr = left ** q / q, right ** q / q
    best = 0.0
    # blocks of left endpoints keep the pair matrix small: its memory would
    # otherwise show in the benchmark's peak RSS
    for i in range(0, left.size, 128):
        num = cr[None, :] - cl[i:i + 128, None]
        den = pr[None, :] - pl[i:i + 128, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = np.where(den > 0, num / den, 0.0)
        best = max(best, float(np.max(avg)))
    return best
