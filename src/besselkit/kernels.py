"""Pointwise kernels on the weighted half-line.

Five families, the kinds of a ``KernelSpec``, each evaluated by
``kernel_value`` and positive-homogeneous of an exact degree:

- heat          W_t(x, y)   degree -Q with t ~ length^2
- poisson       P_t(x, y)   degree -Q with t ~ length
- conj_poisson  Q_t(x, y)   degree -Q with t ~ length
- riesz         R(x, y)     degree -Q (t = 0 boundary value of conj_poisson)
- fractional    K_a(x, y)   degree a - Q (heat subordination, 0 < a < Q)

The Poisson-type kernels are built from the angular moments

    J_m(A, B) = int_{-1}^{1} c^m (1 - c^2)^(lam - 1) (A - B c)^(-lam - 1) dc,

A = x^2 + y^2 + t^2 and B = 2 x y, which have closed forms in the Gauss
function 2F1 (scipy's hyp2f1).  Each point takes one of two routes, chosen
from its B/A:

- Landen, B/A > 1/2.  With D = (x - y)^2 + t^2 formed exactly (never as
  A - B), s = sqrt(D (A + B)), r = B/(A + s) and k = (A + s)/2,
  Gradshteyn-Ryzhik 3.665.1 and Euler's transformation give

      J0 = k^(-lam-1) B(lam, 1/2) (1 - r^2)^(-2) 2F1(-1/2, lam - 1; lam + 1/2; r^2)
      K  = A J0 - B J1 = k^(-lam) B(lam, 1/2) 2F1(lam, 1/2; lam + 1/2; r^2)

  with 1 - r^2 = (D + s)/(A + s) (1 + r) free of cancellation, and
  x J0 - y J1 = (((x - y)(x + y) - t^2) J0 + K) / (2x), which keeps its
  digits on the diagonal.
- Far field, B/A <= 1/2.  With p = lam + 1 and z = B/A,

      J0 = A^(-p) B(1/2, lam) 2F1(p/2, (p+1)/2; lam + 1/2; z^2)
      J1 = A^(-p) p z B(3/2, lam) 2F1((p+1)/2, (p+2)/2; lam + 3/2; z^2).

  The Landen combination loses digits when x << y; these series do not.

Then P_t = (2 lam t / pi) J0, Q_t = -(2 lam / pi)(x J0 - y J1) and R = Q_0.
The fractional kernel is one 2F1 in the same Landen variable (see
``_fractional``).  With ``with_error=True`` ``kernel_value`` reports a bound
made of hyp2f1's own error and the effect eps z |F'(z)| of rounding each
2F1 argument, carried through the prefactors and the sum; the slope F' is
evaluated only then.

The heat kernel is evaluated in the fused overflow-safe form

    W_t = (2t)^(-1) exp(-(x-y)^2 / 4t) (xy)^(1/2 - lam) * [e^(-z) I_(lam-1/2)(z)],

z = xy/2t, which is algebraically identical to the product of the plain
Gaussian factor with the unscaled Bessel function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta, gammaln, hyp2f1

from .measure import MeasureSpace
from .quadrature import QuadConfig
from .special import bessel_i

__all__ = ["KernelSpec", "kernel_value", "theta_moments"]

_KINDS = ("heat", "poisson", "conj_poisson", "riesz", "fractional")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family, its parameters, and the quadrature budget of the
    operators that integrate it."""

    kind: str
    space: MeasureSpace
    t: float | None = None
    alpha: float | None = None
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind in ("heat", "poisson", "conj_poisson"):
            if self.t is None or not 0 < self.t < math.inf:
                raise ValueError(f"{self.kind} kernel needs a finite t > 0")
        if self.kind == "fractional":
            if self.alpha is None or not 0 < self.alpha < self.space.upper_dim:
                raise ValueError("fractional kernel needs 0 < alpha < upper_dim")


# ---------------------------------------------------------------------------
# angular moments in closed form
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)
# Relative error of one evaluated term: hyp2f1's own (up to about 5e-14
# against mpmath) plus the rounding of the term's prefactor.
_REL = 1e-13
# Relative rounding error of a computed 2F1 argument; the Landen r^2 takes
# about 18 roundings of eps/2.  eps alone fell short at x = y, t = 1e-7.
_ARG = 8.0 * _EPS

# B/A at or below which the far-field series replace the Landen forms.  The
# Landen combination for x J0 - y J1 loses digits when x << y; the series
# converge like (B/A)^2 and lose nothing there.
_FAR_FIELD = 0.5


def _hyp2f1(a: float, b: float, c: float, z: np.ndarray, with_error: bool):
    """2F1(a, b; c; z) and its error bound, or None without ``with_error``.

    The bound is hyp2f1's own error plus the argument rounding _ARG z |F'|,
    F' = (ab/c) 2F1(a+1, b+1; c+1; z).  Near z = 1 with c - a - b small but
    nonzero, hyp2f1's connection formula cancels two terms of size
    1/|c - a - b|, and its own error grows like eps/|c - a - b|.
    """
    f = hyp2f1(a, b, c, z)
    if not with_error:
        return f, None
    slope = (a * b / c) * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
    gap = abs(c - a - b)
    rel = max(_REL, 5.0 * _EPS / gap) if gap else _REL
    return f, rel * np.abs(f) + _ARG * z * np.abs(slope)


def _moments(lam: float, A: np.ndarray, B: np.ndarray, D: np.ndarray, with_error: bool):
    """(J0, G, J0 error, G error, far) with D = A - B formed by the caller.

    G is J1 where ``far`` (B/A <= _FAR_FIELD) and K = A J0 - B J1 elsewhere.
    Errors are those of the 2F1 factors, scaled by their prefactors; without
    ``with_error`` they are left unset.
    """
    far = B <= _FAR_FIELD * A
    j0, g, e0, eg = (np.empty_like(A) for _ in range(4))
    if np.any(far):
        a, z = A[far], B[far] / A[far]
        p = lam + 1.0
        f0, d0 = _hyp2f1(0.5 * p, 0.5 * (p + 1.0), lam + 0.5, z * z, with_error)
        f1, d1 = _hyp2f1(0.5 * (p + 1.0), 0.5 * (p + 2.0), lam + 1.5, z * z, with_error)
        c0 = a ** -p * beta(0.5, lam)
        c1 = a ** -p * p * z * beta(1.5, lam)
        j0[far], g[far] = c0 * f0, c1 * f1
        if with_error:
            e0[far], eg[far] = c0 * d0, c1 * d1
    near = ~far
    if np.any(near):
        a, b, d = A[near], B[near], D[near]
        s = np.sqrt(d * (a + b))
        r = b / (a + s)  # Landen variable
        k = 0.5 * (a + s)
        one_minus_z = (d + s) / (a + s) * (1.0 + r)  # 1 - r^2 without cancellation
        f0, d0 = _hyp2f1(-0.5, lam - 1.0, lam + 0.5, r * r, with_error)
        fk, dk = _hyp2f1(lam, 0.5, lam + 0.5, r * r, with_error)
        ck = k ** -lam * beta(lam, 0.5)
        c0 = ck / (k * one_minus_z ** 2)
        j0[near], g[near] = c0 * f0, ck * fk
        if with_error:
            e0[near], eg[near] = c0 * d0, ck * dk
    return j0, g, e0, eg, far


def theta_moments(lam: float, A, B):
    """(J0, J1, error) for the angular integrals at parameters (A, B).

    Requires A > B > 0 elementwise (A = B is the kernel diagonal).  Here
    A - B is formed from the rounded A and B; the kernels form it exactly.
    """
    A = np.atleast_1d(np.asarray(A, dtype=float))
    B = np.atleast_1d(np.asarray(B, dtype=float))
    if A.shape != B.shape:
        raise ValueError("A and B must have matching shapes")
    if np.any(B <= 0) or np.any(A <= B):
        raise ValueError("need A > B > 0")
    j0, g, e0, eg, far = _moments(lam, A, B, A - B, True)
    j1 = np.where(far, g, (A * j0 - g) / B)
    err = e0 + np.where(far, eg, (A * e0 + eg) / B)
    return j0, j1, err


# ---------------------------------------------------------------------------
# kernel families: the rows of _DISPATCH take x and y already broadcast and
# return (value, error or None)
# ---------------------------------------------------------------------------


def _heat(spec: KernelSpec, x, y, with_error: bool):
    """Heat kernel W_t(x, y); exact formula, overflow-safe Bessel fusion."""
    t = spec.t
    lam = spec.space.lam
    z = x * y / (2.0 * t)
    pref = (0.5 / t) * np.exp(-((x - y) ** 2) / (4.0 * t)) * (x * y) ** (0.5 - lam)
    val = pref * bessel_i(lam - 0.5, z, scaled=True)
    return val, 1e-13 * np.abs(val) if with_error else None


def _poisson_family(lam: float, x, y, t: float, signed: bool, with_error: bool):
    """P_t (unsigned) or Q_t (signed) and its error (None without
    ``with_error``); t = 0 gives R."""
    j0, g, e0, eg, far = _moments(lam, x * x + y * y + t * t, 2.0 * x * y,
                                  (x - y) ** 2 + t * t, with_error)
    if not signed:
        c = 2.0 * lam * t / math.pi
        return c * j0, c * e0 if with_error else None
    # x J0 - y J1; near the diagonal from K with (x - y)(x + y) - t^2 exact
    a = (x - y) * (x + y) - t * t
    m = np.where(far, x * j0 - y * g, (a * j0 + g) / (2.0 * x))
    c = 2.0 * lam / math.pi
    if not with_error:
        return -c * m, None
    em = np.where(far, x * e0 + y * eg, (np.abs(a) * e0 + eg) / (2.0 * x))
    return -c * m, c * em


def _riesz(spec: KernelSpec, x, y, with_error: bool):
    """Riesz transform kernel R(x, y): the t -> 0 conjugate-Poisson limit.

    Signed: positive for y > x, negative for y < x.  Next to the diagonal it
    is 1/(pi (y - x) y^(2 lam)) plus a log term, with y - x formed exactly;
    on the diagonal it is singular and refused.
    """
    if np.any(x == y):
        raise ValueError("riesz kernel is singular on the diagonal")
    return _poisson_family(spec.space.lam, x, y, 0.0, True, with_error)


def _fractional(spec: KernelSpec, x, y, with_error: bool):
    """Kernel of the fractional power: heat subordination of order alpha.

    K_a(x, y) = Gamma(a)^(-1) * int_0^inf W_t(x, y) t^(a/2 - 1) dt.  With
    r = min(x, y)/max(x, y) and nu = lam + 1/2 - a/2 this is

        2^(1-a) Gamma(nu) / (Gamma(a) Gamma(lam + 1/2)) * max(x, y)^(-2 nu) * F,

    F = (1 - r^2)^(a-1) 2F1(a/2, lam - 1/2 + a/2; lam + 1/2; r^2) for a < 1
    and its Euler transform 2F1(nu, 1 - a/2; lam + 1/2; r^2) for a >= 1, the
    form that stays finite at r = 1.  1 - r^2 is formed without cancellation.
    """
    if np.any(x == y):
        raise ValueError("fractional kernel is singular on the diagonal")
    lam, alpha = spec.space.lam, spec.alpha
    nu = lam + 0.5 - 0.5 * alpha
    hi, lo = np.maximum(x, y), np.minimum(x, y)
    z = (lo / hi) ** 2
    pref = 2.0 ** (1.0 - alpha) * math.exp(
        gammaln(nu) - gammaln(alpha) - gammaln(lam + 0.5)) * hi ** (-2.0 * nu)
    if alpha < 1.0:
        pref = pref * ((hi - lo) * (hi + lo) / (hi * hi)) ** (alpha - 1.0)
        f, df = _hyp2f1(0.5 * alpha, lam - 0.5 + 0.5 * alpha, lam + 0.5, z, with_error)
    else:
        f, df = _hyp2f1(nu, 1.0 - 0.5 * alpha, lam + 0.5, z, with_error)
    return pref * f, pref * df if with_error else None


_DISPATCH = {
    "heat": _heat,
    "poisson": lambda spec, x, y, e: _poisson_family(spec.space.lam, x, y, spec.t, False, e),
    "conj_poisson": lambda spec, x, y, e: _poisson_family(spec.space.lam, x, y, spec.t, True, e),
    "riesz": _riesz,
    "fractional": _fractional,
}


def kernel_value(spec: KernelSpec, x, y, with_error: bool = False):
    """The kernel that ``spec.kind`` names, at positive finite x and y.

    x and y broadcast: two scalars give a float, anything else an array of
    the broadcast shape.  With ``with_error=True`` the result is
    (value, error bound), both of that shape.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (((0 < x) & (x < np.inf)).all() and ((0 < y) & (y < np.inf)).all()):
        raise ValueError("kernel arguments must be positive and finite")
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    val, err = _DISPATCH[spec.kind](spec, x.astype(float), y.astype(float), with_error)
    if scalar:
        val = float(val[0])
        err = None if err is None else float(err[0])
    return (val, err) if with_error else val
