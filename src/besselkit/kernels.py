"""Pointwise kernels on the weighted half-line.

Five families, all positive-homogeneous of an exact degree:

- heat          W_t(x, y)   degree -Q with t ~ length^2
- poisson       P_t(x, y)   degree -Q with t ~ length
- conj_poisson  Q_t(x, y)   degree -Q with t ~ length
- riesz         R(x, y)     degree -Q (t = 0 boundary value of conj_poisson)
- fractional    K_a(x, y)   degree a - Q (heat subordination, 0 < a < Q)

The Poisson-type kernels are angular integrals

    J_m(A, B) = int_{-1}^{1} c^m (1 - c^2)^(lam - 1) (A - B c)^(-lam - 1) dc

with A = x^2 + y^2 + t^2 and B = 2 x y (the substitution c = cos(theta)
absorbs the (sin theta)^(2 lam - 1) endpoint singularities into a Jacobi
weight).  Away from the diagonal a Gauss-Jacobi rule with node doubling is
spectrally accurate; when the integrand's pole at c = A/B approaches 1 the
tail c in (1 - u0, 1) is rewritten in u = 1 - c and integrated on panels
graded geometrically toward u = 0.

The heat kernel is evaluated in the fused overflow-safe form

    W_t = (2t)^(-1) exp(-(x-y)^2 / 4t) (xy)^(1/2 - lam) * [e^(-z) I_(lam-1/2)(z)],

z = xy/2t, which is algebraically identical to the product of the plain
Gaussian factor with the unscaled Bessel function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .measure import MeasureSpace
from .quadrature import QuadConfig
from .special import bessel_i, log_gamma

__all__ = [
    "KernelSpec",
    "heat_kernel",
    "poisson_kernel",
    "conj_poisson_kernel",
    "riesz_kernel",
    "frac_kernel",
    "frac_kernel_x_derivative",
    "kernel_value",
    "theta_moments",
]

_KINDS = ("heat", "poisson", "conj_poisson", "riesz", "fractional")

# Relative diagonal width below which the Riesz kernel refuses to evaluate:
# the genuine 1/(x - y) blow-up belongs to the principal-value machinery.
RIESZ_DIAGONAL_GUARD = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """One kernel family plus its parameters and quadrature budget."""

    kind: str
    space: MeasureSpace
    t: float | None = None
    alpha: float | None = None
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind in ("heat", "poisson", "conj_poisson"):
            if self.t is None or not self.t > 0:
                raise ValueError(f"{self.kind} kernel needs t > 0")
        if self.kind == "fractional":
            if self.alpha is None or not 0 < self.alpha < self.space.upper_dim:
                raise ValueError("fractional kernel needs 0 < alpha < upper_dim")


# ---------------------------------------------------------------------------
# angular moment integrals
# ---------------------------------------------------------------------------

_jacobi_cache: dict = {}
_GRADED_SWITCH = 2e-5  # relative pole distance below which panels take over


def _jacobi_rule(n: int, lam: float):
    key = (n, round(lam, 12))
    rule = _jacobi_cache.get(key)
    if rule is None:
        rule = roots_jacobi(n, lam - 1.0, lam - 1.0)
        _jacobi_cache[key] = rule
    return rule


def _half_jacobi_rule(n: int, lam: float):
    # weight (1 + c)^(lam - 1) only; used left of the split point
    key = (n, round(lam, 12), "half")
    rule = _jacobi_cache.get(key)
    if rule is None:
        rule = roots_jacobi(n, 0.0, lam - 1.0)
        _jacobi_cache[key] = rule
    return rule


def _moments_jacobi(lam: float, A: np.ndarray, B: np.ndarray, rel_tol: float):
    """Node-doubling Gauss-Jacobi evaluation of (J0, J1) with error estimates."""
    p = lam + 1.0
    m = A.size
    j0 = np.zeros(m)
    j1 = np.zeros(m)
    err = np.full(m, np.inf)
    prev0 = np.full(m, np.nan)
    prev1 = np.full(m, np.nan)
    unconv = np.ones(m, dtype=bool)
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        if not np.any(unconv):
            break
        idx = np.where(unconv)[0]
        c, w = _jacobi_rule(n, lam)
        base = (A[idx, None] - B[idx, None] * c[None, :]) ** (-p)
        v0 = base @ w
        v1 = base @ (w * c)
        with np.errstate(invalid="ignore"):
            diff = np.abs(v0 - prev0[idx]) + np.abs(v1 - prev1[idx])
            done = diff <= rel_tol * (np.abs(v0) + np.abs(v1))  # NaN -> False
        j0[idx] = v0
        j1[idx] = v1
        err[idx] = diff
        prev0[idx] = v0
        prev1[idx] = v1
        unconv[idx[done]] = False
    err = np.where(np.isnan(err), np.inf, err)
    return j0, j1, err, unconv  # `unconv` True = not settled by Jacobi


def _moments_graded(lam: float, A: np.ndarray, B: np.ndarray):
    """Graded-panel evaluation of (J0, J1) for near-diagonal points.

    Vectorized over points: the angular variable is split at c = 1/2, the
    tail rewritten in u = 1 - c, and u-panels grow geometrically from the
    pole scale q = (A - B)/B up to 1/2 (a shared panel layout with per-point
    clipping, so the whole batch is a single 3-d evaluation).
    """
    p = lam + 1.0
    d = A - B
    q = d / B

    # left block c in (-1, 1/2): Jacobi weight at -1 only, integrand smooth
    s, w = _half_jacobi_rule(48, lam)
    h = 0.75  # (X + 1)/2 with X = 1/2
    c = -1.0 + h * (1.0 + s)
    g = (1.0 - c) ** (lam - 1.0) * (A[:, None] - B[:, None] * c) ** (-p)
    j0 = h ** lam * (g @ w)
    j1 = h ** lam * (g @ (w * c))

    # head panel u in (0, u_h), u_h = min(1/2, q/100): weight u^(lam-1)
    u_h = np.minimum(0.5, 0.01 * q)
    s, w = _half_jacobi_rule(24, lam)
    u = 0.5 * u_h[:, None] * (1.0 + s)
    g = (2.0 - u) ** (lam - 1.0) * (d[:, None] + B[:, None] * u) ** (-p)
    j0 += (0.5 * u_h) ** lam * (g @ w)
    j1 += (0.5 * u_h) ** lam * ((g * (1.0 - u)) @ w)

    # geometric panels [u_h 2^j, u_h 2^(j+1)] clipped at 1/2, shared layout
    n_pan = int(np.ceil(np.max(np.log2(0.5 / u_h)))) + 1 if u_h.size else 0
    lo = u_h[:, None] * 2.0 ** np.arange(n_pan)
    hi = np.minimum(2.0 * lo, 0.5)
    lo = np.minimum(lo, 0.5)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)

    def panel_sum(nodes, weights):
        U = mid[..., None] + half[..., None] * nodes  # (m, n_pan, G)
        G = U ** (lam - 1.0) * (2.0 - U) ** (lam - 1.0) * (
            d[:, None, None] + B[:, None, None] * U
        ) ** (-p)
        s0 = ((G @ weights) * half).sum(axis=1)
        s1 = (((G * (1.0 - U)) @ weights) * half).sum(axis=1)
        return s0, s1

    xg, wg = _gl_cached(16)
    xg2, wg2 = _gl_cached(24)
    c0, c1 = panel_sum(xg, wg)
    f0, f1 = panel_sum(xg2, wg2)
    err = np.abs(f0 - c0) + np.abs(f1 - c1) + 1e-14 * (np.abs(j0) + np.abs(j1))
    return j0 + f0, j1 + f1, err


_gl_rules: dict = {}


def _gl_cached(n: int):
    rule = _gl_rules.get(n)
    if rule is None:
        rule = roots_legendre(n)
        _gl_rules[n] = rule
    return rule


def theta_moments(lam: float, A, B, rel_tol: float = 1e-12):
    """(J0, J1, error) for the angular integrals at parameters (A, B).

    Requires A > B > 0 elementwise (A = B is the kernel diagonal).
    """
    A = np.atleast_1d(np.asarray(A, dtype=float))
    B = np.atleast_1d(np.asarray(B, dtype=float))
    if A.shape != B.shape:
        raise ValueError("A and B must have matching shapes")
    if np.any(B <= 0) or np.any(A <= B):
        raise ValueError("need A > B > 0")
    q = (A - B) / B
    j0 = np.empty_like(A)
    j1 = np.empty_like(A)
    err = np.empty_like(A)
    far = q >= _GRADED_SWITCH
    if np.any(far):
        f0, f1, fe, left = _moments_jacobi(lam, A[far], B[far], rel_tol)
        # anything Jacobi could not settle falls back to graded panels
        if np.any(left):
            g0, g1, ge = _moments_graded(lam, A[far][left], B[far][left])
            f0[left], f1[left], fe[left] = g0, g1, ge
        j0[far], j1[far], err[far] = f0, f1, fe
    near = ~far
    if np.any(near):
        j0[near], j1[near], err[near] = _moments_graded(lam, A[near], B[near])
    return j0, j1, err


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------


def _broadcast_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("kernel arguments must be positive")
    return x.astype(float), y.astype(float), scalar


def heat_kernel(spec: KernelSpec, x, y, with_error: bool = False):
    """Heat kernel W_t(x, y); exact formula, overflow-safe Bessel fusion."""
    if spec.kind != "heat":
        raise ValueError("spec.kind must be 'heat'")
    x, y, scalar = _broadcast_xy(x, y)
    t = spec.t
    lam = spec.space.lam
    z = x * y / (2.0 * t)
    pref = (0.5 / t) * np.exp(-((x - y) ** 2) / (4.0 * t)) * (x * y) ** (0.5 - lam)
    val = pref * bessel_i(lam - 0.5, z, scaled=True)
    err = 1e-13 * np.abs(val)
    if scalar:
        val, err = float(val[0]), float(err[0])
    return (val, err) if with_error else val


def _poisson_family(spec: KernelSpec, x, y, t: float, signed: bool):
    lam = spec.space.lam
    A = x * x + y * y + t * t
    B = 2.0 * x * y
    j0, j1, jerr = theta_moments(lam, A, B, rel_tol=spec.quad.rel_tol * 1e-2)
    if signed:
        val = -(2.0 * lam / math.pi) * (x * j0 - y * j1)
        err = (2.0 * lam / math.pi) * (x + y) * jerr
    else:
        val = (2.0 * lam * t / math.pi) * j0
        err = (2.0 * lam * t / math.pi) * jerr
    return val, err


def poisson_kernel(spec: KernelSpec, x, y, with_error: bool = False):
    """Poisson kernel P_t(x, y) > 0."""
    if spec.kind != "poisson":
        raise ValueError("spec.kind must be 'poisson'")
    x, y, scalar = _broadcast_xy(x, y)
    val, err = _poisson_family(spec, x, y, spec.t, signed=False)
    if scalar:
        val, err = float(val[0]), float(err[0])
    return (val, err) if with_error else val


def conj_poisson_kernel(spec: KernelSpec, x, y, with_error: bool = False):
    """Conjugate Poisson kernel Q_t(x, y); signed."""
    if spec.kind != "conj_poisson":
        raise ValueError("spec.kind must be 'conj_poisson'")
    x, y, scalar = _broadcast_xy(x, y)
    val, err = _poisson_family(spec, x, y, spec.t, signed=True)
    if scalar:
        val, err = float(val[0]), float(err[0])
    return (val, err) if with_error else val


def riesz_kernel(spec: KernelSpec, x, y, with_error: bool = False):
    """Riesz transform kernel R(x, y): the t -> 0 conjugate-Poisson limit.

    Signed: positive for y > x, negative for y < x.  Arguments closer to the
    diagonal than RIESZ_DIAGONAL_GUARD * x are refused; that regime belongs
    to the principal-value integrator, not pointwise evaluation.
    """
    if spec.kind != "riesz":
        raise ValueError("spec.kind must be 'riesz'")
    x, y, scalar = _broadcast_xy(x, y)
    if np.any(np.abs(x - y) < RIESZ_DIAGONAL_GUARD * x):
        raise ValueError("arguments too close to the diagonal; use the PV machinery")
    lam = spec.space.lam
    A = x * x + y * y
    B = 2.0 * x * y
    j0, j1, jerr = theta_moments(lam, A, B, rel_tol=spec.quad.rel_tol * 1e-2)
    val = -(2.0 * lam / math.pi) * (x * j0 - y * j1)
    err = (2.0 * lam / math.pi) * (x + y) * jerr
    if scalar:
        val, err = float(val[0]), float(err[0])
    return (val, err) if with_error else val


# -- fractional kernel -------------------------------------------------------


def _frac_s_integral(lam: float, alpha: float, w: np.ndarray, rel_tol: float):
    """I(w) = int_0^inf s^(alpha/2 - 2) exp(-1/4s) ive(lam - 1/2, w/s) ds.

    Dyadic octaves in s, vectorized over w, with geometric extrapolation of
    the power-law upper tail (exponent (alpha - Q)/2 - 1 once w/s << 1).
    """
    nu = lam - 0.5
    xg, wg = _gl_cached(24)

    def octave(k: int, wvals: np.ndarray):
        a, b = 2.0 ** k, 2.0 ** (k + 1)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * xg
        g = s ** (0.5 * alpha - 2.0) * np.exp(-0.25 / s) * bessel_i(
            nu, wvals[:, None] / s[None, :], scaled=True
        )
        return half * (g @ wg)

    total = np.zeros_like(w)
    # downward: the exp(-1/4s) factor kills everything below s ~ 1e-3
    for k in range(-3, -14, -1):
        total += octave(k, w)
    prev = None
    vals_hist = []
    err = np.zeros_like(w)
    k = -2
    # upward until every component's octave falls below the relative target
    while k <= 140:
        v = octave(k, w)
        total += v
        vals_hist.append(v)
        if len(vals_hist) >= 3:
            v1, v2 = np.abs(vals_hist[-1]), np.abs(vals_hist[-2])
            if np.all(v1 <= rel_tol * np.abs(total)):
                break
        k += 1
    if len(vals_hist) >= 3:
        v1, v2, v3 = np.abs(vals_hist[-1]), np.abs(vals_hist[-2]), np.abs(vals_hist[-3])
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(v2 > 0, v1 / v2, 0.0)
            rho_prev = np.where(v3 > 0, v2 / v3, rho)
        stable = (np.abs(rho - rho_prev) < 0.02) & (rho < 0.95)
        tail = np.where(stable & (rho > 0), v1 * rho / (1.0 - rho), 0.0)
        total = total + tail
        err = tail * 0.05 + rel_tol * np.abs(total)
    return total, err


def frac_kernel(spec: KernelSpec, x, y, with_error: bool = False):
    """Kernel of the fractional power: heat subordination of order alpha.

    K_a(x, y) = Gamma(a)^(-1) * int_0^inf W_t(x, y) t^(a/2 - 1) dt, reduced by
    t = |x - y|^2 s to a scale-invariant integral in s (exact homogeneity of
    degree a - Q follows from the substitution).
    """
    if spec.kind != "fractional":
        raise ValueError("spec.kind must be 'fractional'")
    x, y, scalar = _broadcast_xy(x, y)
    if np.any(x == y):
        raise ValueError("fractional kernel is singular on the diagonal")
    lam, alpha = spec.space.lam, spec.alpha
    d = np.abs(x - y)
    w = x * y / (2.0 * d * d)
    base, berr = _frac_s_integral(lam, alpha, w, rel_tol=min(1e-10, spec.quad.rel_tol))
    pref = d ** (alpha - 2.0) * (x * y) ** (0.5 - lam) / (2.0 * math.exp(log_gamma(alpha)))
    val = pref * base
    err = pref * berr
    if scalar:
        val, err = float(val[0]), float(err[0])
    return (val, err) if with_error else val


def frac_kernel_x_derivative(spec: KernelSpec, x: float, y: float) -> float:
    """Central finite difference of K_a in its first argument.

    Step h = 1e-4 * min(x, |x - y|); raises once the step underflows the
    spacing representable near the diagonal.
    """
    h = 1e-4 * min(x, abs(x - y))
    if h <= 1e-13 * x:
        raise ValueError("finite-difference step collapsed near the diagonal")
    up = frac_kernel(spec, x + h, y)
    dn = frac_kernel(spec, x - h, y)
    return (up - dn) / (2.0 * h)


_DISPATCH = {
    "heat": heat_kernel,
    "poisson": poisson_kernel,
    "conj_poisson": conj_poisson_kernel,
    "riesz": riesz_kernel,
    "fractional": frac_kernel,
}


def kernel_value(spec: KernelSpec, x, y, with_error: bool = False):
    """Evaluate whichever kernel the spec names."""
    return _DISPATCH[spec.kind](spec, x, y, with_error=with_error)
