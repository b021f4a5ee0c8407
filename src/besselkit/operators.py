"""Operators: kernels applied to functions, commutators, maximal functions.

Semigroup and fractional applications are absolutely convergent integrals
over the (compact) support of the input; fractional ones are taken on each
side of x in a power of |y - x| that cancels the diagonal growth.  The Riesz
transform at points of the support is a principal value: the kernel's even
log singularity is subtracted in closed form and the rest goes to the
folded integrator.  Every integral starts from the input's nodes (and the
symbol's) as breakpoints, so the integrator begins on the interpolant's own
affine pieces instead of searching for its kinks.  Commutators always
integrate the fused form

    int (b(x) - b(y)) K(x, y) f(y) dm(y),

which is stable where the two-term difference b*Tf - T(bf) cancels; the
symbol factor tames the Riesz diagonal down to an integrable singularity.

The Hardy-Littlewood maximal functions are exact on grid functions: the
supremum over all intervals containing x is found by Dinkelbach's iteration
over the grid's own breakpoints.  ``h_beta_maximal`` takes an array family
of intervals and evaluates, in batched calls, all pairs of centre and radius
of the refined ladder, which contains every radius of the given one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import RIESZ_DIAGONAL_GUARD, KernelSpec, kernel_value
from .measure import GridCumulative, GridFunction, MeasureSpace
from .quadrature import IntegralResult, QuadConfig, integrate_adaptive, integrate_pv

__all__ = [
    "OperatorSpec",
    "LadderConfig",
    "apply_semigroup",
    "apply_riesz",
    "apply_frac",
    "commutator",
    "hl_maximal",
    "hl_maximal_t",
    "frac_integral_Igamma",
    "h_beta_maximal",
    "oscillation_family",
]


@dataclass(frozen=True)
class OperatorSpec:
    """A kernel plus optional commutator symbol and PV settings."""

    kernel: KernelSpec
    symbol: GridFunction | None = None
    pv: QuadConfig = field(default_factory=QuadConfig)


@dataclass(frozen=True)
class LadderConfig:
    """Quantized interval family: geometric radii, centers on the grid."""

    r_min: float
    r_max: float
    ratio: float = math.sqrt(2.0)

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < math.inf and 1 < self.ratio < math.inf):
            raise ValueError("need 0 < r_min < r_max < inf and 1 < ratio < inf")

    def radii(self) -> np.ndarray:
        n = int(math.floor(math.log(self.r_max / self.r_min) / math.log(self.ratio))) + 1
        return self.r_min * self.ratio ** np.arange(n + 1)

    def refine(self) -> "LadderConfig":
        return LadderConfig(self.r_min / self.ratio, self.r_max * self.ratio,
                            math.sqrt(self.ratio))


# ---------------------------------------------------------------------------
# kernel applications
# ---------------------------------------------------------------------------


def _density(k: KernelSpec, f: GridFunction, x: float):
    """y -> K(x, y) f(y) y^(2 lam), the integrand of (Tf)(x) against dy."""
    w = 2.0 * k.space.lam

    def density(y):
        return kernel_value(k, x, y) * f(y) * y ** w

    return density


def _value(res: IntegralResult, what: str) -> float:
    if not res.converged:
        raise ArithmeticError(f"{what} did not converge")
    return res.value


def apply_semigroup(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """(K_t f)(x) = ∫ K_t(x, y) f(y) dm(y) for the heat/Poisson families."""
    k = spec.kernel
    if k.kind not in ("heat", "poisson", "conj_poisson"):
        raise ValueError("apply_semigroup expects a heat or Poisson-type kernel")
    lo, hi = f.support
    res = integrate_adaptive(_density(k, f, x), lo, hi, k.quad, f.nodes)
    return _value(res, "semigroup application")


def _outside_band(g, x: float):
    """g with arguments inside the band |y - x| < 4 RIESZ_DIAGONAL_GUARD x,
    which the Riesz kernel refuses, moved to the band's nearer edge.  For an
    integrand bounded across x this costs O(band^2), and its odd part keeps
    cancelling in a folded integral."""
    band = 4.0 * RIESZ_DIAGONAL_GUARD * x

    def clamped(y):
        return g(np.where(np.abs(y - x) < band, np.where(y < x, x - band, x + band), y))

    return clamped


def apply_riesz(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """Riesz transform of f at x: principal value when x sits in supp f.

    Inside the support the kernel's even log part is taken out in closed
    form: R(x, y) y^(2 lam) = 1/(pi (y - x)) + (lam/(pi x)) log|y - x| +
    bounded, so the PV integrand F(y) - c log|y - x|, c = lam f(x)/(pi x),
    is an odd pole plus a bounded part, and c ∫ log|y - x| dy is added back.
    """
    k = spec.kernel
    if k.kind != "riesz":
        raise ValueError("apply_riesz expects the riesz kernel")
    lo, hi = f.support
    density = _density(k, f, x)
    if not lo < x < hi:
        return _value(integrate_adaptive(density, lo, hi, k.quad, f.nodes), "riesz application")
    c = k.space.lam * f(x) / (math.pi * x)
    subtracted = _outside_band(lambda y: density(y) - c * np.log(np.abs(y - x)), x)
    res = integrate_pv(subtracted, x, lo, hi, spec.pv, f.nodes)
    return res.value + c * sum(L * math.log(L) - L for L in (x - lo, hi - x))


def _radial(g, x: float, lo: float, hi: float, gamma: float, cfg: QuadConfig,
            nodes: np.ndarray) -> IntegralResult:
    """∫_lo^hi g(u, r) du with r = |u - x|, each side of x in s = r^gamma.

    The Jacobian r^(1 - gamma)/gamma cancels an r^(gamma - 1) growth of g at
    the diagonal, and r never comes from rounding x - u.  The nodes on each
    side are its breakpoints in s.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"need a finite x >= 0, got {x}")
    pieces = []
    for sign, r0, r1 in ((-1.0, max(x - hi, 0.0), x - lo), (1.0, max(lo - x, 0.0), hi - x)):
        if r1 <= r0:
            continue

        def integrand(s, sign=sign):
            r = s ** (1.0 / gamma)
            return g(x + sign * r, r) * r / (gamma * s)

        breaks = np.abs(nodes[np.sign(nodes - x) == sign] - x) ** gamma
        pieces.append(integrate_adaptive(integrand, r0 ** gamma, r1 ** gamma, cfg, breaks))
    return IntegralResult(sum(p.value for p in pieces), sum(p.error for p in pieces),
                          all(p.converged for p in pieces))


def apply_frac(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """Fractional integral of f at x; integrable diagonal, no PV needed.

    K_a(x, y) grows like |x - y|^(a - 1) for a < 1, so each side of x is
    integrated in s = |y - x|^min(a, 1), where the integrand is bounded.
    """
    k = spec.kernel
    if k.kind != "fractional":
        raise ValueError("apply_frac expects the fractional kernel")
    lo, hi = f.support
    density = _density(k, f, x)
    res = _radial(lambda y, r: density(y), x, lo, hi, min(k.alpha, 1.0), k.quad, f.nodes)
    return _value(res, "fractional application")


def commutator(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """[b, T] f(x) = ∫ (b(x) - b(y)) K(x, y) f(y) dm(y), fused form.

    For the Riesz kernel the symbol difference reduces the diagonal to an
    integrable singularity, and the integrand is held at its value on the
    edge of the band around x that the kernel refuses (``_outside_band``).
    """
    k = spec.kernel
    b = spec.symbol
    if b is None:
        raise ValueError("commutator requires a symbol in the operator spec")
    lo, hi = f.support
    w = 2.0 * k.space.lam
    bx = b(x)
    # x as a breakpoint too: panels grade into a fractional diagonal
    breaks = np.concatenate([f.nodes, b.nodes, [x]])

    def integrand(y):
        return (bx - b(y)) * kernel_value(k, x, y) * f(y) * y ** w

    if k.kind == "riesz":
        integrand = _outside_band(integrand, x)
    return _value(integrate_adaptive(integrand, lo, hi, k.quad, breaks), "commutator quadrature")


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------


# Dinkelbach's iteration settles in 3-6 steps on the benchmark's step
# functions; one still moving after this many steps is reported.
_DINKELBACH_STEPS = 64
_T_REFINEMENTS = 2  # midpoint refinements of the grid hl_maximal_t samples a linear |f|^t on
_DIVERGENCE_FACTOR = 2.0  # growth of the h_beta sup under refinement reported as +inf
_FAMILY_PAIRS = 64  # pairs per h_beta family call; each holds up to one piece per cell


def hl_maximal(
    space: MeasureSpace,
    f: GridFunction,
    x: float,
    ladder: LadderConfig | None = None,
) -> float:
    """Exact sup over [a, b] ∋ x, 0 <= a, of the m-average of |f|.

    Dinkelbach's iteration: the excess ∫_a^b (|f| - M) dm is maximized over a
    and b separately, among 0, x, the nodes and the crossings |f| = M, and M
    rises to the best interval's average until no excess is positive.
    Raises ArithmeticError if the iteration does not settle.
    """
    # ``ladder`` is ignored; the benchmark's self-test still passes one.
    if not 0 <= x < math.inf:
        raise ValueError(f"need a finite x >= 0, got {x}")
    g = f.abs()
    cum = GridCumulative(space, g)
    _, u, v, a, b = cum.pieces
    best = float(g(x))
    for _ in range(_DINKELBACH_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (best - a) / b
        ends = np.concatenate([[0.0, x], g.nodes, cross[(cross > u) & (cross < v)]])
        left, right = ends[ends <= x], ends[ends >= x]
        gain_l = cum.between(left, x) - best * space.segment_measure(left, x)
        gain_r = cum.between(x, right) - best * space.segment_measure(x, right)
        i, j = int(np.argmax(gain_l)), int(np.argmax(gain_r))
        if gain_l[i] + gain_r[j] <= 0.0:
            return best
        lo, hi = left[i], right[j]
        average = float(cum.between(lo, hi) / space.segment_measure(lo, hi))
        if average <= best:  # the excess was positive by rounding only
            return best
        best = average
    raise ArithmeticError("maximal function supremum did not settle")


def hl_maximal_t(space: MeasureSpace, f: GridFunction, x: float, t_power: float) -> float:
    """M_t f = (M(|f|^t))^(1/t), t >= 1; a linear f is sampled on a
    midpoint-refined carrier grid, a step function on its own nodes."""
    if not 1.0 <= t_power < math.inf:
        raise ValueError(f"need a finite t_power >= 1, got {t_power}")
    nodes = f.nodes
    if f.interp == "linear":  # |f|^t of a step function is exact on f's nodes
        for _ in range(_T_REFINEMENTS):
            nodes = np.unique(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
    g = GridFunction(nodes, np.abs(f(nodes)) ** t_power, f.interp)
    return hl_maximal(space, g, x) ** (1.0 / t_power)


def frac_integral_Igamma(
    space: MeasureSpace, f: GridFunction, gamma: float, x: float,
    cfg: QuadConfig = QuadConfig(),
) -> float:
    """∫ f(u) m(I(x, |x-u|))^(gamma - 1) dm(u) for 0 < gamma < 1."""
    if not 0 < gamma < 1:
        raise ValueError("need 0 < gamma < 1")
    lo, hi = f.support
    w = 2.0 * space.lam

    def integrand(u, r):
        return f(u) * space.ball_measure(x, r) ** (gamma - 1.0) * u ** w

    return _value(_radial(integrand, x, lo, hi, gamma, cfg, f.nodes), "fractional integral")


def oscillation_family(space: MeasureSpace, g: GridFunction):
    """``family(c, r)``: ∫_I |g - g_I| dm on each ball I = I(c, r), c and r arrays;
    the h_beta_maximal family of the oscillation of a fixed operator output."""

    def family(c, r):
        lo, hi = np.maximum(c - r, 0.0), c + r
        mean = g.integrate_dm(space, lo, hi) / space.ball_measure(c, r)
        return g.integrate_abs_dev_dm(space, mean, lo, hi)

    return family


def h_beta_maximal(
    space: MeasureSpace,
    family,
    beta: float,
    x: float,
    ladder: LadderConfig,
    centers: np.ndarray | None = None,
) -> float:
    """sup over ladder intervals I with x in I of m(I)^(-1-beta/Q) * family(I).

    ``family(c, r)`` returns ∫_I |h^I| dm on each I = I(c, r) for arrays of at
    most ``_FAMILY_PAIRS`` centres and radii.  Intervals are centred at x and
    at the ``centers`` within one radius of x.  The sup is taken in one scan
    of ``ladder.refine()``, which halves the log-step and adds one step of
    ``ladder`` at each end, so its radii with indices 2, 4, ..., 2n are the n
    radii of ``ladder``.  A refined sup above ``_DIVERGENCE_FACTOR`` times the
    coarse one reports +inf (the sup is not stabilizing).
    """
    expo = -(1.0 + beta / space.upper_dim)
    radii = ladder.refine().radii()
    cand = np.append([] if centers is None else centers, x)
    ri, ci = np.nonzero((cand > x - radii[:, None]) & (cand < x + radii[:, None]))
    c, r = cand[ci], radii[ri]
    if not (0 <= beta < math.inf and 0 < x < math.inf and (c > 0).all()):
        raise ValueError("need finite beta >= 0 and x > 0, and centers > 0 within reach of x")
    fam = np.concatenate([family(c[s:s + _FAMILY_PAIRS], r[s:s + _FAMILY_PAIRS])
                          for s in range(0, c.size, _FAMILY_PAIRS)])
    sup = np.zeros(radii.size)
    np.maximum.at(sup, ri, space.ball_measure(c, r) ** expo * fam)
    coarse = sup[2 : 2 * ladder.radii().size + 1 : 2].max()
    fine = sup.max()
    if coarse > 0 and fine > _DIVERGENCE_FACTOR * coarse:
        return float("inf")
    return float(fine)
