"""Operators: kernels applied to functions, commutators, maximal functions.

Semigroup and fractional applications are absolutely convergent integrals
over the (compact) support of the input; the Riesz transform at points of
the support is a principal value and routes through the symmetric-excision
integrator.  Every integral starts from the input's nodes (and the
symbol's) as breakpoints, so the integrator begins on the interpolant's own
affine pieces instead of searching for its kinks.  Commutators always
integrate the fused form

    int (b(x) - b(y)) K(x, y) f(y) dm(y),

which is stable where the two-term difference b*Tf - T(bf) cancels; the
symbol factor tames the Riesz diagonal down to an integrable singularity.

The Hardy-Littlewood maximal functions are exact on grid functions: the
supremum over all intervals containing x is found by Dinkelbach's iteration
over the grid's own breakpoints.  ``h_beta_maximal`` takes an arbitrary
interval family and still scans a geometric ladder of radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import RIESZ_DIAGONAL_GUARD, KernelSpec, kernel_value
from .measure import GridCumulative, GridFunction, Interval, MeasureSpace, measure_interval
from .quadrature import QuadConfig, integrate_adaptive, integrate_pv

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
    "maximal_power_default",
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
        if not (0 < self.r_min < self.r_max and self.ratio > 1):
            raise ValueError("need 0 < r_min < r_max and ratio > 1")

    def radii(self) -> np.ndarray:
        n = int(math.floor(math.log(self.r_max / self.r_min) / math.log(self.ratio))) + 1
        return self.r_min * self.ratio ** np.arange(n + 1)

    def refine(self) -> "LadderConfig":
        return LadderConfig(self.r_min / self.ratio, self.r_max * self.ratio,
                            math.sqrt(self.ratio))


def maximal_power_default(p: float) -> float:
    """Default exponent t = s with t*s = (1 + p)/2 for the iterated maximal
    bounds; any 1 < t*s < p works, this sits in the middle of the range."""
    return math.sqrt((1.0 + p) / 2.0)


# ---------------------------------------------------------------------------
# kernel applications
# ---------------------------------------------------------------------------


def _support_window(f: GridFunction) -> tuple[float, float]:
    lo, hi = f.support
    if hi <= lo:
        raise ValueError("empty support")
    return lo, hi


def apply_semigroup(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """(K_t f)(x) = ∫ K_t(x, y) f(y) dm(y) for the heat/Poisson families."""
    k = spec.kernel
    if k.kind not in ("heat", "poisson", "conj_poisson"):
        raise ValueError("apply_semigroup expects a heat or Poisson-type kernel")
    lo, hi = _support_window(f)
    w = 2.0 * k.space.lam

    def integrand(y):
        return kernel_value(k, x, y) * f(y) * y ** w

    res = integrate_adaptive(integrand, lo, hi, k.quad, f.nodes)
    if not res.converged:
        raise ArithmeticError("semigroup application did not converge")
    return res.value


def apply_riesz(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """Riesz transform of f at x: principal value when x sits in supp f."""
    k = spec.kernel
    if k.kind != "riesz":
        raise ValueError("apply_riesz expects the riesz kernel")
    lo, hi = _support_window(f)
    w = 2.0 * k.space.lam

    def integrand(y):
        return kernel_value(k, x, y) * f(y) * y ** w

    if lo < x < hi:
        res = integrate_pv(integrand, x, lo, hi, spec.pv, f.nodes)
    else:
        res = integrate_adaptive(integrand, lo, hi, k.quad, f.nodes)
        if not res.converged:
            raise ArithmeticError("riesz application did not converge")
    return res.value


def apply_frac(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """Fractional integral of f at x; integrable diagonal, no PV needed."""
    k = spec.kernel
    if k.kind != "fractional":
        raise ValueError("apply_frac expects the fractional kernel")
    lo, hi = _support_window(f)
    w = 2.0 * k.space.lam

    def integrand(y):
        return kernel_value(k, x, y) * f(y) * y ** w

    # x as a breakpoint: panels grade into the (integrable) diagonal
    res = integrate_adaptive(integrand, lo, hi, k.quad, np.append(f.nodes, x))
    if not res.converged:
        raise ArithmeticError("fractional application did not converge")
    return res.value


def commutator(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """[b, T] f(x) = ∫ (b(x) - b(y)) K(x, y) f(y) dm(y), fused form.

    For the Riesz kernel the symbol difference reduces the diagonal to an
    integrable singularity; a band of relative width ~4e-6 around x (inside
    the kernel's own diagonal guard) is excised, which for a grid-backed
    (locally Lipschitz) symbol contributes O(band width) and is ignored.
    """
    k = spec.kernel
    b = spec.symbol
    if b is None:
        raise ValueError("commutator requires a symbol in the operator spec")
    lo, hi = _support_window(f)
    w = 2.0 * k.space.lam
    bx = b(x)
    # x as a breakpoint too: panels grade into a fractional diagonal
    breaks = np.concatenate([f.nodes, b.nodes, [x]])

    def integrand(y):
        return (bx - b(y)) * kernel_value(k, x, y) * f(y) * y ** w

    if k.kind == "riesz" and lo < x < hi:
        guard = 4.0 * RIESZ_DIAGONAL_GUARD * x
        pieces = []
        if x - guard > lo:
            pieces.append(integrate_adaptive(integrand, lo, x - guard, k.quad, breaks))
        if x + guard < hi:
            pieces.append(integrate_adaptive(integrand, x + guard, hi, k.quad, breaks))
        value = sum(p.value for p in pieces)
        if not all(p.converged for p in pieces):
            raise ArithmeticError("commutator quadrature did not converge")
        return value
    res = integrate_adaptive(integrand, lo, hi, k.quad, breaks)
    if not res.converged:
        raise ArithmeticError("commutator quadrature did not converge")
    return res.value


# ---------------------------------------------------------------------------
# maximal functions
# ---------------------------------------------------------------------------


# Dinkelbach's iteration settles in 3-6 steps on the benchmark's step
# functions; one still moving after this many steps is reported.
_DINKELBACH_STEPS = 64
_T_REFINEMENTS = 2  # midpoint refinements of the grid hl_maximal_t samples |f|^t on
_DIVERGENCE_FACTOR = 2.0  # growth of the h_beta sup under refinement reported as +inf


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
    g = f.abs()
    cum = GridCumulative(space, g)
    u, v, a, b = g.segments()
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
    """M_t f = (M(|f|^t))^(1/t), t >= 1, on a midpoint-refined carrier grid."""
    if t_power < 1.0:
        raise ValueError("need t_power >= 1")
    nodes = f.nodes
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
    lo, hi = _support_window(f)
    w = 2.0 * space.lam
    pieces = []
    # Each side of x is integrated in s = r^gamma, r = |u - x|: the Jacobian
    # r^(1 - gamma)/gamma cancels the r^(gamma - 1) growth of the measure
    # factor, and r never comes from rounding x - u.
    for sign, r0, r1 in ((-1.0, max(x - hi, 0.0), x - lo), (1.0, max(lo - x, 0.0), hi - x)):
        if r1 <= r0:
            continue

        def integrand(s, sign=sign):
            r = s ** (1.0 / gamma)
            u = x + sign * r
            return f(u) * space.ball_measure(x, r) ** (gamma - 1.0) * u ** w * r / (gamma * s)

        # the nodes on this side, as breakpoints in s
        breaks = np.abs(f.nodes[np.sign(f.nodes - x) == sign] - x) ** gamma
        pieces.append(integrate_adaptive(integrand, r0 ** gamma, r1 ** gamma, cfg, breaks))
    if not all(p.converged for p in pieces):
        raise ArithmeticError("fractional integral did not converge")
    return sum(p.value for p in pieces)


def oscillation_family(space: MeasureSpace, g: GridFunction):
    """Per-interval data ∫_I |g - g_I| dm: the family fed to h_beta_maximal
    when the local object is the oscillation of a fixed operator output."""

    def family(iv: Interval) -> float:
        mean = g.mean_dm(space, iv)
        return g.integrate_abs_dev_dm(space, mean, iv.left, iv.right)

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

    ``family(iv)`` must return ∫_I |h^I| dm for its own interval function.
    The sup is recomputed on a refined ladder; growth beyond
    ``_DIVERGENCE_FACTOR`` reports +inf (the sup is not stabilizing).
    """
    if beta < 0:
        raise ValueError("need beta >= 0")
    expo = -(1.0 + beta / space.upper_dim)

    def scan(lad: LadderConfig) -> float:
        best = 0.0
        for r in lad.radii():
            cand = np.array([x]) if centers is None else np.concatenate(
                [centers[(centers > x - r) & (centers < x + r)], [x]]
            )
            for c in cand:
                iv = Interval(float(c), float(r))
                m = measure_interval(space, iv)
                best = max(best, m ** expo * family(iv))
        return best

    coarse = scan(ladder)
    fine = scan(ladder.refine())
    if coarse > 0 and fine > _DIVERGENCE_FACTOR * coarse:
        return float("inf")
    return max(coarse, fine)
