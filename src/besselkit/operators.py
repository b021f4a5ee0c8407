"""Operators: kernels applied to functions, commutators, maximal functions.

The four kernel operators (``apply_semigroup``, ``apply_riesz``,
``apply_frac``, ``commutator``) integrate K(x, y) w(y) dm(y) over the
(compact) support of f, with w = f, or w = (b(x) - b(y)) f(y) for the fused
commutator [b, T] f(x), which stays stable where b Tf - T(bf) cancels.  They
make one call, ``_apply``, at the kernel's ``quad`` tolerance, and the kernel
picks the route.

Fractional kernels: each side of x is integrated in a power of |y - x| that
cancels the diagonal growth, with f's and b's nodes as breakpoints.

Heat, Poisson and conjugate Poisson kernels: w is affine (f) or quadratic
((b(x) - b) f) in t = y - x on each cell of f's and b's grids, and the
smooth factor K(x, y) y^(2 lam) is interpolated on Chebyshev panels and
integrated exactly against it, so the cost follows the kernel, not the
grids.  The panels start at the support's octaves and at x ± l 2^k below
the support's end, l = sqrt(t) (heat) or t (Poisson).

The Riesz kernel takes the same route on panels at x ± x 2^-k, k = 1..12.
For x within a factor 2 of the support (farther off, the terms would cancel)
it is split as

    R(x, y) y^(2 lam) = 1/(pi t) + (lam/(pi x)) log|t| + h(x, y),

h bounded: the first two terms, and with them the principal value, are
integrated against w in closed form, and only h is sampled.

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
from scipy.special import xlogy

from .kernels import KernelSpec, kernel_value
from .measure import GridCumulative, GridFunction, MeasureSpace, _cells
from .quadrature import (IntegralResult, QuadConfig, integrate_adaptive, integrate_product,
                         integrate_pv)  # noqa: F401  (bench/spans.py wraps it here)

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
    """A kernel plus an optional commutator symbol.

    ``pv`` is not read: every operator integrates at ``kernel.quad``.  The
    field stays for the callers that still pass it.
    """

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


def _singular_integrals(ends: np.ndarray, alpha, beta, gamma, size) -> tuple[float, float]:
    """(PV ∫ w/t dt, ∫ w log|t| dt) in closed form for w = alpha + beta t +
    gamma t^2 on each cell of ``ends``.  ∫ alpha/t is summed over the ends
    as log|end| times the jump of alpha there, so an end at t = 0 adds
    nothing where w is continuous; a jump there beyond the rounding that
    ``size`` bounds has no principal value and raises ValueError."""
    jump = -np.diff(np.pad(alpha, 1))  # alpha of the cell below each end minus the one above
    padded = np.pad(size, 1)
    at_0 = ends == 0.0
    if np.any(at_0 & (np.abs(jump) > 8.0 * np.finfo(float).eps * (padded[:-1] + padded[1:]))):
        raise ValueError("the weight jumps at x: no principal value")

    def primitives(t):
        tl = xlogy(t, np.abs(t))  # t log|t|, 0 at t = 0
        return (t * (beta + 0.5 * gamma * t), alpha * (tl - t)
                + beta * t * (0.5 * tl - 0.25 * t) + gamma * t * t * (tl / 3.0 - t / 9.0))

    (p1, l1), (p0, l0) = primitives(ends[1:]), primitives(ends[:-1])
    pole = np.dot(jump[~at_0], np.log(np.abs(ends[~at_0]))) + np.sum(p1 - p0)
    return float(pole), float(np.sum(l1 - l0))


def _radial(g, x: float, lo: float, hi: float, gamma: float, cfg: QuadConfig,
            nodes: np.ndarray) -> IntegralResult:
    """∫_lo^hi g(u, r) du with r = |u - x|, each side of x in s = r^gamma.

    The Jacobian r^(1 - gamma)/gamma cancels an r^(gamma - 1) growth of g at
    the diagonal, and r never comes from rounding x - u.  The nodes on each
    side are its breakpoints in s.
    """
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


def _affine_on(g: GridFunction, edges: np.ndarray):
    """g's affine pieces (a, b) on the cells of ``edges``, which refine g's grid; 0 off it."""
    j, _, _, a, b = g.segments(edges[:-1], edges[1:])
    return np.bincount(j, a, minlength=edges.size - 1), np.bincount(j, b, minlength=edges.size - 1)


def _apply(k: KernelSpec, f: GridFunction, b: GridFunction | None, x: float) -> float:
    """∫ K(x, y) w(y) dm(y) for w = f, or for w = (b(x) - b(y)) f(y), the
    commutator [b, T] f(x); the kernel picks the route (module docstring)."""
    if not 0 < x < math.inf:
        raise ValueError(f"need a finite x > 0, got {x}")
    lo, hi = f.support
    bx = 0.0 if b is None else b(x)
    if k.kind == "fractional":
        density = _density(k, f, x)
        if b is None:
            g, nodes = lambda y, r: density(y), f.nodes
        else:
            g, nodes = lambda y, r: (bx - b(y)) * density(y), np.concatenate([f.nodes, b.nodes])
        res = _radial(g, x, lo, hi, min(k.alpha, 1.0), k.quad, nodes)
        return _value(res, "fractional quadrature")
    # w on each cell of ``edges``, in t = y - x: alpha + beta t (+ gamma t^2)
    if b is None:
        edges, v = f.nodes, f.values
        linear = f.interp == "linear"
        fb = (v[1:] - v[:-1]) / (edges[1:] - edges[:-1]) if linear else np.zeros(v.size - 1)
        fa = v[:-1] - fb * edges[:-1]
        coefs, b_size = (fa + fb * x, fb), 1.0
    else:
        edges = np.unique(np.concatenate([f.nodes, b.nodes[(b.nodes > lo) & (b.nodes < hi)]]))
        (fa, fb), (ba, bb) = _affine_on(f, edges), _affine_on(b, edges)
        # f = phi + fb t and b(x) - b = d - bb t
        phi, d = fa + fb * x, bx - (ba + bb * x)
        coefs = (d * phi, d * fb - bb * phi, -bb * fb)
        b_size = abs(bx) + np.abs(ba) + np.abs(bb * x)
    ends = edges - x
    lam = k.space.lam
    if k.kind == "riesz":
        scale, top = x * 2.0 ** -12, x  # one round meets the default tolerance
    else:
        scale, top = math.sqrt(k.t) if k.kind == "heat" else k.t, hi
    split = k.kind == "riesz" and lo <= 2 * x <= 4 * hi
    pole, c_log, pv, logs = 0.0, 0.0, 0.0, 0.0
    if split:
        pole, c_log = 1.0 / math.pi, lam / (math.pi * x)
        size = b_size * (np.abs(fa) + np.abs(fb * x))
        pv, logs = _singular_integrals(ends, *coefs[:2], 0.0 if b is None else coefs[2], size)

    def weight(t):
        y = x + t
        kw = kernel_value(k, x, y) * y ** (2.0 * lam)
        if not split:
            return kw
        t = y - x  # the distance the kernel sees
        return kw - (pole / t + c_log * np.log(np.abs(t)))

    def pieces(p_lo, p_hi):
        j, i, u, v = _cells(ends, p_lo, p_hi)
        return (j, u, v) + tuple(c[i] for c in coefs)

    # y^(2 lam) is analytic in a disc of radius y about y, and K varies on the
    # scale l about x: a peak much narrower than an octave would fall between
    # the first panels' points and never be seen without the second ladder
    octaves = lo * 2.0 ** np.arange(1, math.ceil(math.log2(hi / lo)))
    steps = scale * 2.0 ** np.arange(max(0, math.ceil(math.log2(top / scale))))
    breaks = np.concatenate([octaves - x, [0.0], -steps, steps])
    res = integrate_product(weight, pieces, ends[0], ends[-1], k.quad, breaks)
    return _value(res, f"{k.kind} quadrature") + pole * pv + c_log * logs


def apply_semigroup(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """(K_t f)(x) = ∫ K_t(x, y) f(y) dm(y) for the heat/Poisson families."""
    if spec.kernel.kind not in ("heat", "poisson", "conj_poisson"):
        raise ValueError("apply_semigroup expects a heat or Poisson-type kernel")
    return _apply(spec.kernel, f, None, x)


def apply_riesz(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """Riesz transform of f at x, a principal value when x is in supp f."""
    if spec.kernel.kind != "riesz":
        raise ValueError("apply_riesz expects the riesz kernel")
    return _apply(spec.kernel, f, None, x)


def apply_frac(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """Fractional integral of f at x; integrable diagonal, no PV needed."""
    if spec.kernel.kind != "fractional":
        raise ValueError("apply_frac expects the fractional kernel")
    return _apply(spec.kernel, f, None, x)


def commutator(spec: OperatorSpec, f: GridFunction, x: float) -> float:
    """[b, T] f(x) = ∫ (b(x) - b(y)) K(x, y) f(y) dm(y), fused form, b = ``spec.symbol``."""
    if spec.symbol is None:
        raise ValueError("commutator requires a symbol in the operator spec")
    return _apply(spec.kernel, f, spec.symbol, x)


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
    if not 0 <= x < math.inf:
        raise ValueError(f"need a finite x >= 0, got {x}")
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
