"""Adaptive 1-d integration: finite intervals, products with piecewise
polynomial weights, and principal values.

One panel rule serves both integrators: the integrand's smooth factor is
interpolated at 16 Chebyshev points per panel, the interpolant is integrated
exactly against polynomial weight pieces of degree at most 2, and the error
is the interpolant's coefficient tail times a bound on ∫ |w|.

- ``integrate_adaptive``: ∫ f against the weight 1 (Fejér's first rule).
- ``integrate_product``: ∫ g w for a smooth g and a piecewise polynomial w
  given by its pieces.  Only g is sampled, so the panels follow g's scale,
  not w's breakpoints.

Refinement is level-synchronous: the panels start at the caller's known
breakpoints, every round evaluates all active panels in batched integrand
calls, freezes those whose errors are already small enough and bisects the
rest.  Nodes are interior, so integrable endpoint singularities never get
evaluated at the endpoint; bisection grades the mesh geometrically into
them.  Integrands must accept numpy arrays.

``integrate_pv`` folds a principal value: the integrand's two sides of the
singular point are summed at equal distances, which cancels an odd
1/(x - s) part exactly and leaves an ordinary integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_adaptive",
    "integrate_product",
    "integrate_pv",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and the bisection depth limit shared by the integrators."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_depth: int = 60

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not self.max_depth >= 0:
            raise ValueError("max_depth must be nonnegative")


class IntegralResult(NamedTuple):
    value: float
    error: float
    converged: bool


# Points per integrand call: rounds of many panels are evaluated in chunks
# of whole panels of at most this many points, which bounds the memory of
# one call whatever the panel count.
_CHUNK = 4096
# Panels evaluated per integral at most; an integrand that keeps every panel
# busy stops here with its error estimate as it stands.
_PANEL_BUDGET = 400_000
# Chebyshev points per panel; every one is interior.
_CHEB_N = 16
_EPS = float(np.finfo(float).eps)


@lru_cache(maxsize=1)
def _cheb():
    """The _CHEB_N first-kind Chebyshev points on [-1, 1], and for m = 0, 2, 3
    the matrix that maps values there, in one product, to the Chebyshev
    coefficients of ∫_-1^s u^l p(u) du for l < m, p their interpolant, then
    to ∫_-1^1 p (Fejér's first rule) and to p's own last two coefficients."""
    n = _CHEB_N
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    to_coef = chebyshev.chebvander(nodes, n - 1).T * (2.0 / n)
    to_coef[0] *= 0.5
    # s T_0 = T_1 and s T_k = (T_(k+1) + T_(k-1))/2
    times_s = 0.5 * (np.eye(n + 2, n + 1, -1) + np.eye(n + 2, n + 1, 1))
    times_s[1, 0] = 1.0
    moments = [to_coef, times_s[:-1, :-1] @ to_coef]
    moments.append(times_s @ moments[1])
    blocks = [chebyshev.chebint(m, lbnd=-1.0) for m in moments]
    tail = [blocks[0].sum(axis=0), to_coef[-2:]]
    return nodes, {m: np.vstack(blocks[:m] + tail).T for m in (0, 2, 3)}


def _rounds(rule: Callable, a: float, b: float, cfg: QuadConfig, breaks) -> IntegralResult:
    """The refinement loop of the panel rule.

    ``rule(lo, hi)`` returns the (value, error) arrays of the panels
    (lo, hi).  The panels start at (a, b) cut at the ``breaks`` that lie
    inside it.  Each round evaluates all active panels at once.  The panels
    with the smallest errors are frozen while their errors, with those
    frozen before, fit half of max(abs_tol, rel_tol * |value|); the others
    are bisected and make the next round.  It stops once the summed
    estimate meets the tolerance, or at the first round whose total is not
    finite.  Panels that reach ``max_depth`` stop subdividing, and after
    _PANEL_BUDGET panels all do; if the tolerance is still unmet, or the
    total is not finite, the result is returned with ``converged=False``.
    """
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    edges = np.array([a, b], dtype=float)
    if breaks is not None:
        inner = np.asarray(breaks, dtype=float).ravel()
        edges = np.unique(np.concatenate([edges, inner[(inner > a) & (inner < b)]]))
    lo, hi = edges[:-1], edges[1:]
    depth = 0
    frozen_v = frozen_e = 0.0
    exhausted = False
    used = 0
    while True:
        v, e = rule(lo, hi)
        used += lo.size
        total_v = frozen_v + float(np.sum(v))
        total_e = frozen_e + float(np.sum(e))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_v))
        # a non-finite total: a sample hit a singularity, and bisecting finds more
        if total_e <= tol or not math.isfinite(total_v + total_e):
            break
        # smallest errors first: freeze the prefix that fits tol/2
        order = np.argsort(e)
        n_freeze = int(np.searchsorted(frozen_e + np.cumsum(e[order]), 0.5 * tol, side="right"))
        split = order[n_freeze:]
        if depth >= cfg.max_depth:
            exhausted = True
            split = split[:0]
        # within the budget, the largest errors are bisected
        split = split[split.size - min(split.size, (_PANEL_BUDGET - used) // 2):]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        frozen_v += float(np.sum(v[keep]))
        frozen_e += float(np.sum(e[keep]))
        if split.size == 0:
            break
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        depth += 1
    # an inf total makes tol inf too: only a finite total can meet it
    converged = math.isfinite(total_v) and (total_e <= tol or (not exhausted and total_e <= 4 * tol))
    return IntegralResult(total_v, total_e, converged)


def _product_panels(g: Callable, pieces: Callable | None, lo: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, error) of ∫ g w over every panel (lo, hi) by product integration.

    ``pieces(lo, hi)`` gives w's pieces in the panels, (k, y0, y1, a, b[, c]):
    w = a + b y + c y^2 on (y0, y1) in panel k, as ``GridFunction.segments``
    does with c = 0.  g is interpolated at the _CHEB_N Chebyshev points of
    each panel, and the interpolant p(s), s the panel's local coordinate, is
    integrated exactly against the pieces: with y = mid + half s a piece is
    A + B s + C s^2 and contributes half [A ΔP + B ΔQ + C ΔR], P, Q and R
    the antiderivatives of p, s p and s^2 p.  The error is the coefficient
    tail |c_(n-2)| + |c_(n-1)| (two, so a panel even or odd about its
    midpoint cannot hide it) times a bound on ∫ |w| dy, plus eps times the
    summed sizes of the terms.  ``pieces=None`` is the weight 1 on whole
    panels: Fejér's first rule, and the tail times the panel's width.
    """
    nodes, maps = _cheb()
    n = nodes.size
    # points and local coordinates are measured from each panel's lower edge,
    # so that its edges map to -1 and 1 exactly and neighbours leave no sliver
    half = 0.5 * (hi - lo)
    step = _CHUNK // n
    val = np.empty(lo.size)
    err = np.empty(lo.size)
    for i in range(0, lo.size, step):
        j = min(i + step, lo.size)
        start, h = lo[i:j], half[i:j]
        samples = np.asarray(g((start[:, None] + h[:, None] * (1.0 + nodes)).ravel()), dtype=float)
        k, y0, y1, *w = pieces(lo[i:j], hi[i:j]) if pieces else (None, None, None)
        m = len(w)  # coefficients a piece: none for the weight 1, 2 affine, 3 quadratic
        # an inf sample makes inf * 0 here; the non-finite total reports it
        with np.errstate(invalid="ignore"):
            coef = samples.reshape(j - i, n) @ maps[m]
        tail = np.abs(coef[:, -2:]).sum(axis=1)
        if not m:
            val[i:j] = h * coef[:, -3]
            err[i:j] = 2.0 * h * tail + _EPS * np.abs(val[i:j])
            continue
        lk, hk = start[k], h[k]
        # T_0 .. T_(n+m-1) at both ends of every piece, by the three-term recurrence
        s = (np.concatenate([y1, y0]) - np.tile(lk, 2)) / np.tile(hk, 2) - 1.0
        cheb_t = np.empty((n + m, s.size))
        cheb_t[0], cheb_t[1] = 1.0, s
        for l in range(2, n + m):
            cheb_t[l] = 2.0 * s * cheb_t[l - 1] - cheb_t[l - 2]
        ends, col, moments = np.tile(k, 2), 0, []
        for l in range(n + 1, n + 1 + m):  # P, Q, R have n + 1, n + 2, n + 3 coefficients
            at_ends = np.einsum("ji,ij->i", cheb_t[:l], coef[ends, col:col + l])
            moments.append(at_ends.reshape(2, -1))
            col += l
        # w = A + B s (+ C s^2) in the panel's coordinate, and the sizes of the
        # terms before they cancel: a steep piece far from the panel's middle,
        # or one much shorter than the panel, loses their digits
        a, b, *c = w
        mk = lk + hk
        terms, sizes = [a + b * mk, b * hk], [np.abs(a) + np.abs(b * mk), np.abs(b) * hk]
        w0, w1, bulge = a + b * y0, a + b * y1, 0.0
        if c:
            c = c[0]
            terms = [terms[0] + c * mk * mk, terms[1] + 2.0 * c * mk * hk, c * hk * hk]
            sizes = [sizes[0] + np.abs(c * mk * mk), sizes[1] + np.abs(2.0 * c * mk * hk),
                     np.abs(c) * hk * hk]
            # |w - chord| is |c| (y - y0)(y1 - y), whose integral is |c| (y1 - y0)^3 / 6
            w0, w1, bulge = w0 + c * y0 * y0, w1 + c * y1 * y1, np.abs(c) * (y1 - y0) ** 3 / 6.0
        piece = hk * sum(t * (mo[0] - mo[1]) for t, mo in zip(terms, moments))
        rounding = hk * sum(z * np.abs(mo).sum(axis=0) for z, mo in zip(sizes, moments))
        # ∫|w| dy: the trapezoid rule bounds ∫|chord|, the bulge the rest
        abs_w = 0.5 * (y1 - y0) * (np.abs(w0) + np.abs(w1)) + bulge
        val[i:j] = np.bincount(k, piece, minlength=j - i)
        err[i:j] = (tail * np.bincount(k, abs_w, minlength=j - i)
                    + _EPS * np.bincount(k, rounding, minlength=j - i))
    return val, err


def integrate_adaptive(
    f: Callable, a: float, b: float, cfg: QuadConfig = QuadConfig(), breaks=None
) -> IntegralResult:
    """Globally adaptive integral of f over (a, b): the product rule against 1.

    The panels start at (a, b) cut at the ``breaks`` that lie inside it:
    kinks and other known breakpoints of f, which bisection would otherwise
    have to find.  Refinement and convergence are those of ``_rounds``.
    """
    return _rounds(partial(_product_panels, f, None), a, b, cfg, breaks)


def integrate_product(
    g: Callable, pieces: Callable, a: float, b: float, cfg: QuadConfig = QuadConfig(), breaks=None
) -> IntegralResult:
    """∫_a^b g(y) w(y) dy for smooth g and piecewise polynomial w, by product integration.

    ``pieces(lo, hi)`` gives w's pieces, of degree at most 2, in the windows
    (lo, hi) (see ``_product_panels``; ``GridFunction.segments`` gives a
    grid function's).  Only g is sampled, so the panels follow g's scale,
    not w's breakpoints.  They start at (a, b) cut at the ``breaks`` inside
    it, where g is not smooth or changes scale; refinement and convergence
    are those of ``_rounds``.
    """
    return _rounds(partial(_product_panels, g, pieces), a, b, cfg, breaks)


def integrate_pv(
    f: Callable,
    singular_point: float,
    a: float,
    b: float,
    cfg: QuadConfig = QuadConfig(),
    breaks=None,
) -> IntegralResult:
    """Principal value of ∫_a^b f around one interior odd-type singularity.

    With w = min(s - a, b - s), the window (s - w, s + w) is folded onto
    ∫_0^w (f(s + u) + f(s - u)) du, where a 1/(x - s) part cancels exactly;
    the rest of the longer side is integrated plainly.  The ``breaks`` are
    reflected to |break - s| for the folded integral.  Raises ValueError if
    either integral does not converge: the singularity is then not
    principal-value integrable (or the budget is too small).
    """
    s = singular_point
    if not (a < s < b):
        raise ValueError("singular point must lie strictly inside (a, b)")
    w = min(s - a, b - s)
    breaks = np.empty(0) if breaks is None else np.asarray(breaks, dtype=float).ravel()

    def folded(u):
        # both sides at the distance that s + u rounds to: s - u is then exact
        # and the pole cancels even across a power of 2.  Where that distance
        # reaches the window's end, u itself keeps s - u inside the window
        up = (s + u) - s
        u = np.where(up < w, up, u)
        y = f(np.concatenate([s + u, s - u]))
        return y[:u.size] + y[u.size:]

    pieces = [integrate_adaptive(folded, 0.0, w, cfg, np.abs(breaks - s))]
    lo, hi = (a, s - w) if s - a > b - s else (s + w, b)
    if lo < hi:
        pieces.append(integrate_adaptive(f, lo, hi, cfg, breaks))
    if not all(p.converged for p in pieces):
        raise ValueError("principal value did not converge")
    return IntegralResult(sum(p.value for p in pieces), sum(p.error for p in pieces), True)
