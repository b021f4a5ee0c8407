"""Adaptive 1-d integration: finite intervals and principal values.

Panel rule: paired Gauss-Legendre evaluations (10 and 21 nodes) whose
difference drives bisection.  Refinement is level-synchronous: the panels
start at the caller's known breakpoints, every round evaluates all active
panels in batched integrand calls, freezes those whose errors are already
small enough and bisects the rest.  Nodes are interior, so integrable
endpoint singularities never get evaluated at the endpoint; bisection
grades the mesh geometrically into them.  Integrands must accept numpy
arrays.

Principal values are folded: the integrand's two sides of the singular
point are summed at equal distances, which cancels an odd 1/(x - s) part
exactly and leaves an ordinary integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import roots_legendre

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_adaptive",
    "integrate_pv",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and the bisection depth limit shared by the integrators."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_depth: int = 60

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


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


@lru_cache(maxsize=1)
def _gl_pair():
    """Nodes of the GL 10 and GL 21 rules side by side, and their weights."""
    x10, w10 = roots_legendre(10)
    x21, w21 = roots_legendre(21)
    return np.concatenate([x10, x21]), w10, w21


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, error) of every panel (lo, hi) from the GL 21/10 pair.

    Whole panels go to ``f`` in calls of at most _CHUNK points; the values
    and errors of a call's panels are two matvecs on its point values.
    """
    nodes, w10, w21 = _gl_pair()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    step = _CHUNK // nodes.size
    val = np.empty(lo.size)
    err = np.empty(lo.size)
    for i in range(0, lo.size, step):
        j = min(i + step, lo.size)
        y = f((mid[i:j, None] + half[i:j, None] * nodes).ravel())
        y = np.asarray(y, dtype=float).reshape(j - i, nodes.size)
        v10 = half[i:j] * (y[:, :10] @ w10)
        val[i:j] = half[i:j] * (y[:, 10:] @ w21)
        err[i:j] = np.abs(val[i:j] - v10)
    return val, err


def integrate_adaptive(
    f: Callable, a: float, b: float, cfg: QuadConfig = QuadConfig(), breaks=None
) -> IntegralResult:
    """Globally adaptive integral of f over (a, b).

    The panels start at (a, b) cut at the ``breaks`` that lie inside it:
    kinks and other known breakpoints of f, which bisection would otherwise
    have to find.  Each round evaluates all active panels at once.  The
    panels with the smallest errors are frozen while their errors, with
    those frozen before, fit half of max(abs_tol, rel_tol * |value|); the
    others are bisected and make the next round.  It stops once the summed
    estimate meets the tolerance.  Panels that reach ``max_depth`` stop
    subdividing, and after _PANEL_BUDGET panels all do; if the tolerance is
    still unmet, or the total is not finite, the result is returned with
    ``converged=False``.
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
        v, e = _panels(f, lo, hi)
        used += lo.size
        total_v = frozen_v + float(np.sum(v))
        total_e = frozen_e + float(np.sum(e))
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_v))
        if total_e <= tol:
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
        y = f(np.concatenate([s + u, s - u]))
        return y[:u.size] + y[u.size:]

    pieces = [integrate_adaptive(folded, 0.0, w, cfg, np.abs(breaks - s))]
    lo, hi = (a, s - w) if s - a > b - s else (s + w, b)
    if lo < hi:
        pieces.append(integrate_adaptive(f, lo, hi, cfg, breaks))
    if not all(p.converged for p in pieces):
        raise ValueError("principal value did not converge")
    return IntegralResult(sum(p.value for p in pieces), sum(p.error for p in pieces), True)
