"""Half-line measure space (R+, |.|, x^(2*lambda) dx): ball volumes, grids.

Everything downstream (kernels, operators, maximal functions) runs on top of
the weighted measure m(dy) = y^(2*lambda) dy.  Ball volumes have a closed
form, so the measures of balls I(x, r) = (x - r, x + r) clipped to (0, inf),
grid integrals of piecewise interpolants and mean values are all computed
exactly (up to float rounding) here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeasureSpace",
    "GridFunction",
    "doubling_ratio",
    "comparable_volume",
    "make_log_grid",
]


@dataclass(frozen=True)
class MeasureSpace:
    """The weighted half-line: parameter ``lam`` > 0, measure y^(2*lam) dy.

    ``upper_dim`` is the homogeneous dimension Q = 2*lam + 1: ball volumes
    scale like r**Q under joint dilation of center and radius.
    """

    lam: float
    upper_dim: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        object.__setattr__(self, "upper_dim", 2.0 * self.lam + 1.0)

    def power_primitive(self, y, shift: float = 0.0):
        """Antiderivative of y^(2*lam + shift), vanishing at 0."""
        p = 2.0 * self.lam + shift + 1.0
        return np.power(y, p) / p

    def ball_measure(self, x, r):
        """m(I(x, r)) where I(x, r) = (x - r, x + r) clipped to (0, inf).

        (hi^Q - lo^Q)/Q is formed as -hi^Q/Q * expm1(Q log1p(-d)), d = 1 - lo/hi:
        the plain difference cancels for r << x, to 0 once x - r rounds to x.
        """
        x = np.asarray(x, dtype=float)
        r = np.asarray(r, dtype=float)
        hi = x + r
        d = np.minimum(2.0 * r / hi, 1.0)
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf once lo clips to 0
            return -self.power_primitive(hi) * np.expm1(self.upper_dim * np.log1p(-d))

    def segment_measure(self, lo, hi):
        """m((lo, hi)) for 0 <= lo <= hi."""
        return self.power_primitive(hi) - self.power_primitive(lo)


def _check_ball(x, r) -> None:
    if not (0 < x < np.inf and 0 < r < np.inf):
        raise ValueError(f"need a finite x > 0 and r > 0, got ({x}, {r})")


def doubling_ratio(space: MeasureSpace, x: float, r: float) -> float:
    """m(I(x, 2r))/m(I(x, r)) for the concentric double.  Always <= 2**upper_dim."""
    _check_ball(x, r)
    return float(space.ball_measure(x, 2.0 * r)) / float(space.ball_measure(x, r))


def comparable_volume(space: MeasureSpace, x: float, r: float) -> float:
    """Two-term surrogate x^(2*lam) * r + r^Q, comparable to m(I(x, r)).

    Useful as an oracle: the ratio against the exact measure stays in a
    fixed positive band over all scales (it tends to 2 for x >> r and to
    1/Q in the fully clipped regime r >> x).
    """
    _check_ball(x, r)
    return x ** (2.0 * space.lam) * r + r ** space.upper_dim


def _affine_dm(space: MeasureSpace, u, v, a, b):
    """Exact ∫_u^v (a + b*y) dm for each affine piece."""
    return a * (space.power_primitive(v) - space.power_primitive(u)) + b * (
        space.power_primitive(v, 1.0) - space.power_primitive(u, 1.0)
    )


def _root(u, v, a, b):
    """Where a + b*y vanishes, clipped into [u, v]; u where b = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(b == 0.0, u, np.minimum(np.maximum(-a / b, u), v))


def make_log_grid(xmin: float, xmax: float, n: int) -> np.ndarray:
    """Geometrically spaced nodes covering [xmin, xmax], endpoints included."""
    if not (0 < xmin < xmax):
        raise ValueError(f"need 0 < xmin < xmax, got ({xmin}, {xmax})")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return np.geomspace(xmin, xmax, n)


class GridFunction:
    """Finite samples on finite, strictly increasing positive nodes.

    Evaluation interpolates (``linear`` or ``pconst`` = left-constant cells)
    inside [nodes[0], nodes[-1]] and returns 0 outside: every carrier used
    here (bumps, atoms, truncations) is treated as compactly supported.
    """

    def __init__(self, nodes, values, interp: str = "linear"):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be matching 1-d arrays")
        if nodes.size < 2:
            raise ValueError("need at least 2 nodes")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if not (np.diff(nodes) > 0).all():  # also rejects a nan node
            raise ValueError("nodes must be strictly increasing")
        if not (nodes[0] > 0 and nodes[-1] < np.inf):
            raise ValueError("nodes must be positive and finite")
        if interp not in ("linear", "pconst"):
            raise ValueError(f"unknown interp {interp!r}")
        self.nodes = nodes
        self.values = values
        self.interp = interp

    @property
    def support(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if self.interp == "linear":
            out = np.interp(y, self.nodes, self.values, left=0.0, right=0.0)
        else:
            idx = np.searchsorted(self.nodes, y, side="right") - 1
            idx = np.clip(idx, 0, self.nodes.size - 2)
            out = self.values[idx]
            out = np.where((y < self.nodes[0]) | (y > self.nodes[-1]), 0.0, out)
        return float(out[0]) if scalar else out

    def dilate(self, factor: float) -> "GridFunction":
        """The rescaled function y -> f(y / factor) on the dilated grid."""
        return GridFunction(self.nodes * factor, self.values.copy(), self.interp)

    # -- exact segment decomposition -------------------------------------

    def segments(self, lo=None, hi=None):
        """Affine pieces (k, u, v, a, b): f(y) = a + b*y on (u, v) in window k.

        Window ends broadcast, k indexes them flattened, and pieces are clipped
        to their window and to [nodes[0], nodes[-1]]; no ends is the whole grid
        (k = 0).  For pconst interpolation b = 0 on every piece.
        """
        nodes, values = self.nodes, self.values
        lo, hi = np.broadcast_arrays(nodes[0] if lo is None else lo, nodes[-1] if hi is None else hi)
        lo, hi = np.maximum(lo.ravel(), nodes[0]), np.minimum(hi.ravel(), nodes[-1])
        if np.isnan(lo + hi).any():  # after the clip both are finite unless nan
            raise ValueError("window ends must not be nan")
        i0 = np.searchsorted(nodes, lo, side="right") - 1
        count = np.where(hi > lo, np.searchsorted(nodes, hi, side="left") - i0, 0)
        k = np.repeat(np.arange(lo.size), count)
        i = np.arange(k.size) + np.repeat(i0 - np.cumsum(count) + count, count)
        if self.interp == "linear":
            b = (values[i + 1] - values[i]) / (nodes[i + 1] - nodes[i])
            a = values[i] - b * nodes[i]
        else:
            a, b = values[i], np.zeros(i.size)
        return k, np.maximum(nodes[i], lo[k]), np.minimum(nodes[i + 1], hi[k]), a, b

    def integrate_dm(self, space: MeasureSpace, lo=None, hi=None):
        """Exact ∫ f dm over each window [lo, hi] (default: the support); ends broadcast."""
        windows = np.broadcast(lo, hi)
        k, *pieces = self.segments(lo, hi)
        total = np.bincount(k, _affine_dm(space, *pieces), minlength=windows.size)
        return total.reshape(windows.shape) if windows.shape else float(total[0])

    def integrate_abs_dev_dm(self, space: MeasureSpace, c, lo=None, hi=None):
        """Exact ∫ |f - c| dm over each window [lo, hi] (default: the support).

        c, lo and hi broadcast.  Each piece is integrated on either side of the
        root of f - c; off the grid f = 0, so the integrand there is |c|.
        """
        n0, n1 = self.support
        c, lo, hi = np.broadcast_arrays(c, n0 if lo is None else lo, n1 if hi is None else hi)
        if not np.isfinite([c, lo, hi]).all():
            raise ValueError("need a finite c and finite window ends")
        k, u, v, a, b = self.segments(lo, hi)
        a = a - c.ravel()[k]
        y = _root(u, v, a, b)
        inside = np.abs(_affine_dm(space, u, y, a, b)) + np.abs(_affine_dm(space, y, v, a, b))
        c0, c1 = np.clip(n0, lo, hi), np.clip(n1, lo, hi)
        outside = np.abs(c) * (space.segment_measure(lo, c0) + space.segment_measure(c1, hi))
        total = np.bincount(k, inside, minlength=c.size) + outside.ravel()
        return total.reshape(c.shape) if c.ndim else float(total[0])

    def abs(self) -> "GridFunction":
        """Exact |f| as a grid function (zero crossings become new nodes)."""
        if self.interp == "pconst":
            return GridFunction(self.nodes, np.abs(self.values), "pconst")
        _, u, v, a, b = self.segments()
        nodes = np.unique(np.concatenate([u, v, _root(u, v, a, b)]))
        return GridFunction(nodes, np.abs(self(nodes)), "linear")


class GridCumulative:
    """Vectorized exact windowed integrals ∫_[lo, hi] f dm of one grid function.

    Prefix sums over ``pieces`` = f.segments() make each window query
    O(log n); each step of the maximal function's supremum queries every breakpoint.
    """

    def __init__(self, space: MeasureSpace, f: GridFunction):
        self.space = space
        self.pieces = _, u, v, a, b = f.segments()
        self._edges = np.concatenate([u, v[-1:]])
        self._prefix = np.concatenate([[0.0], np.cumsum(_affine_dm(space, u, v, a, b))])

    def _upto(self, y):
        """∫ f dm over [support lo, y], vectorized and exact."""
        _, u, _, a, b = self.pieces
        y = np.clip(np.asarray(y, dtype=float), self._edges[0], self._edges[-1])
        idx = np.clip(np.searchsorted(self._edges, y, side="right") - 1, 0, u.size - 1)
        partial = _affine_dm(self.space, u[idx], y, a[idx], b[idx])
        return self._prefix[idx] + partial

    def between(self, lo, hi):
        return self._upto(hi) - self._upto(lo)
