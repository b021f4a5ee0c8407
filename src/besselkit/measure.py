"""Half-line measure space (R+, |.|, x^(2*lambda) dx): intervals, volumes, grids.

Everything downstream (kernels, operators, maximal functions) runs on top of
the weighted measure m(dy) = y^(2*lambda) dy.  Ball volumes have a closed
form, so interval measures, grid integrals of piecewise interpolants and
mean values are all computed exactly (up to float rounding) here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeasureSpace",
    "Interval",
    "GridFunction",
    "measure_interval",
    "doubling_ratio",
    "comparable_volume",
    "make_log_grid",
    "integrate_grid",
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
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
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


@dataclass(frozen=True)
class Interval:
    """Ball I(center, radius) = (center - radius, center + radius) ∩ (0, inf).

    The left endpoint clamps at 0; center and radius stay positive.
    """

    center: float
    radius: float

    def __post_init__(self):
        if not (self.center > 0 and self.radius > 0):
            raise ValueError(
                f"need center > 0 and radius > 0, got ({self.center}, {self.radius})"
            )

    @property
    def left(self) -> float:
        return max(self.center - self.radius, 0.0)

    @property
    def right(self) -> float:
        return self.center + self.radius

    def dilate(self, factor: float) -> "Interval":
        """Concentric dilation: same center, radius scaled by ``factor``."""
        return Interval(self.center, self.radius * factor)


def measure_interval(space: MeasureSpace, iv: Interval) -> float:
    """Exact measure of a clipped interval: closed-form power antiderivative."""
    return float(space.ball_measure(iv.center, iv.radius))


def doubling_ratio(space: MeasureSpace, iv: Interval) -> float:
    """m(2I)/m(I) for the concentric double.  Always <= 2**upper_dim."""
    return measure_interval(space, iv.dilate(2.0)) / measure_interval(space, iv)


def comparable_volume(space: MeasureSpace, x: float, r: float) -> float:
    """Two-term surrogate x^(2*lam) * r + r^Q, comparable to m(I(x, r)).

    Useful as an oracle: the ratio against the exact measure stays in a
    fixed positive band over all scales (it tends to 2 for x >> r and to
    1/Q in the fully clipped regime r >> x).
    """
    if not (x > 0 and r > 0):
        raise ValueError("x and r must be positive")
    return x ** (2.0 * space.lam) * r + r ** space.upper_dim


def make_log_grid(xmin: float, xmax: float, n: int) -> np.ndarray:
    """Geometrically spaced nodes covering [xmin, xmax], endpoints included."""
    if not (0 < xmin < xmax):
        raise ValueError(f"need 0 < xmin < xmax, got ({xmin}, {xmax})")
    if n < 2:
        raise ValueError("need at least 2 nodes")
    return np.geomspace(xmin, xmax, n)


class GridFunction:
    """A sampled function on strictly increasing positive nodes.

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
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not nodes[0] > 0:
            raise ValueError("nodes must be positive")
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
            # np.interp clamps at the ends; enforce the hard zero outside.
            out = np.where((y < self.nodes[0]) | (y > self.nodes[-1]), 0.0, out)
        else:
            idx = np.searchsorted(self.nodes, y, side="right") - 1
            idx = np.clip(idx, 0, self.nodes.size - 2)
            out = self.values[idx]
            out = np.where((y < self.nodes[0]) | (y > self.nodes[-1]), 0.0, out)
        return float(out[0]) if scalar else out

    def dilate(self, factor: float) -> "GridFunction":
        """The rescaled function y -> f(y / factor) on the dilated grid."""
        return GridFunction(self.nodes * factor, self.values.copy(), self.interp)

    def scale(self, c: float) -> "GridFunction":
        return GridFunction(self.nodes.copy(), c * self.values, self.interp)

    # -- exact segment decomposition -------------------------------------

    def segments(self, lo: float | None = None, hi: float | None = None):
        """Affine pieces (u, v, a, b) with f(y) = a + b*y on (u, v).

        Pieces are clipped to [lo, hi] ∩ [nodes[0], nodes[-1]]; for pconst
        interpolation b = 0 on every piece.
        """
        lo = self.nodes[0] if lo is None else max(lo, self.nodes[0])
        hi = self.nodes[-1] if hi is None else min(hi, self.nodes[-1])
        if hi <= lo:
            return np.empty(0), np.empty(0), np.empty(0), np.empty(0)
        i0 = int(np.searchsorted(self.nodes, lo, side="right") - 1)
        i0 = max(i0, 0)
        i1 = int(np.searchsorted(self.nodes, hi, side="left"))
        i1 = min(i1, self.nodes.size - 1)
        left = self.nodes[i0:i1].copy()
        right = self.nodes[i0 + 1 : i1 + 1].copy()
        if self.interp == "linear":
            b = (self.values[i0 + 1 : i1 + 1] - self.values[i0:i1]) / (right - left)
            a = self.values[i0:i1] - b * left
        else:
            a = self.values[i0:i1].copy()
            b = np.zeros_like(a)
        left[0] = lo
        right[-1] = hi
        keep = right > left
        return left[keep], right[keep], a[keep], b[keep]

    def integrate_dm(self, space: MeasureSpace, lo=None, hi=None) -> float:
        """Exact ∫ f dm over [lo, hi] (defaults to the full support)."""
        u, v, a, b = self.segments(lo, hi)
        if u.size == 0:
            return 0.0
        s0 = space.power_primitive(v) - space.power_primitive(u)
        s1 = space.power_primitive(v, 1.0) - space.power_primitive(u, 1.0)
        return float(np.sum(a * s0 + b * s1))

    def mean_dm(self, space: MeasureSpace, iv: Interval) -> float:
        """m-average of f over the part of I covered by the grid."""
        return self.integrate_dm(space, iv.left, iv.right) / measure_interval(space, iv)

    def integrate_abs_dev_dm(self, space: MeasureSpace, c: float, lo=None, hi=None) -> float:
        """Exact ∫ |f - c| dm over [lo, hi]: splits pieces at sign crossings."""
        u, v, a, b = self.segments(lo, hi)
        if u.size == 0:
            return 0.0
        a = a - c
        # crossing point of a + b*y inside (u, v), where it exists
        with np.errstate(divide="ignore", invalid="ignore"):
            yc = np.where(b != 0.0, -a / np.where(b == 0.0, 1.0, b), u)
        cross = (b != 0.0) & (yc > u) & (yc < v)
        uu = np.concatenate([u, yc[cross]])
        vv = np.concatenate([np.where(cross, yc, v), v[cross]])
        aa = np.concatenate([a, a[cross]])
        bb = np.concatenate([b, b[cross]])
        s0 = space.power_primitive(vv) - space.power_primitive(uu)
        s1 = space.power_primitive(vv, 1.0) - space.power_primitive(uu, 1.0)
        piece = aa * s0 + bb * s1
        return float(np.sum(np.abs(piece)))

    def abs(self) -> "GridFunction":
        """Exact |f| as a grid function (zero crossings become new nodes)."""
        if self.interp == "pconst":
            return GridFunction(self.nodes, np.abs(self.values), "pconst")
        u, v, a, b = self.segments()
        with np.errstate(divide="ignore", invalid="ignore"):
            yc = np.where(b != 0.0, -a / np.where(b == 0.0, 1.0, b), u)
        cross = (b != 0.0) & (yc > u) & (yc < v)
        nodes = np.unique(np.concatenate([self.nodes, yc[cross]]))
        return GridFunction(nodes, np.abs(self(nodes)), "linear")

    def to_csv(self, path) -> None:
        np.savetxt(path, np.column_stack([self.nodes, self.values]),
                   delimiter=",", header="node,value", comments="")

    @classmethod
    def from_csv(cls, path, interp: str = "linear") -> "GridFunction":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data[:, 0], data[:, 1], interp)


def integrate_grid(space: MeasureSpace, f: GridFunction) -> float:
    """∫ f dm with the composite rule matching f's interpolation (exact)."""
    return f.integrate_dm(space)


class GridCumulative:
    """Vectorized exact windowed integrals ∫_[lo, hi] f dm of one grid function.

    Prefix sums over the affine pieces of f make each window query O(log n);
    each step of the maximal function's supremum queries every breakpoint.
    """

    def __init__(self, space: MeasureSpace, f: GridFunction):
        self.space = space
        u, v, a, b = f.segments()
        self._u, self._a, self._b = u, a, b
        self._edges = np.concatenate([u, v[-1:]])
        piece = a * (space.power_primitive(v) - space.power_primitive(u)) + b * (
            space.power_primitive(v, 1.0) - space.power_primitive(u, 1.0)
        )
        self._prefix = np.concatenate([[0.0], np.cumsum(piece)])

    def _upto(self, y):
        """∫ f dm over [support lo, y], vectorized and exact."""
        y = np.clip(np.asarray(y, dtype=float), self._edges[0], self._edges[-1])
        idx = np.clip(np.searchsorted(self._edges, y, side="right") - 1, 0, self._u.size - 1)
        u, a, b = self._u[idx], self._a[idx], self._b[idx]
        sp = self.space
        partial = a * (sp.power_primitive(y) - sp.power_primitive(u)) + b * (
            sp.power_primitive(y, 1.0) - sp.power_primitive(u, 1.0)
        )
        return self._prefix[idx] + partial

    def between(self, lo, hi):
        return self._upto(hi) - self._upto(lo)
