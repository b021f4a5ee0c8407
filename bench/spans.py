"""Outside-in span and counter collector for the traced benchmark run.

Nothing inside besselkit knows about it: ``install`` replaces public
functions at the module attributes where besselkit itself looks them up, and
``uninstall`` restores them.  Each wrapper opens a span (name, start, end,
parent, request) and adds counters at the same boundary.  Spans live in
memory and are written out as JSON once the run ends.

Self time of a span is its duration minus the time covered by its child
spans.  The collector's own work (span bookkeeping, counters, panel widths)
is timed separately and charged to the pseudo-span ``trace`` instead of the
span it happens in, so layer self times are the program's own figures.  The
self times of all spans, ``trace`` included, add up to the root's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# (A - B)/B below this counts as a near-diagonal theta_moments point.  It is
# fixed here, not read from besselkit, so the share keeps one meaning even
# if the library moves its own switch.
NEAR_DIAGONAL_Q = 2e-5

# Spans kept for the JSON file; later ones are only counted as dropped.
KEEP_SPANS = 200_000

# The pseudo-span that collects the collector's own time.
TRACE = "trace"

KERNEL_KINDS = ("heat", "poisson", "conj_poisson", "riesz", "fractional")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.min_panel_rel = float("inf")
        self.request = -1  # index of the evaluation being traced
        self.target = 1.0  # its target point x
        self._stack: list[list] = []  # open spans: [name, start, child time, id]
        self._next_id = 0

    def charge(self, since: float) -> float:
        """Charge the time from ``since`` to now to TRACE, not to the open span.

        Time outside every span (before the root opens, after it closes) is
        nobody's, so the self times keep adding up to the root's duration.
        """
        now = time.perf_counter()
        if self._stack:
            spent = now - since
            self.self_s[TRACE] += spent
            self._stack[-1][2] += spent
        return now

    def begin(self, name: str) -> None:
        since = time.perf_counter()
        self._next_id += 1
        entry = [name, 0.0, 0.0, self._next_id]
        entry[1] = self.charge(since)
        self._stack.append(entry)

    def end(self) -> None:
        stop = time.perf_counter()
        name, start, child, sid = self._stack.pop()
        duration = stop - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((sid, parent, self.request, name, start, stop))
        else:
            self.dropped += 1
        self.charge(stop)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "request", "name", "start", "end"],
                "spans": self.spans,
                "dropped": self.dropped,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }, fh)


def _spanned(tracer: Tracer, name_of, fn, counter=None):
    def wrapper(*args, **kwargs):
        tracer.begin(name_of(*args, **kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None:
            since = time.perf_counter()
            counter(out, *args, **kwargs)
            tracer.charge(since)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer, bk, operator_span) -> list:
    """Wrap besselkit's layer boundaries; returns what ``uninstall`` restores.

    ``operator_span()`` names the span of the evaluation in progress; the
    integrand closures the operators hand to the integrator are charged to
    it, so operator self time includes their arithmetic.
    """
    special_crossover = bk.special.series_crossover
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # special.bessel_i, as the kernels module calls it
    def bessel_count(out, mu, z, scaled=False):
        z = np.asarray(z)
        tracer.count("special.bessel_i.points", z.size)
        tracer.count("special.bessel_i.asymptotic", int(np.count_nonzero(z > special_crossover(mu))))

    patch(bk.kernels, "bessel_i",
          _spanned(tracer, lambda *a, **k: "special.bessel_i", bk.kernels.bessel_i, bessel_count))

    # kernels.theta_moments, as the Poisson family calls it
    def theta_count(out, lam, A, B, *a, **k):
        A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        tracer.count("kernels.theta_moments.points", A.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            tracer.count("kernels.theta_moments.near", int(np.count_nonzero((A - B) / B < NEAR_DIAGONAL_Q)))

    patch(bk.kernels, "theta_moments",
          _spanned(tracer, lambda *a, **k: "kernels.theta_moments", bk.kernels.theta_moments, theta_count))

    # kernel_value, as the operators call it: one span per kernel family
    def kernel_count(out, spec, x, y, *a, **k):
        tracer.count(f"kernels.{spec.kind}.points", np.broadcast(np.asarray(x), np.asarray(y)).size)

    patch(bk.operators, "kernel_value",
          _spanned(tracer, lambda spec, *a, **k: f"kernels.{spec.kind}", bk.operators.kernel_value,
                   kernel_count))

    # integrate_adaptive: the operators call it directly and integrate_pv
    # calls it through the quadrature module; both sites get the wrapper.
    adaptive = bk.quadrature.integrate_adaptive

    def traced_integrand(f):
        def integrand(y):
            since = time.perf_counter()
            y_arr = np.asarray(y)
            tracer.count("quadrature.integrate_adaptive.panels")
            if y_arr.size > 1:
                spread = float(np.max(y_arr) - np.min(y_arr)) / tracer.target
                tracer.min_panel_rel = min(tracer.min_panel_rel, spread)
            tracer.charge(since)
            tracer.begin(operator_span())
            try:
                return f(y)
            finally:
                tracer.end()

        return integrand

    def integrate_adaptive(f, a, b, *args, **kwargs):
        tracer.begin("quadrature.integrate_adaptive")
        try:
            res = adaptive(traced_integrand(f), a, b, *args, **kwargs)
        finally:
            tracer.end()
        if not res.converged:
            tracer.count("quadrature.integrate_adaptive.nonconverged")
        return res

    integrate_adaptive.__wrapped__ = adaptive
    patch(bk.operators, "integrate_adaptive", integrate_adaptive)
    patch(bk.quadrature, "integrate_adaptive", integrate_adaptive)

    pv = bk.operators.integrate_pv

    def integrate_pv(*args, **kwargs):
        tracer.begin("quadrature.integrate_pv")
        try:
            return pv(*args, **kwargs)
        except Exception:
            tracer.count("quadrature.integrate_pv.raised")
            raise
        finally:
            tracer.end()

    integrate_pv.__wrapped__ = pv
    patch(bk.operators, "integrate_pv", integrate_pv)

    # measure: grid evaluation, windowed cumulative integrals, |f - c| integrals
    gf, gc = bk.measure.GridFunction, bk.measure.GridCumulative
    patch(gf, "__call__", _spanned(
        tracer, lambda *a, **k: "measure.grid_eval", gf.__call__,
        lambda out, self, y: tracer.count("measure.grid_eval.points", np.size(y))))
    patch(gc, "between", _spanned(
        tracer, lambda *a, **k: "measure.cumulative", gc.between,
        lambda out, self, lo, hi: tracer.count("measure.cumulative.windows", np.size(out))))
    patch(gf, "integrate_abs_dev_dm", _spanned(
        tracer, lambda *a, **k: "measure.abs_dev", gf.integrate_abs_dev_dm))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
