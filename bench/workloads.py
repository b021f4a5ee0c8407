"""Seeded inputs, references and tolerances for the three benchmark workloads.

A workload is a list of *passes*; a pass is a list of cases, each one
operator evaluation at one target point.  Every pass holds one case per
stratum of its workload, so any whole number of passes has the same mix of
operators, target classes and layouts whatever the seed.  Continuous
parameters (lam, t, alpha, node counts, targets) are drawn from the seed
inside each stratum's range.

Cases are plain data until ``bind`` turns them into calls on an imported
besselkit; the references and tolerances never touch besselkit.
See README.md in this directory for why each workload exists.  "Baseline"
below means besselkit as it stood when this benchmark was added.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import reference as ref

# Passes drawn per run.  The run cycles through them at least MIN_CYCLES
# times (see run.py) and reports each case's median latency, so a cycle must
# fit several times into a run.  At the baseline a semigroup or singular
# pass costs 5-7 s and a maximal pass about 0.5 s; the costs of the
# maximal pass's random step functions vary widely, so it draws many passes.
POOL_PASSES = {"semigroup": 1, "singular": 1, "maximal": 8}

# Gaussian input G_s(y) = exp(-y^2/4s) on [GRID_LO, GRID_HI].  G_s(GRID_HI)
# is below 1e-13 for every s drawn, and the mass left out below GRID_LO is
# below GRID_LO^(2 lam + 1), so truncating the half-line costs far less than
# the grid's own interpolation error.
GRID_LO, GRID_HI = 1e-5, 6.0
S_RANGE = (0.24, 0.26)
LAM_LEVELS = (0.75, 1.25)  # below and above 1

# Library tolerances.  The semigroup uses besselkit's defaults, the common
# call.  The defaults cost 10-90 s per fractional evaluation at the
# baseline, so the singular workload uses abs 1e-8, rel 1e-7, at which
# every case but one costs under about 1 s and the Riesz PV miss still
# shows.  The alpha ~ 0.5 case uses the tolerance of the repository's own
# operator tests, abs 1e-9, rel 1e-8: there it raises on the diagonal
# after 2-4 s, at 1e-7 only after about 9 s.
SINGULAR_QUAD = dict(abs_tol=1e-8, rel_tol=1e-7)
DIAGONAL_QUAD = dict(abs_tol=1e-9, rel_tol=1e-8)

# Reference-check tolerances.  For grid inputs the error floor is the linear
# interpolation error of G_s; the check allows TOL_FACTOR times the a-priori
# bound max_cell h^2/8 max|G_s''| plus an absolute floor for tiny values.
# Passing cases use at most a sixth of it at the baseline.
TOL_FACTOR = 4.0
TOL_FLOOR = 1e-9
# Maximal functions of step functions have an exact finite-family supremum.
MAXIMAL_REL_TOL = 1e-9

# Maximal strata: target class and node-count level.
_MAX_TARGETS = ("origin", "inside", "beyond")
_MAX_N = (300, 2000)  # a few hundred to a few thousand nodes

# Baseline failures the benchmark expects, as (stratum, kind).  They count as
# failed evaluations in pass_frac and in the trace, but keep the run
# "correct"; a failure of any other kind or in any other stratum marks the
# run incorrect.
EXPECTED_FAILURES = frozenset({
    ("riesz/pv", "miss"),          # Neville extrapolation bias on grid input
    ("frac/alpha<1", "raise"),     # panels collapse onto the diagonal
    ("igamma/strong", "nonfinite"),  # same collapse, returns inf
} | {
    (f"{op}/{tclass}/n={n}", "miss")  # geometric ladder misses the supremum
    for op in ("hl_maximal", "hl_maximal_t") for tclass in _MAX_TARGETS for n in _MAX_N
})


@dataclass
class Case:
    op: str
    stratum: str
    lam: float
    x: float
    params: dict
    nodes: np.ndarray
    values: np.ndarray
    interp: str = "linear"
    ref: float | None = None
    tol: float = 0.0


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _slot(rng, lo, hi, slot, slots):
    """A uniform draw from the ``slot``-th of ``slots`` equal parts of [lo, hi].

    Evaluation costs swing by up to 1.7x between nearby targets, so a run's
    targets are stratified over the window instead of drawn freely: every
    run then sees the same spread of costs.
    """
    return lo + (hi - lo) * (slot + float(rng.uniform())) / slots


def _lattice(rng, lo, hi):
    """A target on the 1/64 lattice in [lo, hi].

    Used where bisection collapses onto the target.  At such targets a
    quadrature node lands exactly on x and the failure is immediate; at
    generic targets the same collapse ends, about one time in six, in
    non-convergence after some 15 s instead, which would make the run
    length a lottery without changing what fails.
    """
    return int(rng.integers(math.ceil(lo * 64), math.floor(hi * 64) + 1)) / 64.0


def _gaussian_grid(rng, layout: str, n: int, s: float | None = None):
    s = _u(rng, *S_RANGE) if s is None else s
    if layout == "uniform":
        nodes = np.linspace(GRID_LO, GRID_HI, n)
    else:
        nodes = np.geomspace(GRID_LO, GRID_HI, n)  # what make_log_grid returns
    return s, nodes, np.exp(-nodes * nodes / (4.0 * s))


def interpolation_bound(nodes: np.ndarray, s: float) -> float:
    """max over cells of h^2/8 * max |G_s''| on the cell (sampled densely)."""
    h = np.diff(nodes)
    frac = np.linspace(0.0, 1.0, 9)
    y = nodes[:-1, None] + h[:, None] * frac[None, :]
    g2 = np.exp(-y * y / (4.0 * s)) * np.abs(y * y / (4.0 * s * s) - 1.0 / (2.0 * s))
    return float(np.max(h * h / 8.0 * g2.max(axis=1)))


# ---------------------------------------------------------------- semigroup

_SEMI_KINDS = ("heat", "poisson", "conj_poisson")
_SEMI_TARGETS = ("inside", "edge", "beyond")
_SEMI_T = (0.02, 2.0)  # two decades
_SEMI_N = (600, 1200)
_SEMI_LAYOUTS = ("uniform", "log")


def _semigroup_pass(rng, lams) -> list[Case]:
    # Every pass is the same design: one case per kernel, target class and
    # t level, with lam, node count and layout fixed by the stratum so that
    # both lam levels, both node counts and both layouts meet every kernel.
    # The seed jitters each level by a few per cent and draws the targets.
    # A semigroup evaluation's cost swings by 1000x across the levels, so
    # passes of freely drawn levels would make a run's cost a lottery.
    cases = []
    for ki, kind in enumerate(_SEMI_KINDS):
        for ti, tclass in enumerate(_SEMI_TARGETS):
            for i, t_level in enumerate(_SEMI_T):
                j = (ki + ti + i) % 2
                t = t_level * math.exp(_u(rng, -0.03, 0.03))
                n = int(round(_SEMI_N[(ti + i) % 2] * math.exp(_u(rng, -0.02, 0.02))))
                layout = _SEMI_LAYOUTS[(i + j) % 2]
                s, nodes, values = _gaussian_grid(rng, layout, n)
                if tclass == "inside":
                    x = _u(rng, 0.9, 1.1)
                elif tclass == "edge":
                    x = _u(rng, GRID_LO, 4.0 * GRID_LO)  # the origin end of the support
                else:
                    x = _u(rng, 1.1 * GRID_HI, 1.15 * GRID_HI)
                cases.append(Case("apply_semigroup", f"{kind}/{tclass}/t={t_level:g}", lams[j],
                                  x, dict(kind=kind, t=t, s=s), nodes, values))
    return cases


# ----------------------------------------------------------------- singular

_COMMUTATORS = 6  # commutator targets per pass

def _singular_pass(rng, lams) -> list[Case]:
    # One Gaussian width, fixed node counts and narrow parameter windows:
    # the cost of a fractional or PV evaluation swings with G_s(x), with the
    # kinks next to x and with lam, and a run holds only one pass.
    def grid(n=450):
        return _gaussian_grid(rng, "uniform", n, s=0.25)

    cases = []
    s, nodes, values = grid()
    cases.append(Case("apply_riesz", "riesz/pv", lams[1], _u(rng, 0.9, 1.1),
                      dict(kind="riesz", s=s), nodes, values))
    # Six commutators a pass, so that the median latency lies inside their
    # cluster of similar costs whichever side of it the alpha > 1 case falls.
    # Their targets take one slot each of [0.9, 1.1], in the middle half of
    # a grid cell: next to a node (a kink of the interpolant) a commutator
    # costs up to 1.7x more.  Near-node targets are measured by the
    # semigroup workload.
    for k in range(_COMMUTATORS):
        s, nodes, values = grid()
        x = _slot(rng, 0.9, 1.1, k, _COMMUTATORS)
        i = int(np.searchsorted(nodes, x)) - 1
        x = float(nodes[i] + (nodes[i + 1] - nodes[i]) * rng.uniform(0.25, 0.75))
        cases.append(Case("commutator", "commutator/riesz/y2", lams[1],
                          x, dict(kind="riesz", s=s), nodes, values))
    # The raise costs 2-4 s, and its Bessel work varies by +-12% over the
    # lattice targets in [0.9, 1.1] but only by +-5% over those in
    # [0.98, 1.05]; this one case is half the cycle.
    s, nodes, values = grid()
    cases.append(Case("apply_frac", "frac/alpha<1", _u(rng, 1.48, 1.52), _lattice(rng, 0.98, 1.05),
                      dict(kind="fractional", alpha=_u(rng, 0.49, 0.51), s=s, quad=DIAGONAL_QUAD),
                      nodes, values))
    # alpha > 1 costs 4-15 s per evaluation in the bulk of the Gaussian at
    # the baseline, and 0.2-0.4 s in its far flank at x in [3.48, 3.50],
    # where this stratum sits.  Nearby flank targets take anything from 2
    # to 40 panels (0.07-0.7 s).
    s, nodes, values = grid()
    cases.append(Case("apply_frac", "frac/alpha>1", _u(rng, 2.49, 2.51),
                      _u(rng, 3.48, 3.50),
                      dict(kind="fractional", alpha=_u(rng, 1.49, 1.51), s=s), nodes, values))
    # Igamma is cheap: two targets each on both sides of the gamma at which
    # the interior evaluation collapses onto the target and returns inf.
    for _ in range(2):
        s, nodes, values = grid()
        cases.append(Case("frac_integral_Igamma", "igamma/strong", _u(rng, 0.5, 1.9),
                          _lattice(rng, 0.5, 2.0), dict(gamma=_u(rng, 0.25, 0.4), s=s),
                          nodes, values))
    for _ in range(2):
        s, nodes, values = grid()
        cases.append(Case("frac_integral_Igamma", "igamma/mild", _u(rng, 0.9, 1.1),
                          _u(rng, 0.8, 1.2), dict(gamma=_u(rng, 0.65, 0.75), s=s),
                          nodes, values))
    return cases


# ------------------------------------------------------------------ maximal

def _step_function(rng, n: int):
    """Five plateaus of random height on sorted random nodes in [0.05, 5]."""
    nodes = np.sort(rng.uniform(0.05, 5.0, n))
    values = np.zeros(n)
    for _ in range(5):
        i = int(rng.integers(0, n - 1))
        w = int(rng.integers(n // 50, n // 8))
        values[i:i + w] = rng.uniform(0.2, 1.0)
    return nodes, values


def _maximal_pass(rng, lams) -> list[Case]:
    # Same design in every pass, as for the semigroup: the cost of a maximal
    # evaluation follows the node count, so it comes in two fixed levels.
    cases = []
    for op in ("hl_maximal", "hl_maximal_t", "h_beta_maximal"):
        for tclass in _MAX_TARGETS:
            for n_level in _MAX_N:
                for lam in lams + lams:  # two draws each: whether the ladder
                    # happens to hit the supremum varies from draw to draw
                    n = int(round(n_level * math.exp(_u(rng, -0.05, 0.05))))
                    nodes, values = _step_function(rng, n)
                    if tclass == "origin":
                        x = _u(rng, 0.005, 0.05)
                    elif tclass == "inside":
                        x = _u(rng, 0.1, 4.9)
                    else:
                        x = _u(rng, 5.1, 6.0)
                    params = {}
                    if op == "hl_maximal_t":
                        params["t_power"] = _u(rng, 1.5, 3.0)
                    if op == "h_beta_maximal":
                        params["beta"] = _u(rng, 0.1, 0.5)
                    cases.append(Case(op, f"{op}/{tclass}/n={n_level}", lam, x, params,
                                      nodes, values, interp="pconst"))
    return cases


_PASS = {"semigroup": _semigroup_pass, "singular": _singular_pass, "maximal": _maximal_pass}
NAMES = tuple(_PASS)


def draw(workload: str, seed: int) -> list[list[Case]]:
    """POOL_PASSES[workload] passes of cases for ``workload``, determined by ``seed``."""
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    # The kernel lam values are shared by the whole run: the Poisson-family
    # kernels cache Gauss-Jacobi rules per lam, and filling them costs about
    # 0.9 s per value, which belongs in set-up, not in the first evaluation.
    # Being shared, lam moves every kernel evaluation of the run at once, so
    # its jitter is kept small.
    lams = tuple(level + _u(rng, -0.01, 0.01) for level in LAM_LEVELS)
    return [_PASS[workload](rng, lams) for _ in range(POOL_PASSES[workload])]


# --------------------------------------------------------------- references

def attach_reference(case: Case) -> None:
    """Fill ``case.ref`` and ``case.tol``; raises ReferenceInaccurate."""
    p, lam, x = case.params, case.lam, case.x
    if case.interp == "pconst":
        if case.op == "h_beta_maximal":
            case.ref = None  # no reference: only raises and non-finite values fail
            return
        cells = np.abs(case.values[:-1])
        if case.op == "hl_maximal":
            case.ref = ref.exact_maximal(lam, case.nodes, cells, x)
        else:
            tp = p["t_power"]
            case.ref = ref.exact_maximal(lam, case.nodes, cells ** tp, x) ** (1.0 / tp)
        case.tol = MAXIMAL_REL_TOL * case.ref + TOL_FLOOR
        return
    s = p["s"]
    tol = TOL_FACTOR * interpolation_bound(case.nodes, s) + TOL_FLOOR
    lo, hi = float(case.nodes[0]), float(case.nodes[-1])
    if case.op == "apply_semigroup":
        kind, t = p["kind"], p["t"]
        if kind == "heat":
            value = ref.heat(lam, s, t, x)
        elif kind == "poisson":
            value = ref.poisson(lam, s, t, x, tol)
        else:
            value = ref.conj_poisson(lam, s, t, x, tol)
    elif case.op == "apply_riesz":
        value = ref.riesz(lam, s, x, tol)
    elif case.op == "commutator":
        value = ref.riesz_commutator_y2(lam, s, x, tol)
    elif case.op == "apply_frac":
        value = ref.fractional(lam, s, p["alpha"], x, tol)
    else:
        value = ref.frac_integral_igamma(lam, s, p["gamma"], x, lo, hi, tol)
    case.ref, case.tol = value, tol


# ------------------------------------------------------------------ binding

def bind(case: Case, bk) -> Callable[[], float]:
    """A zero-argument call of the case's operator on besselkit ``bk``.

    ``bk`` exposes the ``measure``, ``kernels``, ``operators`` and
    ``quadrature`` modules of one import of besselkit.
    """
    ops, meas = bk.operators, bk.measure
    space = meas.MeasureSpace(case.lam)
    f = meas.GridFunction(case.nodes, case.values, case.interp)
    p, x = case.params, case.x
    op = getattr(ops, case.op)
    if case.op == "apply_semigroup":
        spec = ops.OperatorSpec(bk.kernels.KernelSpec(p["kind"], space, t=p["t"]))
        return lambda: op(spec, f, x)
    if case.interp == "pconst":
        if case.op == "hl_maximal":
            return lambda: op(space, f, x)
        if case.op == "hl_maximal_t":
            tp = p["t_power"]
            return lambda: op(space, f, x, tp)
        family = ops.oscillation_family(space, f)
        lo, hi = f.support
        ladder = ops.LadderConfig(r_min=(hi - lo) * 1e-3, r_max=4.0 * (hi - lo))
        beta = p["beta"]
        return lambda: op(space, family, beta, x, ladder)
    quad = bk.quadrature.QuadConfig(**p.get("quad", SINGULAR_QUAD))
    if case.op == "frac_integral_Igamma":
        g = p["gamma"]
        return lambda: op(space, f, g, x, quad)
    kspec = bk.kernels.KernelSpec(p["kind"], space, alpha=p.get("alpha"), quad=quad)
    if case.op == "commutator":
        spec = ops.OperatorSpec(kspec, symbol=meas.GridFunction(case.nodes, case.nodes ** 2))
    else:
        spec = ops.OperatorSpec(kspec, pv=quad)
    return lambda: op(spec, f, x)


def warm_up(cases, bk) -> None:
    """Fill the quadrature-rule caches the cases' kernels use.

    theta_moments caches Gauss-Jacobi rules per lam, doubling up to 4096
    nodes as points approach the diagonal; one point just outside its
    graded-panel switch makes it build every size.  The other kernels only
    share Gauss-Legendre rules, which one far-field evaluation fills.
    """
    seen = set()
    for case in cases:
        kind = case.params.get("kind")
        if kind is None or (kind, case.lam) in seen:
            continue
        seen.add((kind, case.lam))
        if kind in ("poisson", "conj_poisson", "riesz"):
            bk.kernels.theta_moments(case.lam, 1.0 + 3e-5, 1.0)
        space = bk.measure.MeasureSpace(case.lam)
        spec = bk.kernels.KernelSpec(kind, space, t=case.params.get("t"),
                                     alpha=case.params.get("alpha"))
        bk.kernels.kernel_value(spec, 1.0, 3.0)
