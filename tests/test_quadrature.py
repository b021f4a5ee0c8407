import heapq
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expi

from besselkit import quadrature
from besselkit.measure import GridFunction
from besselkit.quadrature import (
    IntegralResult,
    QuadConfig,
    integrate_adaptive,
    integrate_product,
    integrate_pv,
)
from gauss_legendre import gl_panels
from halfline import integrate_halfline

CFG = QuadConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=-1.0)
    # a nan tolerance passed a "<= 0" check and left every integral unconverged
    for bad in (dict(abs_tol=math.nan), dict(rel_tol=math.nan), dict(abs_tol=math.inf),
                dict(max_depth=-1)):
        with pytest.raises(ValueError):
            QuadConfig(**bad)


def test_adaptive_smooth():
    res = integrate_adaptive(np.sin, 0.0, math.pi, CFG)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert abs(res.value - 2.0) <= max(res.error, 1e-13)


def test_adaptive_endpoint_singularity():
    # theta^(2 lam - 1) with lam = 0.3: integrable theta^(-0.4) endpoint
    lam = 0.3
    res = integrate_adaptive(lambda t: t ** (2 * lam - 1), 0.0, 1.0, CFG)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 0.6, rel=1e-9)


def test_adaptive_dual_scheme_oracle():
    # second, independently implemented scheme = QUADPACK
    lam, x, y = 1.0, 1.0, 2.0

    def f(theta):
        return np.sin(theta) ** (2 * lam - 1) / (x * x + y * y - 2 * x * y * np.cos(theta)) ** (lam + 1)

    mine = integrate_adaptive(f, 0.0, math.pi, CFG)
    ref, referr = quad(lambda t: float(f(np.array([t]))[0]), 0.0, math.pi, epsabs=1e-12)
    assert mine.converged and referr < 1e-8
    assert mine.value == pytest.approx(ref, abs=1e-9)


def test_adaptive_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 1.0, 1.0, CFG)


def test_adaptive_nonconvergence_flagged():
    # non-integrable 1/x blows up: exhaust a tiny depth budget and flag
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-12, max_depth=6)
    res = integrate_adaptive(lambda t: 1.0 / t, 0.0, 1.0, cfg)
    assert not res.converged


def test_adaptive_infinite_total_not_converged():
    # bisection into 1/(1 - t) rounds a node onto t = 1; the inf total must
    # not meet its own tolerance rel_tol * inf
    with np.errstate(divide="ignore"):
        res = integrate_adaptive(lambda t: 1.0 / (1.0 - t), 0.0, 1.0, CFG)
    assert not res.converged


def test_adaptive_linearity():
    f = lambda t: np.exp(-t)
    g = lambda t: np.cos(3 * t)
    a, b = 0.3, 2.0
    lhs = integrate_adaptive(lambda t: 2.0 * f(t) - 3.0 * g(t), a, b, CFG)
    rhs = 2.0 * integrate_adaptive(f, a, b, CFG).value - 3.0 * integrate_adaptive(g, a, b, CFG).value
    assert lhs.value == pytest.approx(rhs, abs=2 * max(lhs.error, 1e-12))


class Recorder:
    """An integrand wrapper that records the size of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, t):
        self.sizes.append(np.size(t))
        return self.f(t)


def kinked(n_kinks=1000, seed=3):
    """A piecewise-linear function with n_kinks interior kinks in (0, 10)
    times a smooth factor, and its kinks."""
    rng = np.random.default_rng(seed)
    kinks = np.sort(rng.uniform(0.0, 10.0, n_kinks))
    nodes = np.concatenate([[0.0], kinks, [10.0]])
    values = rng.uniform(-1.0, 1.0, nodes.size)
    return (lambda t: np.interp(t, nodes, values) * np.exp(-0.3 * t) * np.cos(t)), kinks


def test_breaks_at_kinks_converge_in_one_round():
    f, kinks = kinked()
    rec = Recorder(f)
    res = integrate_adaptive(rec, 0.0, 10.0, CFG, breaks=kinks)
    assert res.converged
    # one round: every panel between breaks evaluated once, none bisected
    assert sum(rec.sizes) == 16 * (kinks.size + 1)
    ref, referr = quad(lambda t: float(f(np.array([t]))[0]), 0.0, 10.0, points=kinks,
                       limit=4 * kinks.size, epsabs=1e-14, epsrel=1e-14)
    assert referr < 1e-12
    assert res.value == pytest.approx(ref, abs=1e-12)


def test_breaks_outside_the_interval_are_ignored():
    f, kinks = kinked(n_kinks=20)
    inner = integrate_adaptive(f, 2.0, 7.0, CFG, breaks=kinks[(kinks > 2.0) & (kinks < 7.0)])
    every = integrate_adaptive(f, 2.0, 7.0, CFG, breaks=np.concatenate([[-1.0, 2.0], kinks, [7.0, 11.0]]))
    assert every == inner


def test_no_call_exceeds_the_chunk():
    # without breaks bisection must find the kinks: rounds of many panels
    f, _ = kinked()
    rec = Recorder(f)
    res = integrate_adaptive(rec, 0.0, 10.0, CFG)
    assert res.converged
    assert max(rec.sizes) <= quadrature._CHUNK
    assert max(rec.sizes) > quadrature._CHUNK // 2


def test_nonconvergent_integrand_stops_at_the_panel_budget():
    # noise never converges; the budget, not max_depth, ends the refinement
    rng = np.random.default_rng(0)
    rec = Recorder(lambda t: rng.standard_normal(np.size(t)))
    res = integrate_adaptive(rec, 0.0, 1.0, CFG)
    assert not res.converged
    panels = sum(rec.sizes) // 16
    assert quadrature._PANEL_BUDGET // 2 < panels <= quadrature._PANEL_BUDGET


@pytest.mark.parametrize("rule", ["adaptive", "product"])
def test_a_non_finite_sample_stops_the_rounds(rule):
    # g is inf beyond 2.9: the first round already sums to nan, and bisecting
    # only finds more inf samples, up to the panel budget (6.4e6 points for
    # the product rule), each round warning of inf * 0
    rec = Recorder(lambda y: np.where(y > 2.9, np.inf, np.exp(-y)))
    nodes = np.linspace(0.5, 3.0, 11)
    f = GridFunction(nodes, np.sin(nodes) ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if rule == "adaptive":
            res = integrate_adaptive(rec, 0.5, 3.0, CFG, breaks=nodes)
        else:
            res = integrate_product(rec, f.segments, 0.5, 3.0, CFG, breaks=nodes)
    assert not res.converged
    assert sum(rec.sizes) == 16 * (nodes.size - 1)


def heap_reference(f, a, b, cfg):
    """One GL 21/10 panel at a time from a heap, largest error first: an
    independent rule and refinement order that the rounds must agree with."""

    def panel(pa, pb):
        v, e = gl_panels(f, pa, pb)
        return float(v[0]), float(e[0])

    v, e = panel(a, b)
    heap, total_v, total_e = [(-e, a, b, v, e, 0)], v, e
    while heap and total_e > max(cfg.abs_tol, cfg.rel_tol * abs(total_v)):
        _, pa, pb, pv, pe, depth = heapq.heappop(heap)
        if depth >= cfg.max_depth:
            continue
        pm = 0.5 * (pa + pb)
        (v1, e1), (v2, e2) = panel(pa, pm), panel(pm, pb)
        total_v += v1 + v2 - pv
        total_e += e1 + e2 - pe
        heapq.heappush(heap, (-e1, pa, pm, v1, e1, depth + 1))
        heapq.heappush(heap, (-e2, pm, pb, v2, e2, depth + 1))
    return total_v, total_e


@pytest.mark.parametrize("name,f,a,b", [
    ("peak", lambda t: 1.0 / (1e-4 + (t - 0.3) ** 2), 0.0, 1.0),
    ("endpoint", lambda t: t ** -0.4 * np.cos(t), 0.0, 2.0),
    ("oscillation", lambda t: np.sin(40.0 * t) * np.exp(-t), 0.0, 5.0),
    ("kinks", kinked(n_kinks=30)[0], 0.0, 10.0),
])
def test_rounds_agree_with_the_heap_reference(name, f, a, b):
    res = integrate_adaptive(f, a, b, CFG)
    ref, ref_err = heap_reference(f, a, b, CFG)
    assert res.converged
    assert abs(res.value - ref) <= res.error + ref_err


@pytest.mark.parametrize("interp", ["linear", "pconst", None])
@pytest.mark.parametrize("degree", [3, 15])
def test_product_rule_is_exact_for_a_polynomial_weight(interp, degree):
    # g of degree <= 15 is its own interpolant on every panel, so the value
    # is the closed-form sum over f's pieces of ∫ y^d (a + b y) dy up to
    # rounding, which the bar must cover.  The random f has pieces up to 1e3
    # steep; at degree 3 the tail is rounding noise, and eps * sum |pieces|
    # fell short of the cancellation inside the steep pieces.  Without an f
    # the weight is 1, through integrate_adaptive
    rng = np.random.default_rng(25)
    nodes = np.sort(rng.uniform(0.5, 2.0, 40))
    if interp is None:
        res = integrate_adaptive(lambda y: y ** degree, 0.4, 2.1, CFG, breaks=[1.0])
        u, v, a, b = np.array([0.4]), np.array([2.1]), np.ones(1), np.zeros(1)
    else:
        f = GridFunction(nodes, rng.uniform(-1.0, 1.0, nodes.size), interp)
        res = integrate_product(lambda y: y ** degree, f.segments, 0.4, 2.1, CFG, breaks=[1.0])
        _, u, v, a, b = f.segments()
    d = degree
    exact = np.sum(a * (v ** (d + 1) - u ** (d + 1)) / (d + 1) + b * (v ** (d + 2) - u ** (d + 2)) / (d + 2))
    assert res.converged
    assert abs(res.value - exact) <= 1e-13 * np.sum(np.abs(a) * v ** (d + 1) + np.abs(b) * v ** (d + 2))
    assert abs(res.value - exact) <= res.error


def test_product_tail_is_not_fooled_by_a_peak_on_the_panel_midpoint():
    # a heat-kernel peak exp(-(y - c)^2 / 4t) on the midpoint of the only
    # first panel is even about it: every odd Chebyshev coefficient
    # vanishes, the last one with them, so a tail read off the last
    # coefficient alone would accept the poor first interpolant
    t, c = 0.01, 2.0
    g = lambda y: np.exp(-(y - c) ** 2 / (4.0 * t))
    f = GridFunction(np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    exact = math.sqrt(4.0 * math.pi * t) * math.erf(1.0 / math.sqrt(4.0 * t))
    nodes, maps = quadrature._cheb()
    coef = g(c + nodes) @ maps[0]  # ends in c_14, c_15
    first, _ = quadrature._product_panels(g, f.segments, np.array([1.0]), np.array([3.0]))
    assert abs(coef[-1]) < 1e-15 and abs(coef[-2]) > 1e-2
    # the first round misses by far more than |c_15| times ∫|f| dy = 2
    assert abs(first[0] - exact) > 1e6 * abs(coef[-1]) * 2.0
    res = integrate_product(g, f.segments, 1.0, 3.0, CFG)
    assert res.converged
    assert abs(res.value - exact) <= res.error


def test_halfline_exponential():
    res = integrate_halfline(lambda t: np.exp(-t), CFG)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_halfline_gamma_integral(alpha):
    res = integrate_halfline(lambda t: t ** (alpha / 2 - 1) * np.exp(-t), CFG)
    assert res.converged
    assert res.value == pytest.approx(math.gamma(alpha / 2), rel=1e-8)


def test_halfline_slow_decay_flagged():
    res = integrate_halfline(lambda t: 1.0 / (1.0 + t), QuadConfig(abs_tol=1e-8))
    assert not res.converged


def test_pv_odd_symmetry():
    res = integrate_pv(lambda t: 1.0 / t, 0.0, -1.0, 1.0, CFG)
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_pv_symmetric_window():
    res = integrate_pv(lambda t: 1.0 / (t - 1.0), 1.0, 0.0, 2.0, CFG)
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_pv_log_closed_form():
    # PV over (0, 3) of 1/(x-1) = log((b-s)/(s-a)) = log 2
    res = integrate_pv(lambda t: 1.0 / (t - 1.0), 1.0, 0.0, 3.0, CFG)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-9)


def test_pv_with_smooth_factor():
    # PV int_0^3 e^t/(t-1) dt = e * Ei(2) - e * Ei(-1) ... use quadpack weighted
    from scipy.integrate import quad as _q

    ref = _q(lambda t: math.exp(t), 0.0, 3.0, weight="cauchy", wvar=1.0)[0]
    res = integrate_pv(lambda t: np.exp(t) / (t - 1.0), 1.0, 0.0, 3.0, CFG)
    assert res.value == pytest.approx(ref, abs=1e-8)


def test_pv_odd_function_property():
    # any odd (about s) smooth numerator over a symmetric window -> 0
    s = 2.0
    res = integrate_pv(lambda t: np.sin(t - s) ** 3 / (t - s) ** 2, s, 1.0, 3.0, CFG)
    # integrand = odd/(even) = odd about s
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_pv_non_pv_singularity_raises():
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        integrate_pv(lambda t: 1.0 / (t - 1.0) ** 2, 1.0, 0.0, 3.0, CFG)


@pytest.mark.parametrize("s", [2.0 + 2e-6, 2.0 - 2e-6, 1.0 + 1e-7, 0.5 + 1e-9])
def test_pv_next_to_a_power_of_two_meets_a_tight_tolerance(s):
    # s + u and s - u lie in binades of different ulp, so rounding them
    # independently leaves the pole ulp(s)/u^2 of noise that no bisection
    # removes: the sqrt grades the panels toward u = 0, and the rounds run
    # into the panel budget (12.8e6 points) and raise
    a, b = 0.2, 3.0
    rec = Recorder(lambda t: np.exp(t) / (t - s) + np.sqrt(np.abs(t - s)))
    res = integrate_pv(rec, s, a, b, QuadConfig(abs_tol=1e-13, rel_tol=1e-12))
    exact = math.exp(s) * (expi(b - s) - expi(a - s)) + 2.0 / 3.0 * ((b - s) ** 1.5 + (s - a) ** 1.5)
    assert abs(res.value - exact) <= res.error
    assert sum(rec.sizes) < 2000


@pytest.mark.parametrize("s", [0.75, 1.3])
def test_pv_window_may_reach_a_singular_endpoint(s):
    # the folded window (0, 2s) grades toward t = 0, where t^-0.4 is
    # infinite: the distances that s + u rounds to must not put s - u there
    res = integrate_pv(lambda t: t ** -0.4 + 1.0 / (t - s), s, 0.0, 3.0, CFG)
    exact = 3.0 ** 0.6 / 0.6 + math.log((3.0 - s) / s)
    assert abs(res.value - exact) <= res.error


def test_pv_requires_interior_point():
    with pytest.raises(ValueError):
        integrate_pv(lambda t: 1.0 / t, 5.0, 0.0, 3.0, CFG)
