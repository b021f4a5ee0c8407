import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besselkit.kernels import KernelSpec, riesz_kernel, frac_kernel
from besselkit.measure import GridFunction, Interval, MeasureSpace, make_log_grid, measure_interval
from besselkit.operators import (
    LadderConfig,
    OperatorSpec,
    apply_frac,
    apply_riesz,
    apply_semigroup,
    commutator,
    frac_integral_Igamma,
    h_beta_maximal,
    hl_maximal,
    hl_maximal_t,
    maximal_power_default,
    oscillation_family,
)
from besselkit.quadrature import QuadConfig

SP = MeasureSpace(1.0)
FAST = QuadConfig(abs_tol=1e-9, rel_tol=1e-8)


def smooth_bump(center=1.0, radius=0.5, n=301):
    """C1 plateau-free bump: (1 - u^2)^2 profile on the given interval."""
    nodes = np.linspace(center - radius, center + radius, n)
    u = (nodes - center) / radius
    return GridFunction(nodes, (1.0 - u * u) ** 2)


def test_semigroup_positivity_and_contraction():
    f = smooth_bump()
    spec = OperatorSpec(KernelSpec("poisson", SP, t=0.4, quad=FAST))
    vals = [apply_semigroup(spec, f, x) for x in (0.2, 0.8, 1.0, 2.5, 10.0)]
    assert all(v >= 0 for v in vals)
    assert max(vals) <= np.max(f.values) + 1e-9


def test_semigroup_law_poisson():
    # P_t P_s f = P_{t+s} f on a smooth bump, lam = 1, t = s = 0.5
    f = smooth_bump()
    t = s = 0.5
    inner = OperatorSpec(KernelSpec("poisson", SP, t=s, quad=FAST))
    mid_nodes = make_log_grid(1e-3, 30.0, 700)
    mid = GridFunction(mid_nodes, np.array([apply_semigroup(inner, f, y) for y in mid_nodes]))
    outer = OperatorSpec(KernelSpec("poisson", SP, t=t, quad=FAST))
    both = OperatorSpec(KernelSpec("poisson", SP, t=t + s, quad=FAST))
    sup_f = float(np.max(np.abs(f.values)))
    worst = 0.0
    for x in (0.5, 1.0, 1.4, 3.0):
        composed = apply_semigroup(outer, mid, x)
        direct = apply_semigroup(both, f, x)
        worst = max(worst, abs(composed - direct) / sup_f)
    assert worst < 1e-4


@pytest.mark.parametrize("kind,t,x", [("heat", 0.02, 1.0), ("poisson", 2.0, 3e-5),
                                     ("conj_poisson", 0.02, 6.8)])
def test_semigroup_on_a_fine_grid_takes_few_kernel_calls(monkeypatch, kind, t, x):
    # the grid's 1199 cells are the first panels; on this Gaussian they
    # converge in one round of 37169 points, in 10 calls
    import besselkit.operators as ops

    sizes = []
    real = ops.kernel_value

    def counted(spec, x, y, **kw):
        sizes.append(np.size(y))
        return real(spec, x, y, **kw)

    monkeypatch.setattr(ops, "kernel_value", counted)
    nodes = np.linspace(1e-5, 6.0, 1200)
    f = GridFunction(nodes, np.exp(-nodes * nodes))
    apply_semigroup(OperatorSpec(KernelSpec(kind, MeasureSpace(0.75), t=t)), f, x)
    assert len(sizes) <= 16
    assert sum(sizes) <= 31 * 1199 + 31 * 64


def test_riesz_outside_support_matches_plain_quadrature():
    f = smooth_bump(center=10.0, radius=1.0)
    spec = OperatorSpec(KernelSpec("riesz", SP, quad=FAST))
    x = 0.5  # far below the support
    got = apply_riesz(spec, f, x)
    rk = KernelSpec("riesz", SP)
    ref = quad(lambda y: riesz_kernel(rk, x, y) * f(y) * y ** 2, 9.0, 11.0,
               epsabs=1e-12, limit=300)[0]
    assert got == pytest.approx(ref, rel=1e-7)
    # size bound built from the far-field kernel envelope
    l1 = f.integrate_dm(SP)
    assert abs(got) <= 10.0 * x * l1 / 9.0 ** (2 * SP.lam + 2) * 9.0 ** (2 * SP.lam)


def test_riesz_consistency_with_conjugate_limit():
    f = smooth_bump()
    spec = OperatorSpec(KernelSpec("riesz", SP, quad=FAST))
    x = 1.1
    target = apply_riesz(spec, f, x)
    q = {t: apply_semigroup(OperatorSpec(KernelSpec("conj_poisson", SP, t=t, quad=FAST)), f, x)
         for t in (0.05, 0.02, 0.01)}
    gaps = [abs(q[t] - target) for t in (0.05, 0.01)]
    assert gaps[1] < gaps[0]
    # Q_t f - R f falls like t (0.0696, 0.0290, 0.0145 at t = 0.05, 0.02,
    # 0.01), so the Richardson value 2 Q_0.01 f - Q_0.02 f removes the
    # first-order term; it lands 4.8e-5 from the PV value
    assert abs(2.0 * q[0.01] - q[0.02] - target) < 1e-4


def test_riesz_linearity():
    f = smooth_bump(1.0, 0.5)
    g = smooth_bump(1.2, 0.4, n=241)
    nodes = np.unique(np.concatenate([f.nodes, g.nodes]))
    combo = GridFunction(nodes, 2.0 * f(nodes) - 0.7 * g(nodes))
    spec = OperatorSpec(KernelSpec("riesz", SP, quad=FAST))
    x = 1.05
    lhs = apply_riesz(spec, combo, x)
    rhs = 2.0 * apply_riesz(spec, GridFunction(nodes, f(nodes)), x) - 0.7 * apply_riesz(
        spec, GridFunction(nodes, g(nodes)), x
    )
    assert lhs == pytest.approx(rhs, abs=5e-6)


def test_frac_positivity_and_far_indicator():
    space = MeasureSpace(1.0)
    spec = OperatorSpec(KernelSpec("fractional", space, alpha=0.5, quad=FAST))
    nodes = np.linspace(5.0, 5.1, 41)
    f = GridFunction(nodes, np.ones_like(nodes))
    x = 1.0
    got = apply_frac(spec, f, x)
    assert got > 0
    mid = 5.05
    approx = frac_kernel(spec.kernel, x, mid) * f.integrate_dm(space)
    assert got == pytest.approx(approx, rel=0.05)


def test_frac_scaling_change_of_variables():
    space = MeasureSpace(1.0)
    alpha = 0.5
    spec = OperatorSpec(KernelSpec("fractional", space, alpha=alpha, quad=FAST))
    f = smooth_bump(1.0, 0.4, n=201)
    x, delta = 0.7, 2.0
    base = apply_frac(spec, f, x)
    scaled = apply_frac(spec, f.dilate(delta), delta * x)
    assert scaled == pytest.approx(delta ** alpha * base, rel=1e-6)


def test_commutator_constant_symbol_vanishes():
    f = smooth_bump()
    b = GridFunction(np.array([1e-3, 100.0]), np.array([3.0, 3.0]))
    spec = OperatorSpec(KernelSpec("riesz", SP, quad=FAST), symbol=b)
    assert commutator(spec, f, 1.0) == 0.0
    assert commutator(spec, f, 5.0) == 0.0


def test_commutator_fused_equals_two_term_outside_support():
    f = smooth_bump(1.0, 0.5)
    nodes = make_log_grid(0.3, 3.0, 400)
    b = GridFunction(nodes, np.sqrt(nodes))
    spec = OperatorSpec(KernelSpec("riesz", SP, quad=FAST), symbol=b)
    x = 4.0  # outside supp f, inside supp b... two-term needs b at x
    fused = commutator(spec, f, x)
    plain = OperatorSpec(KernelSpec("riesz", SP, quad=FAST))
    bf = GridFunction(f.nodes, b(f.nodes) * f.values)
    two_term = b(x) * apply_riesz(plain, f, x) - apply_riesz(plain, bf, x)
    assert fused == pytest.approx(two_term, abs=3e-6)


def test_commutator_holder_symbol_finite_on_support():
    beta = 0.5
    f = smooth_bump()
    nodes = make_log_grid(1e-3, 100.0, 500)
    b = GridFunction(nodes, nodes ** beta)
    spec = OperatorSpec(KernelSpec("riesz", SP, quad=FAST), symbol=b)
    x = 1.0  # interior point of supp f: singularity order 1 - beta < 1
    v = commutator(spec, f, x)
    assert np.isfinite(v)
    # stability under a tighter budget (epsilon-refinement stand-in)
    tight = OperatorSpec(KernelSpec("riesz", SP, quad=QuadConfig(abs_tol=1e-11, rel_tol=1e-10)), symbol=b)
    v2 = commutator(tight, f, x)
    assert v == pytest.approx(v2, rel=1e-4, abs=1e-8)


def test_commutator_symbol_shift_invariance():
    f = smooth_bump()
    nodes = make_log_grid(0.1, 10.0, 200)
    b = GridFunction(nodes, np.log(nodes))
    b_shift = GridFunction(nodes, np.log(nodes) + 5.0)
    k = KernelSpec("riesz", SP, quad=FAST)
    a = commutator(OperatorSpec(k, symbol=b), f, 0.9)
    c = commutator(OperatorSpec(k, symbol=b_shift), f, 0.9)
    assert a == pytest.approx(c, rel=1e-10)


def test_commutator_requires_symbol():
    with pytest.raises(ValueError):
        commutator(OperatorSpec(KernelSpec("riesz", SP)), smooth_bump(), 1.0)


# ------------------------------------------------------------------ maximal


def test_hl_maximal_trivials():
    nodes = np.linspace(0.01, 100.0, 800)
    one = GridFunction(nodes, np.ones_like(nodes))
    m = hl_maximal(SP, one, 5.0)
    assert m == pytest.approx(1.0, abs=1e-9)
    # plateau point: M f >= f(x)
    plateau = GridFunction(nodes, ((nodes > 1) & (nodes < 3)).astype(float))
    assert hl_maximal(SP, plateau, 2.0) >= 1.0 - 1e-12


def test_hl_maximal_matches_exhaustive_oracle():
    # brute force over every interval [a, b] containing x whose ends lie on
    # a 2e-3 lattice or on a node, each integral taken by integrate_dm
    nodes = np.linspace(0.5, 4.0, 60)
    f = GridFunction(nodes, ((nodes >= 1.0) & (nodes <= 2.0)).astype(float))
    x = 2.6
    ends = np.unique(np.concatenate([np.linspace(0.0, 4.0, 2001), nodes, [x]]))
    mass = np.array([f.integrate_dm(SP, 0.0, y) for y in ends])
    vol = SP.segment_measure(0.0, ends)
    left, right = ends < x, ends >= x
    avg = (mass[right][None, :] - mass[left][:, None]) / (vol[right][None, :] - vol[left][:, None])
    oracle = float(np.max(avg))
    got = hl_maximal(SP, f, x)
    assert got >= oracle - 1e-12
    assert got <= oracle + 1e-6


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=11),
    heights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3)),
                     min_size=12, max_size=12),
    start=st.floats(0.05, 2.0),
    x=st.floats(0.01, 8.0),
    lam=st.floats(0.25, 2.0),
    split=st.integers(0, 10),
)
def test_hl_maximal_pconst_equals_all_pairs_sweep(gaps, heights, start, x, lam, split):
    space = MeasureSpace(lam)
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    values = np.array(heights[: nodes.size])
    f = GridFunction(nodes, values, "pconst")
    g = f.abs()
    # for a step function the average is monotone in each end inside a
    # cell, so ends at 0, x and the nodes attain the supremum
    lefts = np.concatenate([[0.0, x], nodes[nodes < x]])
    rights = np.concatenate([[x], nodes[nodes > x]])
    sweep = max(g.integrate_dm(space, a, b) / space.segment_measure(a, b)
                for a in lefts for b in rights if b > a)
    got = hl_maximal(space, f, x)
    assert got == pytest.approx(sweep, rel=1e-12, abs=0.0)
    # a node inserted inside a cell, carrying that cell's value, leaves f
    # and so its maximal function unchanged
    i = split % (nodes.size - 1)
    mid = 0.5 * (nodes[i] + nodes[i + 1])
    finer = GridFunction(np.insert(nodes, i + 1, mid), np.insert(values, i + 1, values[i]), "pconst")
    assert hl_maximal(space, finer, x) == pytest.approx(got, rel=1e-12, abs=0.0)


def test_hl_maximal_homogeneous_in_f():
    nodes = np.linspace(0.5, 4.0, 100)
    f = GridFunction(nodes, np.sin(nodes))
    a = hl_maximal(SP, f, 1.7)
    b = hl_maximal(SP, f.scale(-3.0), 1.7)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_hl_maximal_t_dominates_plain():
    nodes = np.linspace(0.5, 4.0, 100)
    f = GridFunction(nodes, np.sin(nodes) + 0.2)
    m1 = hl_maximal(SP, f, 1.7)
    m2 = hl_maximal_t(SP, f, 1.7, 2.0)
    assert m2 >= m1 - 1e-9  # Jensen: higher power average dominates


def test_maximal_power_default_in_range():
    for p in (1.5, 2.0, 4.0):
        t = maximal_power_default(p)
        assert 1.0 < t * t < p


# ------------------------------------------------------- fractional integral


def test_igamma_positivity_and_midpoint_oracle():
    space = MeasureSpace(1.0)
    nodes = np.linspace(6.0, 6.05, 21)
    f = GridFunction(nodes, np.ones_like(nodes))
    x, gamma = 1.0, 0.5
    got = frac_integral_Igamma(space, f, gamma, x)
    assert got > 0
    d = 6.025 - x
    approx = measure_interval(space, Interval(x, d)) ** (gamma - 1.0) * f.integrate_dm(space)
    assert got == pytest.approx(approx, rel=0.05)


def test_igamma_interior_singularity_integrable():
    space = MeasureSpace(0.5)
    f = smooth_bump(1.0, 0.5)
    v = frac_integral_Igamma(space, f, 0.3, 1.0)
    assert np.isfinite(v) and v > 0


def test_igamma_validates_gamma():
    with pytest.raises(ValueError):
        frac_integral_Igamma(SP, smooth_bump(), 1.5, 1.0)


# ----------------------------------------------------------- h_beta maximal


def test_h_beta_trivials():
    lad = LadderConfig(0.05, 2.0)

    def unit_family(iv):
        return measure_interval(SP, iv)  # integral of 1 over I

    assert h_beta_maximal(SP, unit_family, 0.0, 1.0, lad) == pytest.approx(1.0)

    def zero_family(iv):
        return 0.0

    assert h_beta_maximal(SP, zero_family, 0.5, 1.0, lad) == 0.0


def test_h_beta_oscillation_family_finite_for_smooth():
    nodes = np.linspace(0.5, 4.0, 200)
    g = GridFunction(nodes, np.sin(nodes))
    fam = oscillation_family(SP, g)
    lad = LadderConfig(0.05, 2.0)
    v = h_beta_maximal(SP, fam, 0.25, 1.5, lad, centers=g.nodes)
    assert np.isfinite(v) and v > 0


def test_h_beta_divergence_flag():
    lad = LadderConfig(0.05, 2.0)

    def exploding_family(iv):
        # grows faster than any measure power: sup cannot stabilize
        return measure_interval(SP, iv) ** -2.0

    assert h_beta_maximal(SP, exploding_family, 0.5, 1.0, lad) == float("inf")
