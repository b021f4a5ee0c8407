import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from besselkit.measure import (
    GridFunction,
    MeasureSpace,
    comparable_volume,
    doubling_ratio,
    make_log_grid,
)


def test_ball_measure_closed_forms():
    # lam = 1/2: integral of t dt over (0, 2) = 2
    assert MeasureSpace(0.5).ball_measure(1.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    # lam = 1: (4^3 - 2^3)/3
    assert MeasureSpace(1.0).ball_measure(3.0, 1.0) == pytest.approx(56.0 / 3.0, rel=1e-14)


def test_ball_measure_against_quadrature():
    # at epsabs=0, epsrel=1e-13 QUADPACK converges without a roundoff warning
    space = MeasureSpace(0.7)
    got = space.ball_measure(2.0, 0.5)
    expected, err = quad(lambda t: t ** 1.4, 1.5, 2.5, epsabs=0.0, epsrel=1e-13)
    assert err < 1e-12
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ratio", [1e-8, 1e-12, 1e-17])
def test_ball_measure_small_radius_against_mpmath(ratio):
    # (x + r)^Q - (x - r)^Q cancels for r << x; the measure must not
    space = MeasureSpace(0.75)
    x = 1.3
    r = ratio * x
    q = mpmath.mpf(space.upper_dim)
    with mpmath.workdps(50):
        xm, rm = mpmath.mpf(x), mpmath.mpf(r)
        exact = ((xm + rm) ** q - (xm - rm) ** q) / q
    got = float(space.ball_measure(x, r))
    assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)


def test_interval_clamps_at_zero():
    # I(1, 3) = (-2, 4) clipped to (0, 4)
    space = MeasureSpace(1.0)
    assert space.ball_measure(1.0, 3.0) == pytest.approx(4.0 ** 3 / 3.0, rel=1e-14)


def test_invalid_construction():
    with pytest.raises(ValueError):
        MeasureSpace(0.0)
    # inf passes a bare "> 0" check and then turns measures into nan
    with pytest.raises(ValueError):
        MeasureSpace(np.inf)
    space = MeasureSpace(1.0)
    bad = [(-1.0, 1.0), (1.0, 0.0), (np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)]
    for x, r in bad:
        with pytest.raises(ValueError):
            doubling_ratio(space, x, r)
        with pytest.raises(ValueError):
            comparable_volume(space, x, r)


def test_doubling_ratio_closed_form():
    # lam = 1, I = (0, 2): m(2I)/m(I) = 27/8 after clamping
    assert doubling_ratio(MeasureSpace(1.0), 1.0, 1.0) == pytest.approx(27.0 / 8.0, rel=1e-13)


def test_doubling_ratio_density_limit():
    # shrinking interval at an interior point: locally constant density, ratio -> 2
    space = MeasureSpace(1.0)
    r = doubling_ratio(space, 1.0, 1e-7)
    assert r == pytest.approx(2.0, abs=1e-6)


def test_doubling_ratio_upper_bound_lambda_half():
    space = MeasureSpace(0.5)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = 10.0 ** rng.uniform(-2, 2)
        r = 10.0 ** rng.uniform(-3, 2)
        assert doubling_ratio(space, x, r) <= 4.0 + 1e-12


@given(
    lam=st.floats(min_value=0.1, max_value=4.0),
    x=st.floats(min_value=1e-3, max_value=1e3),
    r=st.floats(min_value=1e-4, max_value=1e3),
)
@settings(max_examples=200, deadline=None)
def test_doubling_ratio_bounded_by_upper_dimension(lam, x, r):
    space = MeasureSpace(lam)
    ratio = doubling_ratio(space, x, r)
    assert 1.0 < ratio <= 2.0 ** space.upper_dim * (1 + 1e-10)


@given(
    lam=st.floats(min_value=0.1, max_value=4.0),
    x=st.floats(min_value=1e-2, max_value=1e2),
    r=st.floats(min_value=1e-3, max_value=1e2),
    delta=st.floats(min_value=1e-2, max_value=1e2),
)
@settings(max_examples=200, deadline=None)
def test_dilation_covariance(lam, x, r, delta):
    space = MeasureSpace(lam)
    m1 = space.ball_measure(delta * x, delta * r)
    m0 = space.ball_measure(x, r)
    assert m1 == pytest.approx(delta ** space.upper_dim * m0, rel=1e-10)


def test_additivity_and_monotonicity():
    space = MeasureSpace(1.3)
    a = space.segment_measure(1.0, 2.0) + space.segment_measure(2.0, 5.0)
    assert a == pytest.approx(space.segment_measure(1.0, 5.0), rel=1e-14)
    assert space.ball_measure(3.0, 1.0) < space.ball_measure(3.0, 2.0)


def test_comparable_volume_coincidence():
    # lam = 1/2, x = r = 1: x^(2 lam) r + r^Q = 2 = exact measure
    space = MeasureSpace(0.5)
    assert comparable_volume(space, 1.0, 1.0) == pytest.approx(2.0)
    assert comparable_volume(space, 1.0, 1.0) == pytest.approx(
        space.ball_measure(1.0, 1.0)
    )


def test_comparable_volume_band_and_asymptote():
    space = MeasureSpace(1.0)
    ratios = []
    for x in np.geomspace(0.1, 10, 25):
        for r in np.geomspace(0.1, 10, 25):
            ratios.append(
                space.ball_measure(x, r) / comparable_volume(space, x, r)
            )
    ratios = np.array(ratios)
    assert ratios.min() > 0.2
    assert ratios.max() < 2.5
    # interior asymptote: m(I)/(x^(2 lam) r + r^Q) -> 2 for x >> r
    far = space.ball_measure(100.0, 1e-3) / comparable_volume(space, 100.0, 1e-3)
    assert far == pytest.approx(2.0, rel=1e-4)


def test_make_log_grid_validation():
    g = make_log_grid(0.1, 10.0, 5)
    assert g.shape == (5,)
    assert np.allclose(np.diff(np.log(g)), np.log(10.0) / 2 * np.ones(4) / 1)
    with pytest.raises(ValueError):
        make_log_grid(1.0, 0.5, 5)
    with pytest.raises(ValueError):
        make_log_grid(1.0, 2.0, 1)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction([1.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        GridFunction([2.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0], [0.0, 1.0], interp="cubic")
    # a node or value that is not finite would reach the integrals as nan
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0, np.inf], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0, 3.0], [0.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        GridFunction([1.0, 2.0, 3.0], [0.0, -np.inf, 0.0], interp="pconst")


def test_grid_function_zero_outside_support():
    f = GridFunction([1.0, 2.0], [3.0, 5.0])
    assert f(0.5) == 0.0
    assert f(2.5) == 0.0
    assert f(1.5) == pytest.approx(4.0)
    out = f(np.array([0.5, 1.0, 2.0, 3.0]))
    assert np.allclose(out, [0.0, 3.0, 5.0, 0.0])


def test_grid_function_pconst_cells():
    f = GridFunction([1.0, 2.0, 3.0], [4.0, 7.0, 7.0], interp="pconst")
    assert f(1.5) == 4.0
    assert f(2.5) == 7.0
    assert f(0.99) == 0.0


def test_integrate_grid_constant_support():
    # f = 1 on (1, 2), lam = 1/2: integral of t dt = 3/2
    space = MeasureSpace(0.5)
    f = GridFunction(np.linspace(1.0, 2.0, 11), np.ones(11))
    assert f.integrate_dm(space) == pytest.approx(1.5, rel=1e-14)


def test_integrate_grid_zero():
    space = MeasureSpace(1.0)
    f = GridFunction(np.linspace(1.0, 2.0, 11), np.zeros(11))
    assert f.integrate_dm(space) == 0.0


def test_integrate_grid_refinement_halves_indicator_error():
    # indicator of (1, 2) sampled on a surrounding grid: the interpolation
    # ramp at the jumps shrinks linearly with the grid step
    space = MeasureSpace(1.0)
    target = space.segment_measure(1.0, 2.0)

    def error(n):
        nodes = np.linspace(0.5, 2.5, n)
        vals = ((nodes >= 1.0) & (nodes <= 2.0)).astype(float)
        return abs(GridFunction(nodes, vals).integrate_dm(space) - target)

    e1, e2 = error(101), error(201)
    assert e2 <= 0.55 * e1


def test_integrate_dm_window_and_mean():
    space = MeasureSpace(0.5)
    nodes = np.linspace(1.0, 3.0, 201)
    f = GridFunction(nodes, nodes.copy())  # f(x) = x exactly on the grid
    # closed form: f_I = (int x * x dx) / (int x dx) over (1, 3) = 26/12
    mean = f.integrate_dm(space, 1.0, 3.0) / space.ball_measure(2.0, 1.0)
    assert mean == pytest.approx(26.0 / 12.0, rel=1e-12)


def test_integrate_abs_dev_exact_crossings():
    space = MeasureSpace(0.5)
    nodes = np.linspace(1.0, 3.0, 2)
    f = GridFunction(nodes, nodes.copy())  # f(x) = x as a single segment
    c = 2.0
    # int_1^3 |x - 2| x dx = int_1^2 (2-x)x + int_2^3 (x-2)x = 2/3 + 5/6... computed:
    lo = quad(lambda t: abs(t - 2.0) * t, 1.0, 3.0, epsabs=1e-14)[0]
    assert f.integrate_abs_dev_dm(space, c) == pytest.approx(lo, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(0.0, 3.0), (0.0, 0.5), (2.5, 3.0), (1.2, 1.8), (1.5, 4.0)])
def test_integrate_abs_dev_counts_the_window_off_the_grid(lo, hi):
    # f = 1 on [1, 2] and 0 off the grid, so |f - c| = |c| outside [1, 2]
    space = MeasureSpace(1.0)
    f = GridFunction([1.0, 2.0], [1.0, 1.0], interp="pconst")
    c = 0.5
    ref = quad(lambda t: abs(f(t) - c) * t * t, lo, hi, points=[1.0, 2.0], epsabs=1e-14)[0]
    assert f.integrate_abs_dev_dm(space, c, lo, hi) == pytest.approx(ref, rel=1e-12)


@given(
    lam=st.floats(min_value=0.2, max_value=3.0),
    c1=st.floats(min_value=-2.0, max_value=2.0),
    c2=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_integrate_grid_linearity(lam, c1, c2):
    space = MeasureSpace(lam)
    nodes = np.geomspace(0.5, 4.0, 37)
    rng = np.random.default_rng(11)
    f = GridFunction(nodes, rng.normal(size=nodes.size))
    g = GridFunction(nodes, rng.normal(size=nodes.size))
    combo = GridFunction(nodes, c1 * f.values + c2 * g.values)
    lhs = combo.integrate_dm(space)
    rhs = c1 * f.integrate_dm(space) + c2 * g.integrate_dm(space)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


# ------------------------------------------------------- arrays of windows

# windows inside the grid, straddling either end, off it on either side,
# empty, clipped at 0, covering it, and ending on nodes; one c per window
WINDOWS_LO = np.array([1.1, 0.3, 2.1, 2.6, 0.1, 1.5, 0.0, 0.0, 0.8])
WINDOWS_HI = np.array([1.9, 0.9, 3.0, 3.5, 0.4, 1.5, 1.2, 5.0, 2.0])
WINDOWS_C = np.array([0.2, -0.1, 0.0, 0.3, 0.5, 0.1, 0.25, -0.2, 0.35])
# sign changes inside cells, a zero exactly at the node 1.0, a flat zero cell
SIGNED_NODES = np.array([0.5, 0.8, 1.0, 1.3, 1.7, 2.0, 2.4])
SIGNED_VALUES = np.array([1.0, -0.5, 0.0, 0.0, 0.7, -0.3, 0.4])


@pytest.mark.parametrize("interp", ["linear", "pconst"])
def test_arrays_of_windows_equal_scalar_calls(interp):
    space = MeasureSpace(0.75)
    f = GridFunction(SIGNED_NODES, SIGNED_VALUES, interp)
    lo, hi, c = WINDOWS_LO, WINDOWS_HI, WINDOWS_C
    ints = f.integrate_dm(space, lo, hi)
    devs = f.integrate_abs_dev_dm(space, c, lo, hi)
    for j in range(lo.size):
        assert ints[j] == pytest.approx(f.integrate_dm(space, lo[j], hi[j]), rel=1e-13, abs=0.0)
        assert devs[j] == pytest.approx(f.integrate_abs_dev_dm(space, c[j], lo[j], hi[j]),
                                        rel=1e-13, abs=0.0)
    assert np.array_equal(f.integrate_dm(space, lo[:, None], hi[None, :]),
                          [[f.integrate_dm(space, a, b) for b in hi] for a in lo])
    for j in (0, 2, 6):  # inside, straddling the right end, clipped at 0
        x, y = SIGNED_NODES, SIGNED_VALUES - c[j]
        s = (y[:-1] * y[1:] < 0) & (interp == "linear")  # zeros of f - c inside cells
        kinks = np.concatenate([x, x[:-1][s] - y[:-1][s] * np.diff(x)[s] / np.diff(y)[s]])
        pts = kinks[(kinks > lo[j]) & (kinks < hi[j])]
        ref = quad(lambda t: abs(f(t) - c[j]) * t ** 1.5, lo[j], hi[j], points=pts,
                   epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        assert devs[j] == pytest.approx(ref, rel=1e-12)


def test_abs_nodes_equal_the_split_at_zeros_construction():
    # reference: every affine piece cut in two at a zero strictly inside it
    f = GridFunction(SIGNED_NODES, SIGNED_VALUES)
    _, u, v, a, b = f.segments()
    yc = np.where(b != 0.0, -a / np.where(b == 0.0, 1.0, b), u)
    cross = (b != 0.0) & (yc > u) & (yc < v)
    nodes = np.unique(np.concatenate([u, yc[cross], np.where(cross, yc, v), v[cross]]))
    g = f.abs()
    assert np.array_equal(g.nodes, nodes)
    assert np.array_equal(g.values, np.abs(f(nodes)))


def test_non_finite_windows_and_levels_are_rejected():
    space = MeasureSpace(1.0)
    f = GridFunction([1.0, 2.0, 3.0], [1.0, -1.0, 2.0])
    with pytest.raises(ValueError):
        f.integrate_dm(space, np.nan, 2.0)
    with pytest.raises(ValueError):
        f.integrate_dm(space, 1.5, np.nan)
    with pytest.raises(ValueError):
        f.integrate_dm(space, WINDOWS_LO, np.where(WINDOWS_HI > 2.0, np.nan, WINDOWS_HI))
    with pytest.raises(ValueError):
        f.integrate_abs_dev_dm(space, np.nan, 1.0, 2.0)
    with pytest.raises(ValueError):
        f.integrate_abs_dev_dm(space, 0.5, 1.0, np.inf)
