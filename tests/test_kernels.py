import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from besselkit.kernels import KernelSpec, kernel_value, theta_moments
from besselkit.measure import MeasureSpace
from besselkit.quadrature import QuadConfig
from halfline import integrate_halfline

SP1 = MeasureSpace(1.0)


def dm_weight(space, y):
    return y ** (2.0 * space.lam)


# ---------------------------------------------------------------- spec guard


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("poisson", SP1)  # missing t
    with pytest.raises(ValueError):
        KernelSpec("heat", SP1, t=-1.0)
    for kind in ("heat", "poisson", "conj_poisson"):  # an infinite t used to pass
        for t in (np.inf, np.nan):
            with pytest.raises(ValueError):
                KernelSpec(kind, SP1, t=t)
    with pytest.raises(ValueError):
        KernelSpec("fractional", SP1, alpha=5.0)  # alpha >= Q = 3
    with pytest.raises(ValueError):
        KernelSpec("banana", SP1, t=1.0)


# ---------------------------------------------------------------- theta core


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("xyt", [(1.0, 2.0, 0.0), (3.0, 0.1, 0.5), (1.0, 1.0, 0.1)])
def test_theta_moments_against_quadpack(lam, xyt):
    x, y, t = xyt
    A, B = x * x + y * y + t * t, 2 * x * y
    j0, j1, err = theta_moments(lam, A, B)
    r0 = quad(lambda th: math.sin(th) ** (2 * lam - 1) / (A - B * math.cos(th)) ** (lam + 1),
              0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=500)[0]
    r1 = quad(lambda th: math.cos(th) * math.sin(th) ** (2 * lam - 1) / (A - B * math.cos(th)) ** (lam + 1),
              0, math.pi, epsabs=1e-13, epsrel=1e-12, limit=500)[0]
    assert j0[0] == pytest.approx(r0, rel=1e-10)
    assert j1[0] == pytest.approx(r1, rel=1e-10, abs=1e-14)


def test_theta_moments_near_diagonal_asymptote():
    # leading behavior J0 ~ 2^(lam-1) B^(-lam-1) / (lam q) as q -> 0
    lam = 1.0
    x, y = 1.0, 1.0 + 3e-7
    A, B = x * x + y * y, 2 * x * y
    q = (A - B) / B
    j0, _, _ = theta_moments(lam, A, B)
    lead = 2.0 ** (lam - 1) * B ** (-lam - 1) / (lam * q)
    assert j0[0] == pytest.approx(lead, rel=1e-5)


def test_theta_moments_rejects_diagonal():
    with pytest.raises(ValueError):
        theta_moments(1.0, 2.0, 2.0)


# ---------------------------------------------------------------- heat


def test_heat_conservation():
    for lam in (1.0,):
        space = MeasureSpace(lam)
        for t in (0.1, 1.0):
            spec = KernelSpec("heat", space, t=t)
            res = integrate_halfline(
                lambda y: kernel_value(spec, 1.0, y) * dm_weight(space, y),
                QuadConfig(abs_tol=1e-9),
            )
            assert res.converged
            assert res.value == pytest.approx(1.0, abs=1e-6)


def test_heat_symmetry_exact():
    spec = KernelSpec("heat", SP1, t=0.7)
    assert kernel_value(spec, 1.3, 2.9) == kernel_value(spec, 2.9, 1.3)


def test_heat_homogeneity_exact():
    space = MeasureSpace(0.7)
    delta = 2.0
    lhs = kernel_value(KernelSpec("heat", space, t=delta ** 2 * 0.3), delta * 1.0, delta * 1.5)
    rhs = delta ** (-space.upper_dim) * kernel_value(KernelSpec("heat", space, t=0.3), 1.0, 1.5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------- poisson


def test_poisson_conservation_and_positivity():
    space = MeasureSpace(1.0)
    spec = KernelSpec("poisson", space, t=0.5)
    ys = np.geomspace(0.01, 50.0, 200)
    assert np.all(kernel_value(spec, 1.0, ys) > 0)
    res = integrate_halfline(
        lambda y: kernel_value(spec, 1.0, y) * dm_weight(space, y),
        QuadConfig(abs_tol=1e-8),
    )
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_poisson_symmetry():
    spec = KernelSpec("poisson", SP1, t=0.5)
    a = kernel_value(spec, 1.3, 2.9)
    b = kernel_value(spec, 2.9, 1.3)
    assert a == pytest.approx(b, rel=1e-12)


def test_poisson_homogeneity():
    # P_{dt}(dx, dy) = d^-Q P_t(x, y), spot check at d = 3
    d = 3.0
    lhs = kernel_value(KernelSpec("poisson", SP1, t=d * 1.0), d * 1.0, d * 2.0)
    rhs = d ** (-SP1.upper_dim) * kernel_value(KernelSpec("poisson", SP1, t=1.0), 1.0, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-9)


# ---------------------------------------------------------------- conj poisson


def test_conj_poisson_decay_in_t():
    vals = [abs(kernel_value(KernelSpec("conj_poisson", SP1, t=t), 1.0, 2.0))
            for t in (2.0, 8.0, 32.0, 128.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5


def test_conj_poisson_riesz_limit():
    target = kernel_value(KernelSpec("riesz", SP1), 1.0, 2.0)
    gaps = [abs(kernel_value(KernelSpec("conj_poisson", SP1, t=t), 1.0, 2.0) - target)
            for t in (0.1, 0.01, 0.001)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-6


def test_conj_poisson_sign_far_below():
    spec = KernelSpec("conj_poisson", SP1, t=0.01)
    assert kernel_value(spec, 10.0, 0.1) < 0


# ---------------------------------------------------------------- riesz


def test_riesz_signs_and_near_diagonal_size():
    spec = KernelSpec("riesz", SP1)
    # positive just above the diagonal, negative just below (scale-free band)
    for x in (0.1, 1.0, 10.0):
        for rho in (1.05, 1.3, 1.8):
            assert kernel_value(spec, x, rho * x) > 0
            assert kernel_value(spec, rho * x, x) < 0
    # fitted constant of R(x,y) (xy)^lam (y-x) stable across scales
    lam = SP1.lam
    consts = []
    for scale in (1.0, 100.0):
        x = scale
        vals = [kernel_value(spec, x, s * x) * (x * s * x) ** lam * (s * x - x)
                for s in np.linspace(1.01, 1.8, 12)]
        consts.append(min(vals))
    assert consts[0] > 0
    assert consts[1] == pytest.approx(consts[0], rel=1e-6)


def test_riesz_far_below_magnitude():
    # R(x, y) <= -c / x^Q for y << x
    spec = KernelSpec("riesz", SP1)
    for x in (1.0, 50.0):
        v = kernel_value(spec, x, x / 100.0)
        assert v < 0
        assert abs(v) * x ** SP1.upper_dim > 0.1


def test_riesz_homogeneity():
    spec = KernelSpec("riesz", SP1)
    d = 5.0
    lhs = kernel_value(spec, d * 1.0, d * 2.0)
    rhs = d ** (-SP1.upper_dim) * kernel_value(spec, 1.0, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_riesz_rejects_diagonal():
    spec = KernelSpec("riesz", SP1)
    with pytest.raises(ValueError):
        kernel_value(spec, 1.0, 1.0 + 1e-9)


def test_riesz_not_symmetric():
    # the conjugate-function kernel changes sign across the diagonal
    spec = KernelSpec("riesz", SP1)
    assert kernel_value(spec, 1.0, 2.0) * kernel_value(spec, 2.0, 1.0) < 0


# ---------------------------------------------------------------- fractional


def frac_direct_oracle(lam, alpha, x, y):
    """Independent route: log-substituted t-integral of the heat kernel."""
    space = MeasureSpace(lam)

    def f(u):
        return kernel_value(KernelSpec("heat", space, t=math.exp(u)), x, y) * math.exp(u * alpha / 2)

    val = quad(f, -40.0, 60.0, epsabs=1e-13, epsrel=1e-11, limit=2000)[0]
    return val / math.gamma(alpha)


@pytest.mark.parametrize(
    "lam,alpha,x,y",
    [(1.0, 0.5, 1.0, 2.0), (0.5, 0.25, 1.0, 1.1), (2.0, 0.5, 3.0, 0.5)],
)
def test_frac_kernel_dual_route(lam, alpha, x, y):
    spec = KernelSpec("fractional", MeasureSpace(lam), alpha=alpha)
    assert kernel_value(spec, x, y) == pytest.approx(frac_direct_oracle(lam, alpha, x, y), rel=1e-9)


def test_frac_kernel_symmetry_and_positivity():
    spec = KernelSpec("fractional", SP1, alpha=0.5)
    a, b = kernel_value(spec, 1.3, 2.9), kernel_value(spec, 2.9, 1.3)
    assert a > 0
    assert a == pytest.approx(b, rel=1e-10)


def test_frac_homogeneity():
    spec = KernelSpec("fractional", SP1, alpha=0.5)
    d = 2.0
    lhs = kernel_value(spec, d * 1.0, d * 2.0)
    rhs = d ** (spec.alpha - SP1.upper_dim) * kernel_value(spec, 1.0, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_frac_size_comparability_band():
    # K_a * m(I(x, |x-y|)) / |x-y|^a bounded above and below, 0 < a < 1
    space = MeasureSpace(1.0)
    spec = KernelSpec("fractional", space, alpha=0.5)
    ratios = []
    for x in np.geomspace(0.1, 10.0, 8):
        for rho in (0.05, 0.3, 0.9, 2.0, 8.0):
            y = rho * x
            d = abs(x - y)
            ratios.append(
                kernel_value(spec, x, y) * space.ball_measure(x, d) / d ** spec.alpha
            )
    assert min(ratios) > 0.1
    assert max(ratios) < 10.0


def test_frac_mid_range_alpha_comparability():
    # 1 < alpha < Q: comparability against (x+y)^(alpha-1) (x+y)^(-2 lam)
    space = MeasureSpace(1.0)
    spec = KernelSpec("fractional", space, alpha=1.7)
    ratios = []
    for x in np.geomspace(0.2, 5.0, 6):
        for rho in (0.1, 0.5, 0.99, 1.7, 6.0):
            y = rho * x
            ref = (x + y) ** (spec.alpha - 1.0) * (x + y) ** (-2.0 * space.lam)
            ratios.append(kernel_value(spec, x, y) / ref)
    assert min(ratios) > 0.05
    assert max(ratios) / min(ratios) < 100.0


def frac_x_derivative(spec, x, y):
    """Central difference of K_a in its first argument, step 1e-4 min(x, |x - y|)."""
    h = 1e-4 * min(x, abs(x - y))
    return (kernel_value(spec, x + h, y) - kernel_value(spec, x - h, y)) / (2.0 * h)


def test_frac_derivative_bound_and_cancellation():
    space = MeasureSpace(1.0)
    spec = KernelSpec("fractional", space, alpha=0.5)
    # |d/dx K| * |x-y|^(2-a) (x+y)^(2 lam) bounded over a small grid
    quants = []
    for x in (0.5, 1.0, 2.0):
        for y in (0.1 * x, 0.6 * x, 1.7 * x, 5.0 * x):
            g = frac_x_derivative(spec, x, y)
            quants.append(abs(g) * abs(x - y) ** (2 - spec.alpha) * (x + y) ** (2 * space.lam))
    assert max(quants) < 20.0
    # second difference is O(h^2) away from the diagonal
    x, y = 1.0, 2.5
    errs = []
    for h in (0.02, 0.01, 0.005):
        second = (kernel_value(spec, x + h, y) + kernel_value(spec, x - h, y)
                  - 2 * kernel_value(spec, x, y))
        errs.append(abs(second))
    assert errs[1] < 0.3 * errs[0]
    assert errs[2] < 0.3 * errs[1]


def test_frac_smoothness_quotient():
    # |K(x,y) - K(x',y)| <= C (|x-x'|/|x-y|) |x-y|^a / m(I(x,|x-y|)), |x-x'| < |x-y|/2
    space = MeasureSpace(1.0)
    spec = KernelSpec("fractional", space, alpha=0.25)
    quants = []
    for x in (0.5, 2.0):
        for y in (0.2 * x, 2.2 * x, 6.0 * x):
            d = abs(x - y)
            for f in (0.05, 0.2, 0.45):
                xp = x + f * d
                num = abs(kernel_value(spec, x, y) - kernel_value(spec, xp, y))
                den = (abs(x - xp) / d) * d ** spec.alpha / space.ball_measure(x, d)
                quants.append(num / den)
    assert max(quants) < 30.0


# ---------------------------------------------------------------- mpmath


def mp_angular(lam, p, x, y, t=0.0, odd=0):
    """int_0^pi (x - y cos th)^odd sin(th)^(2 lam - 1) (x^2 + y^2 + t^2 - 2xy cos th)^(-p) dth.

    mpmath quadrature at 30 digits, with x, y and t taken exactly.  The
    denominator is formed as (x - y)^2 + t^2 + 2xy(1 - cos th), and the
    interval is split geometrically from the peak width sqrt(D)/max(x, y).
    """
    with mpmath.workdps(30):
        lam, p, x, y, t = (mpmath.mpf(v) for v in (lam, p, x, y, t))
        d = (x - y) ** 2 + t * t

        def f(th):
            c = mpmath.cos(th)
            return (x - y * c) ** odd * mpmath.sin(th) ** (2 * lam - 1) / (d + 2 * x * y * (1 - c)) ** p

        pts = [mpmath.mpf(0)]
        h = mpmath.sqrt(d) / max(x, y)
        while h < 1:
            pts.append(h)
            h *= 4
        return mpmath.quad(f, pts + [mpmath.pi])


def mp_kernel(spec, x, y):
    """The kernels from their defining angular integrals.

    The fractional kernel is the heat subordination integral with the heat
    kernel written as an angular integral, which turns the t-integral into
    Gamma(nu) and leaves the same angular integral with exponent nu.
    """
    lam = spec.space.lam
    if spec.kind == "poisson":
        return 2 * lam * spec.t / math.pi * mp_angular(lam, lam + 1, x, y, spec.t)
    if spec.kind in ("conj_poisson", "riesz"):
        return -2 * lam / math.pi * mp_angular(lam, lam + 1, x, y, spec.t or 0.0, odd=1)
    alpha = spec.alpha
    nu = lam + 0.5 - alpha / 2
    with mpmath.workdps(30):
        c = 4 ** (1 - mpmath.mpf(alpha) / 2) * mpmath.gamma(nu) / (
            2 * mpmath.sqrt(mpmath.pi) * mpmath.gamma(lam) * mpmath.gamma(alpha))
        return c * mp_angular(lam, nu, x, y)


@pytest.mark.parametrize(
    "kind,lam,x,y,t,alpha",
    [
        ("poisson", 0.75, 1.0, 1.0, 1e-7, None),
        ("poisson", 1.25, 1.0, 1.0 + 1e-8, 1e-9, None),
        ("conj_poisson", 1.25, 1.0, 1.0 + 1e-8, 1e-9, None),
        ("riesz", 0.75, 1.0, 1.0 + 1.5e-6, None, None),
        ("fractional", 0.3, 1.0, 2.0, None, 1.5),
        ("fractional", 0.3, 1.0, 1.05, None, 1.5),
    ],
)
def test_kernels_near_diagonal_against_mpmath(kind, lam, x, y, t, alpha):
    # points where angular quadrature and the octave-summed subordination
    # integral were wrong by 1e-4 to 2e-2, or raised
    spec = KernelSpec(kind, MeasureSpace(lam), t=t, alpha=alpha)
    assert kernel_value(spec, x, y) == pytest.approx(float(mp_kernel(spec, x, y)), rel=1e-12, abs=0)


def mp_conj_poisson_closed(lam, x, y, t):
    """Q_t from the Landen closed forms at 50 digits, x, y and t taken exactly."""
    with mpmath.workdps(50):
        lam, x, y, t = (mpmath.mpf(v) for v in (lam, x, y, t))
        a, b = x * x + y * y + t * t, 2 * x * y
        s = mpmath.sqrt(((x - y) ** 2 + t * t) * (a + b))
        r, k = b / (a + s), (a + s) / 2
        beta = mpmath.beta(lam, 0.5)
        j0 = k ** (-lam - 1) * beta * (1 - r * r) ** -2 * mpmath.hyp2f1(-0.5, lam - 1, lam + 0.5, r * r)
        kk = k ** -lam * beta * mpmath.hyp2f1(lam, 0.5, lam + 0.5, r * r)
        return -2 * lam / mpmath.pi * (x * j0 - y * (a * j0 - kk) / b)


def mp_frac_closed(lam, alpha, x, y):
    """K_alpha from its closed form at 50 digits, x and y taken exactly."""
    with mpmath.workdps(50):
        lam, alpha, x, y = (mpmath.mpf(v) for v in (lam, alpha, x, y))
        hi, lo = max(x, y), min(x, y)
        nu = lam + 0.5 - alpha / 2
        z = (lo / hi) ** 2
        c = 2 ** (1 - alpha) * mpmath.gamma(nu) / (mpmath.gamma(alpha) * mpmath.gamma(lam + 0.5))
        return c * hi ** (-2 * nu) * (1 - z) ** (alpha - 1) * mpmath.hyp2f1(
            alpha / 2, lam - 0.5 + alpha / 2, lam + 0.5, z)


CONJ_POINTS = [
    (1.0, 1.0, 1e-7), (1.0, 1.0 + 1e-8, 1e-9), (1.0, 1.0 + 1.5e-6, 1e-4),
    (1.0, 1.1, 1e-3), (1.0, 2.0, 0.5), (2.0, 1.0, 0.1),
    (1e-3, 2.0, 0.5), (3.0, 0.1, 0.5), (0.7, 0.75, 2.0),
]
FRAC_ALPHAS = [0.25, 0.5, 0.9, 0.999, 0.9999, 1.0, 1.0001, 1.001, 1.5, 1.7, 2.4]
FRAC_GAPS = [1e-7, 1e-3, 0.3, -0.9]


@pytest.mark.parametrize("lam", [0.3, 0.75, 1.25, 3.0])
def test_reported_errors_cover_mpmath(lam):
    # the error bars hold the rounding of the 2F1 arguments and hyp2f1's own
    # error; the closed forms themselves are checked by the quadrature tests
    space = MeasureSpace(lam)
    cases = [(KernelSpec("conj_poisson", space, t=t), x, y, mp_conj_poisson_closed(lam, x, y, t))
             for x, y, t in CONJ_POINTS]
    x = 1.3
    cases += [(KernelSpec("fractional", space, alpha=alpha), x, x * (1 + d),
               mp_frac_closed(lam, alpha, x, x * (1 + d)))
              for alpha in FRAC_ALPHAS if alpha < space.upper_dim for d in FRAC_GAPS]
    for spec, x, y, ref in cases:
        val, err = kernel_value(spec, x, y, with_error=True)
        where = f"{spec.kind} alpha={spec.alpha} t={spec.t} x={x} y={y}"
        assert abs(val - float(ref)) <= err, where
        assert err <= 1e-6 * abs(val), where


def mp_heat_closed(lam, x, y, t):
    """W_t from its unfused Bessel form at 50 digits, x, y and t taken exactly."""
    with mpmath.workdps(50):
        lam, x, y, t = (mpmath.mpf(v) for v in (lam, x, y, t))
        return (mpmath.exp(-(x * x + y * y) / (4 * t)) * (x * y) ** (0.5 - lam)
                * mpmath.besseli(lam - 0.5, x * y / (2 * t)) / (2 * t))


HEAT_POINTS = [
    (1.0, 1.0), (1.0, 1.0 + 1e-3), (0.5, 2.0), (1e-3, 2.0),
    (3.0, 0.1), (7.0, 7.2), (50.0, 50.0 + 1e-4), (0.01, 0.02),
]


@pytest.mark.parametrize("lam", [0.05, 0.3, 1.25, 3.0, 8.0])
def test_heat_error_bar_covers_mpmath(lam):
    # the flat 1e-13 |value| bar over both routes of bessel_i: z = xy/2t
    # reaches 1.25e9 at x = 50, t = 1e-6, where only the asymptotic
    # expansion holds; where both sides underflow to 0 the bar is 0 too
    space = MeasureSpace(lam)
    for t in (1e-6, 1e-2, 1.0, 100.0):
        spec = KernelSpec("heat", space, t=t)
        for x, y in HEAT_POINTS:
            val, err = kernel_value(spec, x, y, with_error=True)
            assert abs(val - float(mp_heat_closed(lam, x, y, t))) <= err, f"t={t} x={x} y={y}"


# (kind, parameters, x, y, value, error bar) at lam = 0.75: both routes of
# the Poisson family and both 2F1 forms of the fractional kernel.
PINNED_ERRORS = [
    ("poisson", dict(t=0.2), 1.0, 1.3, 0.4029122487298988, 4.0331523009913685e-14),
    ("poisson", dict(t=0.2), 0.2, 3.0, 0.00490032942808613, 4.901819223729085e-16),
    ("conj_poisson", dict(t=0.05), 1.0, 1.01, 0.382710804587318, 2.4023779783809343e-13),
    ("conj_poisson", dict(t=0.05), 0.3, 2.5, 0.0056400017455281864, 3.4303503583843097e-15),
    ("riesz", {}, 1.0, 1.2, 0.9264938805776698, 2.1426019526543353e-13),
    ("riesz", {}, 1.0, 4.0, 0.003854563787102285, 2.4453259367079353e-15),
    ("fractional", dict(alpha=0.6), 1.0, 1.1, 2.039766148407738, 2.0537593643484775e-13),
    ("fractional", dict(alpha=1.4), 1.0, 0.7, 1.652894444582348, 1.6560345908942533e-13),
]


def test_error_flag_leaves_values_alone_and_halves_hyp2f1_calls(monkeypatch):
    # without with_error the slope 2F1 behind the error bar is not evaluated;
    # the values stay bitwise the same and the bars keep their pinned sizes
    import besselkit.kernels as kernels

    calls = []
    real = kernels.hyp2f1

    def counted(a, b, c, z):
        calls.append(np.size(z))
        return real(a, b, c, z)

    monkeypatch.setattr(kernels, "hyp2f1", counted)
    space = MeasureSpace(0.75)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.1, 3.0, 300)
    # |y - x|/x from 1e-5 (outside the Riesz guard) to about 20
    y = x * np.exp(rng.choice([-1.0, 1.0], 300) * 10.0 ** rng.uniform(-5.0, 0.5, 300))
    for kind, params, x0, y0, value, error in PINNED_ERRORS:
        spec = KernelSpec(kind, space, **params)
        calls.clear()
        plain = kernel_value(spec, x, y)
        n_plain = len(calls)
        val, err = kernel_value(spec, x, y, with_error=True)
        assert len(calls) == 3 * n_plain
        assert np.array_equal(plain, val)
        assert np.all(err > 0)
        assert kernel_value(spec, x0, y0) == value
        assert kernel_value(spec, x0, y0, with_error=True) == pytest.approx((value, error), rel=1e-12)


KINDS = [("heat", dict(t=0.5)), ("poisson", dict(t=0.5)), ("conj_poisson", dict(t=0.5)),
         ("riesz", {}), ("fractional", dict(alpha=0.6))]


@pytest.mark.parametrize("kind,params", KINDS, ids=[k for k, _ in KINDS])
def test_kernel_value_contract(kind, params):
    spec = KernelSpec(kind, SP1, **params)
    assert type(kernel_value(spec, 1.0, 2.0)) is float
    x = np.array([[0.5], [1.5]])
    y = np.array([0.7, 2.0, 3.5])
    plain = kernel_value(spec, x, y)
    assert isinstance(plain, np.ndarray) and plain.shape == (2, 3)
    val, err = kernel_value(spec, x, y, with_error=True)
    assert val.shape == err.shape == (2, 3)
    assert np.array_equal(val, plain)
    assert np.all(err >= 0)
    v, e = kernel_value(spec, 1.0, 2.0, with_error=True)
    assert type(v) is float and type(e) is float


@pytest.mark.parametrize("kind,params", KINDS, ids=[k for k, _ in KINDS])
def test_kernel_value_rejects_non_finite_and_non_positive_arguments(kind, params):
    # nan used to come back as nan, and inf as 0 or a RuntimeWarning
    spec = KernelSpec(kind, SP1, **params)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        for x, y in [(1.0, bad), (bad, 1.0), (1.0, np.array([2.0, bad]))]:
            with pytest.raises(ValueError):
                kernel_value(spec, x, y)
