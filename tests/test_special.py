import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselkit.special import bessel_i, series_crossover


def mp_bessel_i(mu: float, z: float) -> float:
    """Extended-precision reference value (50 significant digits)."""
    with mpmath.workdps(50):
        return float(mpmath.besseli(mu, z))


def bessel_i_derivative_identity_check(mu: float, z: float, step: float = 1e-5) -> float:
    """Residual of d/dz [z^-mu I_mu(z)] = z^-mu I_(mu+1)(z) by central difference.

    The identity is exact; the returned residual is pure discretization and
    rounding error, so it doubles as a cheap self-test of the evaluator.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    h = min(step, 0.5 * z)

    def g(t):
        return t ** (-mu) * bessel_i(mu, t)

    fd = (g(z + h) - g(z - h)) / (2.0 * h)
    rhs = z ** (-mu) * bessel_i(mu + 1.0, z)
    return abs(fd - rhs)


def test_half_integer_closed_form():
    # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
    got = bessel_i(0.5, 1.0)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-14)
    got = bessel_i(-0.5, 2.0)
    assert got == pytest.approx(math.sqrt(2.0 / (math.pi * 2.0)) * math.cosh(2.0), rel=1e-14)


def test_small_argument_leading_order():
    # I_mu(z) ~ z^mu / (2^mu Gamma(mu+1)) as z -> 0+
    for mu in (0.3, 0.5, 1.2, 2.0):
        z = 1e-6
        lead = z ** mu / (2.0 ** mu * math.gamma(mu + 1.0))
        assert bessel_i(mu, z) == pytest.approx(lead, rel=1e-6)


@pytest.mark.parametrize("mu", [-0.5, 0.0, 0.3, 0.5, 1.2, 2.5, 4.0])
def test_against_extended_precision_oracle(mu):
    zc = series_crossover(mu)
    # sweep both regimes and a band straddling the crossover
    zs = np.concatenate(
        [
            np.geomspace(1e-3, 0.9 * zc, 25),
            np.linspace(0.9 * zc, 1.1 * zc, 11),
            np.geomspace(1.1 * zc, 690.0, 25),
        ]
    )
    for z in zs:
        ref = mp_bessel_i(mu, float(z))
        got = bessel_i(mu, float(z))
        assert got == pytest.approx(ref, rel=1e-12), f"mu={mu}, z={z}"


def test_specific_oracle_point():
    assert bessel_i(0.3, 10.0) == pytest.approx(mp_bessel_i(0.3, 10.0), rel=1e-11)


@pytest.mark.parametrize("mu", [0.3, 1.0, 2.5])
def test_scaled_matches_raw_and_survives_large_z(mu):
    for z in (0.5, 10.0, 100.0, 600.0):
        raw = bessel_i(mu, z)
        sca = bessel_i(mu, z, scaled=True)
        assert sca == pytest.approx(raw * math.exp(-z), rel=1e-11)
    # far beyond raw overflow, and where scipy's ive alone returns NaN
    for z in (5000.0, 1e6, 1e10, 1e17):
        big = bessel_i(mu, z, scaled=True)
        with mpmath.workdps(50):
            ref = float(mpmath.besseli(mu, z) * mpmath.exp(-z))
        assert big == pytest.approx(ref, rel=1e-12), f"z={z}"
    # z = 0 with a negative order: +inf by convention, not NaN
    assert bessel_i(-0.3, 0.0) == math.inf
    assert bessel_i(-0.3, 0.0, scaled=True) == math.inf


def test_raw_overflow_signalled():
    with pytest.raises(OverflowError):
        bessel_i(1.0, 800.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        bessel_i(-0.7, 1.0)
    with pytest.raises(ValueError):
        bessel_i(0.5, -1.0)


def test_positivity_and_monotonicity():
    zs = np.linspace(0.1, 50.0, 200)
    vals = bessel_i(0.8, zs)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) > 0)


def test_scaled_decreasing_for_large_z():
    zs = np.linspace(50.0, 700.0, 100)
    vals = bessel_i(1.3, zs, scaled=True)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) < 0)


@given(
    mu=st.floats(min_value=-0.4, max_value=3.0),
    z=st.floats(min_value=0.05, max_value=300.0),
)
@settings(max_examples=120, deadline=None)
def test_recurrence_property(mu, z):
    # I_{mu-1}(z) - I_{mu+1}(z) = (2 mu / z) I_mu(z); shift orders up so the
    # lowest one stays >= -1/2
    lo, mid, hi = bessel_i(mu + 0.5, z, scaled=True), bessel_i(mu + 1.5, z, scaled=True), bessel_i(mu + 2.5, z, scaled=True)
    lhs = lo - hi
    rhs = 2.0 * (mu + 1.5) / z * mid
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize(
    "mu,z",
    [(0.5, 1.0), (1.2, 5.0), (0.5, 0.01)],
)
def test_derivative_identity_residual(mu, z):
    assert bessel_i_derivative_identity_check(mu, z) <= 1e-7

