"""The adaptive Gauss-Kronrod rule against closed forms and scipy.integrate.quad.

Derandomized ``hypothesis`` properties over smooth, peaked, oscillatory and
near-singular integrands with known integrals: the rule agrees with
``scipy.integrate.quad``, and its true error stays within its own estimate.
Complex integrands with closed forms keep their true error within the
estimate too.  Then the edge cases (reversed and zero-length limits, NaN,
the subinterval cap) and the sum rule it now integrates.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import airy as scipy_airy

from airybeam.errors import ConvergenceError, DomainError
from airybeam.quadrature import GAUSS, KRONROD, NODES, gauss_kronrod
from airybeam.scenarios import rb_atom_laser
from airybeam.sources import GaussianSource, sum_rule_check

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)
EPS = np.finfo(float).eps


def family(kind, p):
    """(integrand on arrays, a, b, exact integral) of one test family."""
    if kind == "smooth":            # e^(c x) cos(k x) on [0, 2]
        c, k = 4.0 * p - 2.0, 1.0 + 5.0 * p
        z = complex(c, k)
        return (lambda x: np.exp(c * x) * np.cos(k * x), 0.0, 2.0,
                ((np.exp(2.0 * z) - 1.0) / z).real)
    if kind == "peaked":            # a Lorentzian of width w at x0 on [-1, 1]
        w, x0 = 10.0 ** (-3.0 * p), 0.9 * p - 0.3
        return (lambda x: 1.0 / (w * w + (x - x0) ** 2), -1.0, 1.0,
                (math.atan((1.0 - x0) / w) + math.atan((1.0 + x0) / w)) / w)
    if kind == "oscillatory":       # cos(k x) on [0, 3], up to ~100 periods
        k = 1.0 + 200.0 * p
        return lambda x: np.cos(k * x), 0.0, 3.0, math.sin(3.0 * k) / k
    # near-singular: (x + d)^(-1/2) on [0, 1], d down to 1e-6
    d = 10.0 ** (-6.0 * p)
    return (lambda x: 1.0 / np.sqrt(x + d), 0.0, 1.0,
            2.0 * (math.sqrt(1.0 + d) - math.sqrt(d)))


KINDS = st.sampled_from(["smooth", "peaked", "oscillatory", "near-singular"])
PARAM = st.floats(0.0, 1.0)
# every target is above the roundoff floor 50 eps integral |f| (about 2e-14
# for the oscillatory family, whose integral can cancel to near zero)
TOLS = st.sampled_from([(1.49e-8, 1.49e-8), (1e-12, 1e-10), (1e-13, 1e-11)])


@PROPERTY
@given(KINDS, PARAM, TOLS)
def test_matches_scipy_and_error_within_estimate(kind, p, tols):
    f, a, b, exact = family(kind, p)
    epsabs, epsrel = tols
    val, err = gauss_kronrod(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=400)
    ref, ref_err = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=400)
    floor = 8.0 * EPS * abs(exact)       # roundoff of the closed form itself
    assert type(val) is float and type(err) is float
    assert abs(val - exact) <= err + floor
    assert err <= max(epsabs, epsrel * abs(val))
    assert abs(val - ref) <= err + ref_err + floor


@PROPERTY
@given(KINDS, PARAM)
def test_reversed_limits_negate(kind, p):
    f, a, b, _ = family(kind, p)
    val, err = gauss_kronrod(f, a, b, limit=400)
    assert gauss_kronrod(f, b, a, limit=400) == (-val, err)


def complex_family(kind, p):
    """(complex integrand on arrays, a, b, exact integral) of one test family."""
    if kind == "wave":              # e^(i k x) on [0, b], up to ~50 periods
        k, b = 1.0 + 100.0 * p, 3.0 - 2.0 * p
        return (lambda x: np.exp(1j * k * x), 0.0, b,
                (cmath.exp(1j * k * b) - 1.0) / (1j * k))
    # a Gaussian centred at x0 times e^(i k x); the cut tails are below e^-49
    k, x0 = 8.0 * p, 2.0 * p - 1.0
    return (lambda x: np.exp(-(x - x0) ** 2 + 1j * k * x), -8.0, 8.0,
            math.sqrt(math.pi) * cmath.exp(1j * k * x0 - k * k / 4.0))


@PROPERTY
@given(st.sampled_from(["wave", "gaussian-wave"]), PARAM, TOLS)
def test_complex_integrand_error_within_estimate(kind, p, tols):
    f, a, b, exact = complex_family(kind, p)
    epsabs, epsrel = tols
    val, err = gauss_kronrod(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=400)
    assert type(val) is complex and type(err) is float
    assert abs(val - exact) <= err + 8.0 * EPS * abs(exact)
    assert err <= max(epsabs, epsrel * abs(val))


def _ai2_antiderivative(x):
    """x Ai(x)^2 - Ai'(x)^2, whose derivative is Ai(x)^2, to 30 digits."""
    x = mpmath.mpf(x)
    return x * mpmath.airyai(x) ** 2 - mpmath.airyai(x, derivative=1) ** 2


@PROPERTY
@given(st.floats(-300.0, 5.0), st.floats(-300.0, 5.0), st.floats(-12.0, -4.0))
def test_airy_squared_error_within_estimate(x0, x1, log_epsrel):
    # up to ~1100 periods of Ai^2 on the emission side; the floor is the
    # rule's own roundoff floor 50 eps integral |f|, Ai^2 >= 0
    a, b = min(x0, x1), max(x0, x1)
    assume(b - a > 1e-3)                # F(b) - F(a) keeps digits at 30
    with mpmath.workdps(30):
        exact = float(_ai2_antiderivative(b) - _ai2_antiderivative(a))
    val, err = gauss_kronrod(lambda x: scipy_airy(x)[0] ** 2, a, b, epsabs=0.0,
                             epsrel=10.0**log_epsrel, limit=5000)
    assert abs(val - exact) <= err + 50.0 * EPS * exact


def test_zero_length_interval_skips_integrand():
    def never(x):
        raise AssertionError("integrand called on an empty interval")
    assert gauss_kronrod(never, 1.5, 1.5) == (0.0, 0.0)


def test_each_pass_is_one_array_call():
    sizes = []

    def f(x):
        sizes.append(x.shape)
        return 1.0 / (1e-4 + (x - 0.3) ** 2)

    gauss_kronrod(f, 0.0, 1.0, limit=200)
    assert len(sizes) > 1
    assert all(len(s) == 1 and s[0] % 21 == 0 for s in sizes)


@pytest.mark.parametrize("degree", range(32))
def test_kronrod_rule_exact_to_degree_31(degree):
    exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
    assert abs(KRONROD @ NODES**degree - exact) <= 1e-15
    if degree < 20:
        assert abs(GAUSS @ NODES**degree - exact) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integrand_stops_at_once(bad):
    calls = []

    def f(x):
        calls.append(1)
        return np.where(x > 0.7, bad, 1.0)

    with pytest.raises(ConvergenceError, match="integrates to"):
        gauss_kronrod(f, 0.0, 1.0)
    assert len(calls) == 1


def test_subinterval_cap_raises_with_estimate():
    calls = []

    def f(x):                     # 1/x diverges at 0: no target is reachable
        calls.append(1)
        return 1.0 / x

    with pytest.raises(ConvergenceError, match="limit 30") as exc:
        gauss_kronrod(f, 0.0, 1.0, limit=30)
    assert math.isfinite(exc.value.estimate) and exc.value.estimate > 0.0
    assert len(calls) <= 30


def test_target_below_roundoff_floor_stops_at_once():
    # cos(k x) cancels to ~1e-4 while |cos| integrates to ~2: a relative
    # target of 1e-14 lies below what any subdivision can resolve
    calls = []

    def f(x):
        calls.append(1)
        return np.cos(174.0 * x)

    with pytest.raises(ConvergenceError, match="roundoff floor") as exc:
        gauss_kronrod(f, 0.0, 3.0, epsabs=0.0, epsrel=1e-14, limit=400)
    assert exc.value.estimate > 0.0
    assert len(calls) < 20


def test_infinite_limit_is_a_domain_error():
    with pytest.raises(DomainError, match="finite"):
        gauss_kronrod(np.exp, -math.inf, 0.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.floats(math.log(1e-9), math.log(30e-6)).map(math.exp), st.floats(10.0, 1000.0))
@example(20e-6, 105.585)
@example(2e-9, 105.585)
def test_sum_rule_within_budget(width, nu):
    # Rb widths log-uniform from 1 nm (alpha = 0.0017) to 30 um (alpha = 50);
    # the exact target 1 is int e^(px) [Ai'(x)^2 - x Ai(x)^2] dx =
    # e^(p^3/12) / (2 sqrt(pi) p^(3/2)), p = 4 alpha^2, times J's prefactor
    preset = rb_atom_laser()
    lhs, rhs = sum_rule_check(preset.system, GaussianSource(width, 2.0 * math.pi * nu))
    assert abs(lhs / rhs - 1.0) <= 1e-6
