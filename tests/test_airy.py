import math
import runpy
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy.special import airy as scipy_airy

from airybeam import airy
from airybeam.airy import (X_MAX, X_SWITCH, _bracket_series, _oscillatory, _taylor,
                           airy_all, airy_bracket_log, airy_bracket_scaled, airy_scaled)
from airybeam.errors import DomainError, RangeError
from airybeam.green import green_closed

from airy_reference import PANEL
from oracles import mp_airy_maclaurin

INV_PI = 1.0 / math.pi
GENERATOR = Path(__file__).parents[1] / "tools" / "airy_anchors.py"


def envelope_error(got, want):
    """Largest |got - want| of Ai, Ai', Bi, Bi' relative to the local size
    sqrt(Ai^2 + Bi^2), or sqrt(Ai'^2 + Bi'^2) for the derivatives."""
    ai, aip, bi, bip = want
    size, size_prime = math.hypot(ai, bi), math.hypot(aip, bip)
    sizes = (size, size_prime, size, size_prime)
    return max(abs(g - w) / s for g, w, s in zip(got, want, sizes))


def relative_error(got, want):
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


def values(x):
    p = airy_all(x)
    return p.ai, p.ai_prime, p.bi, p.bi_prime


def oscillatory(x):
    return tuple(v[0] for v in _oscillatory(np.array([x])))


def test_values_at_zero():
    p = airy_all(0.0)
    assert_allclose(p.ai, 0.35502805388781723926, rtol=1e-15)
    assert_allclose(p.ai_prime, -0.25881940379280679840, rtol=1e-15)
    assert_allclose(p.ai * p.bi_prime - p.ai_prime * p.bi, INV_PI, rtol=1e-14)


def test_value_at_minus_five():
    # frozen from the 200-term arbitrary-precision Maclaurin oracle
    assert_allclose(airy_all(-5.0).ai, 0.35076100902411431978, rtol=1e-13)


def test_ci_construction():
    p = airy_all(1.3)
    assert p.ci == complex(p.bi, p.ai)
    assert p.ci_prime == complex(p.bi_prime, p.ai_prime)


def test_frozen_oracle_panel():
    worst = 0.0
    for x, ai, aip, bi, bip in PANEL:
        p = airy_all(x)
        for got, want in zip((p.ai, p.ai_prime, p.bi, p.bi_prime),
                             (ai, aip, bi, bip)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst < 1e-10, f"worst panel deviation {worst:.3e}"


def test_oracle_generator_is_alive():
    # the series oracle itself, run live on a few cheap points
    for x in (0.0, 1.5, -3.25, -7.0, 6.0):
        ai, aip, bi, bip = mp_airy_maclaurin(x)
        p = airy_all(x)
        assert_allclose(p.ai, ai, rtol=5e-13)
        assert_allclose(p.bi_prime, bip, rtol=5e-13)


def test_wronskian_random_points():
    rng = np.random.default_rng(123)
    p = airy_all(rng.uniform(-X_MAX, 8.0, 10_000))
    worst = np.max(np.abs(p.ai * p.bi_prime - p.ai_prime * p.bi - INV_PI))
    assert worst <= 1e-10 * INV_PI


def test_derivative_finite_difference():
    h = 1e-5
    for x in np.linspace(-20.0, 5.0, 101):
        fd = (airy_all(x + h).ai - airy_all(x - h).ai) / (2.0 * h)
        assert abs(fd - airy_all(x).ai_prime) <= 1e-8


def test_ode_residual():
    h = 1e-3
    for x in np.linspace(-20.0, 5.0, 81):
        second = (airy_all(x + h).ai - 2.0 * airy_all(x).ai
                  + airy_all(x - h).ai) / h**2
        assert abs(second - x * airy_all(x).ai) <= 1e-4


@pytest.mark.parametrize("center", [-X_SWITCH, 8.0])
def test_branch_continuity_overlap(center):
    # the two branches on either side of each switchover, on a window of
    # width 1 straddling it: scipy against the oscillatory asymptotics of
    # airy_all at -9, the directly formed bracket against its asymptotic
    # difference series in airy_bracket_scaled at 8
    for x in np.linspace(center - 0.5, center + 0.5, 21):
        ai, aip, bi, bip = scipy_airy(x)
        if center < 0:
            pairs = zip(oscillatory(x), (ai, aip, bi, bip))
        else:
            m, s = _bracket_series(np.array([x]))
            series = math.exp(m[0] - 2.0 * s[0])
            pairs = [(series, aip**2 - x * ai**2)]
        for g, e in pairs:
            assert abs(g - e) <= 1e-10 * abs(e)


def test_modulus_asymptote_at_minus_fifty():
    # Ai^2 + Bi^2 approaches 1/(pi sqrt|x|); the leading asymptotic
    # correction itself is 1.25e-6 here (mpmath), hence the 2e-6 bound
    ai, aip, bi, bip = oscillatory(-50.0)
    target = 1.0 / (math.pi * math.sqrt(50.0))
    assert abs(ai**2 + bi**2 - target) <= 2e-6 * target


def test_range_error_above_cap():
    with pytest.raises(RangeError):
        airy_all(X_MAX + 1.0)
    airy_all(X_MAX)               # the cap itself is fine


@pytest.mark.parametrize("x", [2.0**20, 1e8], ids=["cap", "1e8"])
def test_scaled_total_beyond_subtraction_cap(unit_system, x):
    # X_SCALED_MAX = 2^20 guards only callers that subtract two exponents,
    # whose ulp is near 1e-7 there; airy_scaled itself stays exact
    *got, s = airy_scaled(np.array([1.0, x, 20.0]))
    assert s[1] == 2.0 / 3.0 * x**1.5
    with mp.workdps(40):
        xm = mp.mpf(x)
        up = mp.exp(2 * xm**1.5 / 3)
        want = [mp.airyai(xm) * up, mp.airyai(xm, 1) * up,
                mp.airybi(xm) / up, mp.airybi(xm, 1) / up]
    assert_allclose([v[1] for v in got], [float(w) for w in want], rtol=1e-13)
    # the Green function forms s+ - s-: on the axis upstream a- = 2 |zeta| = x
    with pytest.raises(RangeError, match="green_closed: a- must stay below X_SCALED_MAX"):
        green_closed(unit_system, (0.0, 0.0, -x / 2.0), (0.0, 0.0, 0.0), 0.0)


@pytest.mark.parametrize("fn", [airy_scaled, airy_bracket_scaled],
                         ids=["scaled", "bracket"])
@pytest.mark.parametrize("x", [1e300, -1e300, math.inf, np.array([1.0, 1e300])],
                         ids=["huge", "huge-negative", "inf", "array"])
def test_exponent_beyond_double_range_raises(fn, x):
    # 2/3 |x|^1.5 overflows: a RangeError, before any NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=r"2/3 \|x\|\^1\.5 leaves double range"):
            fn(x)


def test_nan_rejected():
    for fn in (airy_all, airy_scaled):
        with pytest.raises(DomainError):
            fn(math.nan)


def test_very_negative_arguments_allowed():
    # needed by Green evaluations at macroscopic detector geometry
    p = airy_all(-1.1e7)
    assert abs(p.ai) < 1.0 and math.isfinite(p.bi_prime)
    w = p.ai * p.bi_prime - p.ai_prime * p.bi
    assert_allclose(w, INV_PI, rtol=1e-9)


def test_scaled_values_match_unscaled():
    for x in (0.3, 4.1, 7.9, 8.5, 20.0):
        ai_s, aip_s, bi_s, bip_s, z = airy_scaled(x)
        p = airy_all(x)
        assert_allclose(ai_s * math.exp(-z), p.ai, rtol=1e-11)
        assert_allclose(bi_s * math.exp(z), p.bi, rtol=1e-11)


def test_scaled_no_overflow_deep():
    ai_s, aip_s, bi_s, bip_s, z = airy_scaled(1900.0)
    assert math.isfinite(ai_s) and math.isfinite(bi_s) and z > 5e4


@pytest.mark.parametrize("x", [-3.0, -9.5, -1e7])
def test_scaled_is_unscaled_below_handover(x):
    # the Taylor and oscillatory branches, the last at detector geometry
    *values, s = airy_scaled(x)
    p = airy_all(x)
    assert s == 0.0
    assert values == [p.ai, p.ai_prime, p.bi, p.bi_prime]


def test_scaled_seam_at_handover():
    # last unscaled and first scaled argument: the same functions either side
    below, above = np.nextafter(8.0, -np.inf), np.nextafter(8.0, np.inf)
    assert airy_scaled(below)[4] == 0.0
    assert airy_scaled(above)[4] == pytest.approx(2.0 / 3.0 * above**1.5, rel=1e-15)
    for x in (below, above):
        ai_s, aip_s, bi_s, bip_s, s = airy_scaled(x)
        got = (ai_s * math.exp(-s), aip_s * math.exp(-s),
               bi_s * math.exp(s), bip_s * math.exp(s))
        for g, e in zip(got, scipy_airy(x)):
            assert abs(g - e) <= 1e-10 * abs(e)


def _bracket_log(x):
    """log(Ai'(x)^2 - x Ai(x)^2) as m - 2 s of the runtime's airy_bracket_scaled."""
    m, s = airy_bracket_scaled(x)
    return m - 2.0 * s


def test_airy_bracket_log_is_m_minus_2s():
    # airy_bracket_log has no runtime caller: it stays bound only because
    # perfbench/tracing.py binds it by name, and this is its one test here
    xs = np.concatenate([np.linspace(-60.0, 60.0, 121), [500.0, 1900.0, 2.0**20]])
    m, s = airy_bracket_scaled(xs)
    assert airy_bracket_log(xs).tobytes() == (m - 2.0 * s).tobytes()
    assert all(airy_bracket_log(x) == _bracket_log(x) for x in (-9.5, 8.0, 12.0))


def test_bracket_log_against_panel():
    # Ai'(x)^2 - x Ai(x)^2 reconstructed from frozen panel values
    for x, ai, aip, bi, bip in PANEL:
        if x > 8.0 or x < -90.0:
            continue
        want = aip**2 - x * ai**2
        assert_allclose(math.exp(_bracket_log(x)), want, rtol=5e-10)


def test_bracket_log_deep_tunneling():
    # frozen with mpmath at 60 digits: log(Ai'^2 - x Ai^2)
    frozen = {
        12.0: -61.15129649424313,
        50.0: -478.5427122328155,
        500.0: -14916.55869287331,
        1900.0: -110436.21369217575,
    }
    for x, want in frozen.items():
        assert_allclose(_bracket_log(x), want, rtol=1e-12)


def test_bracket_positive_everywhere():
    # equals the integral of Ai^2 over (x, inf): positive for all real x
    for x in np.linspace(-60.0, 60.0, 121):
        assert math.isfinite(_bracket_log(float(x)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-1e6, 2.0**20), st.floats(0.01, 1.0))
def test_bracket_scaled_positive_property(x, step):
    # the bracket is the integral of Ai^2 over (x, inf): its mantissa e^m is
    # a finite positive double, s >= 0, and e^(m - 2 s) > 0 decreases with x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, s = airy_bracket_scaled(x)
        m2, s2 = airy_bracket_scaled(min(x + step * max(1.0, abs(x)), 2.0**20))
    assert math.isfinite(m) and math.isfinite(s) and s >= 0.0
    assert 0.0 < math.exp(m) < math.inf
    if x < 2.0**20:
        assert m2 - 2.0 * s2 < m - 2.0 * s


def test_anchor_table_is_the_generator_output():
    # reruns tools/airy_anchors.py (mpmath) and compares every double
    generator = runpy.run_path(str(GENERATOR))
    assert (airy._ANCHOR_LO, airy._ANCHOR_STEP) == (generator["LO"], generator["STEP"])
    assert np.array_equal(airy._ANCHORS, np.array(generator["anchor_rows"]()))


def test_taylor_anchor_midpoints():
    # the last point nearer to each anchor and the first nearer to the next:
    # the largest Taylor steps, from two different anchors
    for mid in airy._ANCHOR_X[:-1] + 0.5 * airy._ANCHOR_STEP:
        pair = np.array([np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])
        for x, got in zip(pair, np.array(_taylor(pair)).T):
            want = mp_airy_maclaurin(x)
            assert envelope_error(got, want) <= 2e-15, x
            if x > 0.0:
                assert relative_error(got, want) <= 2e-15, x


def test_taylor_meets_oscillatory_at_handover():
    # on a window of width 1 around -X_SWITCH the Taylor branch and the
    # oscillatory asymptotics agree; airy_all either side of it matches mpmath
    for x in np.linspace(-X_SWITCH - 0.5, -X_SWITCH + 0.5, 21):
        got = [v[0] for v in _taylor(np.array([x]))]
        assert envelope_error(got, oscillatory(x)) <= 1e-14, x
    for x in (-X_SWITCH, np.nextafter(-X_SWITCH, 0.0)):
        assert envelope_error(values(x), mp_airy_maclaurin(x)) <= 1e-14, x


def test_taylor_meets_asymptotic_series_at_handover():
    # the last Taylor point (the last anchor, 8) and the first
    # asymptotic-series point, and the two branches from x = 8 to the last
    # anchor's reach
    top = airy._ANCHOR_X[-1]
    assert top == airy._SCALED
    for x in (top, np.nextafter(top, np.inf)):
        assert relative_error(values(x), mp_airy_maclaurin(x)) <= 1e-14, x
    for x in np.linspace(top, top + 0.125, 21):
        ai_s, aip_s, bi_s, bip_s, s = (v[0] for v in airy._positive_scaled(np.array([x])))
        series = (ai_s * math.exp(-s), aip_s * math.exp(-s),
                  bi_s * math.exp(s), bip_s * math.exp(s))
        taylor = [v[0] for v in _taylor(np.array([x]))]
        assert relative_error(series, taylor) <= 1e-14, x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.floats(-9.5, 8.5))
def test_table_range_against_references(x):
    # scipy.special.airy is the reference for the local size; for x > 0,
    # where Ai is far below that size, mpmath is the reference for the
    # relative error, since scipy's own relative error in Ai reaches
    # 1.7e-14 (near x = 2.04, checked against mpmath)
    got = values(x)
    assert envelope_error(got, scipy_airy(x)) <= 1e-14
    if x > 0.0:
        assert relative_error(got, mp_airy_maclaurin(x)) <= 1e-14
