import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.special import airy as scipy_airy

from airybeam.airy import (X_MAX, X_SWITCH, _bracket_series_log, airy_all,
                           airy_bracket_log, airy_modulus_asymptotic, airy_scaled)
from airybeam.errors import DomainError, RangeError

from airy_reference import PANEL
from oracles import mp_airy_maclaurin

INV_PI = 1.0 / math.pi


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
    xs = rng.uniform(-X_MAX, 8.0, 10_000)
    worst = 0.0
    for x in xs:
        p = airy_all(float(x))
        worst = max(worst, abs(p.ai * p.bi_prime - p.ai_prime * p.bi - INV_PI))
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
    # difference series in airy_bracket_log at 8
    for x in np.linspace(center - 0.5, center + 0.5, 21):
        ai, aip, bi, bip = scipy_airy(x)
        if center < 0:
            pairs = zip(airy_modulus_asymptotic(x), (ai, aip, bi, bip))
        else:
            series = math.exp(_bracket_series_log(np.array([x]))[0])
            pairs = [(series, aip**2 - x * ai**2)]
        for g, e in pairs:
            assert abs(g - e) <= 1e-10 * abs(e)


def test_modulus_asymptote_at_minus_fifty():
    # Ai^2 + Bi^2 approaches 1/(pi sqrt|x|); the leading asymptotic
    # correction itself is 1.25e-6 here (mpmath), hence the 2e-6 bound
    ai, aip, bi, bip = airy_modulus_asymptotic(-50.0)
    target = 1.0 / (math.pi * math.sqrt(50.0))
    assert abs(ai**2 + bi**2 - target) <= 2e-6 * target


def test_modulus_asymptotic_needs_oscillatory_region():
    with pytest.raises(DomainError):
        airy_modulus_asymptotic(-3.0)


def test_range_error_above_cap():
    with pytest.raises(RangeError):
        airy_all(X_MAX + 1.0)
    airy_all(X_MAX)               # the cap itself is fine


@pytest.mark.parametrize("x", [2.0**20, np.array([1.0, 2.0**20, 20.0])],
                         ids=["scalar", "array"])
def test_scaled_rejects_non_finite_airye(x):
    # scipy's airye returns NaN from about x = 2^20 up
    with pytest.raises(RangeError, match=f"airy_scaled: .* up to {2.0**20}"):
        airy_scaled(x)


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
    # the transition and oscillatory branches, the last past scipy's NaN floor
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


def test_bracket_log_against_panel():
    # Ai'(x)^2 - x Ai(x)^2 reconstructed from frozen panel values
    for x, ai, aip, bi, bip in PANEL:
        if x > 8.0 or x < -90.0:
            continue
        want = aip**2 - x * ai**2
        assert_allclose(math.exp(airy_bracket_log(x)), want, rtol=5e-10)


def test_bracket_log_deep_tunneling():
    # frozen with mpmath at 60 digits: log(Ai'^2 - x Ai^2)
    frozen = {
        12.0: -61.15129649424313,
        50.0: -478.5427122328155,
        500.0: -14916.55869287331,
        1900.0: -110436.21369217575,
    }
    for x, want in frozen.items():
        assert_allclose(airy_bracket_log(x), want, rtol=1e-12)


def test_bracket_positive_everywhere():
    # equals the integral of Ai^2 over (x, inf): positive for all real x
    for x in np.linspace(-60.0, 60.0, 121):
        assert math.isfinite(airy_bracket_log(float(x)))
