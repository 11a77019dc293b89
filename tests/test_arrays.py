"""Array calls of the numeric core against elementwise scalar calls.

Every public function of the Airy, Green and source layers takes arrays and
broadcasts them; a scalar call runs the same code on a one-element array.
These properties check that an array call returns exactly the scalar
results, and that one bad element raises the error a scalar call raises.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airybeam.airy import X_MAX, airy_all, airy_bracket_log
from airybeam.errors import DomainError, RangeError
from airybeam.green import green_closed
from airybeam.scaling import make_system
from airybeam.sources import (GaussianSource, PointSource, current_density_gauss,
                              current_density_point, total_current_gauss,
                              total_current_point)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

UNIT = make_system(4.0, 1.0, 1.0)      # beta = 1: scaled and SI coincide
POINT = PointSource(1.3)
GAUSS = GaussianSource(0.3, 1.7)       # alpha = 0.3: far field beyond 1.5


def grids(lo, hi, size=st.integers(1, 24)):
    return arrays(np.float64, size,
                  elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False))


@st.composite
def point_grids(draw, z_lo):
    """(x, y, z, energy) arrays of one common length."""
    n = draw(st.integers(1, 16))
    return (draw(grids(-8.0, 8.0, n)), draw(grids(-8.0, 8.0, n)),
            draw(grids(z_lo, 12.0, n)), draw(grids(-3.0, 3.0, n)))


def elementwise(fn, *columns):
    return np.array([fn(*args) for args in zip(*columns)])


@PROPERTY
@given(grids(-200.0, X_MAX))
def test_airy_all_array_equals_scalar_calls(xs):
    p = airy_all(xs)
    for name in ("ai", "ai_prime", "bi", "bi_prime"):
        want = elementwise(lambda x: getattr(airy_all(x), name), xs)
        np.testing.assert_array_equal(getattr(p, name), want)


@PROPERTY
@given(grids(-200.0, 2000.0))
def test_airy_bracket_log_array_equals_scalar_calls(xs):
    np.testing.assert_array_equal(airy_bracket_log(xs),
                                  elementwise(airy_bracket_log, xs))


@PROPERTY
@given(grids(-60.0, 60.0))
def test_total_currents_array_equal_scalar_calls(es):
    np.testing.assert_array_equal(
        total_current_point(UNIT, POINT, es),
        elementwise(lambda e: total_current_point(UNIT, POINT, e), es))
    np.testing.assert_array_equal(
        total_current_gauss(UNIT, GAUSS, es),
        elementwise(lambda e: total_current_gauss(UNIT, GAUSS, e), es))


@PROPERTY
@given(point_grids(z_lo=-12.0))
def test_point_current_density_array_equals_scalar_calls(cols):
    x, y, z, e = cols
    x[0] = y[0] = 0.0                  # include the field axis
    z[np.abs(z) < 0.1] = 0.5           # stay clear of the source point
    np.testing.assert_array_equal(
        current_density_point(UNIT, POINT, (x, y, z), e),
        elementwise(lambda *a: current_density_point(UNIT, POINT, a[:3], a[3]),
                    x, y, z, e))


@PROPERTY
@given(point_grids(z_lo=1.5))
def test_gauss_current_density_array_equals_scalar_calls(cols):
    x, y, z, e = cols
    np.testing.assert_array_equal(
        current_density_gauss(UNIT, GAUSS, (x, y, z), e),
        elementwise(lambda *a: current_density_gauss(UNIT, GAUSS, a[:3], a[3]),
                    x, y, z, e))


@PROPERTY
@given(point_grids(z_lo=-12.0))
# Airy arguments a+- on both sides of the scaled-value handover at 8:
# a- alone above it, both above it, a+ past the 350 clamp, both below
@example((np.array([0.3, 0.3, 0.3, 0.3, 1.0]), np.array([-0.2, -0.2, -0.2, -0.2, 2.0]),
          np.array([-5.0, -5.0, -5.0, -5.0, 2.0]), np.array([0.5, -4.0, -6.0, -40.0, 2.0])))
def test_green_closed_array_equals_scalar_calls(cols):
    x, y, z, e = cols
    src = (0.3, -0.2, 0.7)
    g = green_closed(UNIT, (x, y, z), src, e)
    scalar = [green_closed(UNIT, r, src, en) for r, en in zip(zip(x, y, z), e)]
    np.testing.assert_array_equal(g.mantissa, [s.mantissa for s in scalar])
    np.testing.assert_array_equal(g.log_scale, [s.log_scale for s in scalar])


@PROPERTY
@given(grids(-50.0, 50.0), st.data())
def test_one_bad_element_raises_like_a_scalar(xs, data):
    i = data.draw(st.integers(0, xs.size - 1))
    bad = xs.copy()
    bad[i] = math.nan
    for fn in (airy_all, airy_bracket_log,
               lambda v: total_current_point(UNIT, POINT, v),
               lambda v: total_current_gauss(UNIT, GAUSS, v),
               lambda v: current_density_point(UNIT, POINT, (v, 0.0, 2.0), 0.5)):
        with pytest.raises(DomainError):
            fn(bad)
    bad[i] = X_MAX + 1.0
    with pytest.raises(RangeError):
        airy_all(bad)

    # the source point itself, and a point inside the Gaussian core
    zs = np.abs(xs) + 1.0
    zs[i] = 0.0
    with pytest.raises(DomainError):
        current_density_point(UNIT, POINT, (0.0, 0.0, zs), 0.5)
    with pytest.raises(DomainError):
        green_closed(UNIT, (0.0, 0.0, zs), (0.0, 0.0, 0.0), 0.5)
    with pytest.raises(DomainError, match="1 of"):
        current_density_gauss(UNIT, GAUSS, (0.0, 0.0, zs + 0.5), 0.5)


def test_soft_far_field_zone_warns_once_per_call():
    # rho~ in [3, 5) alpha at three of five points: one warning for the call
    zs = np.array([1.0, 1.2, 3.0, 4.0, 1.3]) - 2.0 * 0.3**4
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        current_density_gauss(UNIT, GAUSS, (0.0, 0.0, zs), 0.5)
    assert len(caught) == 1
    assert "3 of 5 point(s)" in str(caught[0].message)
