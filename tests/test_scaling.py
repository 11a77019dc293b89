import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from airybeam.errors import DomainError, RangeError
from airybeam.scaling import (ELECTRON_MASS, G_EARTH, HBAR, RB87_MASS,
                              energy_from_ev,
                              energy_from_frequency, force_from_ev_per_m,
                              make_system)

# independently computed with mpmath at 50 digits from the same constants
BETA_O_MINUS = 1.6458555645978968e23
BETA_S_MINUS = 1.1794500936362574e22
BETA_RB = 1.1741177129730565e30
ZETA_O_DETECTOR = 5733312.3175330813      # beta*F*z at z = 0.514 m
EPS_O = -5.3002721703606321               # -2*beta*E at E = 100.5 ueV


def test_beta_unit_normalizing_choice():
    # m = 4, F = 1, hbar = 1 makes m/(4 hbar^2 F^2) = 1 exactly
    assert make_system(4.0, 1.0, 1.0).beta == pytest.approx(1.0, rel=1e-15)


def test_beta_o_minus_preset():
    sys = make_system(ELECTRON_MASS, force_from_ev_per_m(423.0))
    assert_allclose(sys.beta, BETA_O_MINUS, rtol=1e-13)


def test_beta_s_minus_preset():
    sys = make_system(ELECTRON_MASS, force_from_ev_per_m(2.205e4))
    assert_allclose(sys.beta, BETA_S_MINUS, rtol=1e-13)


def test_beta_rubidium_gravity():
    sys = make_system(RB87_MASS, RB87_MASS * G_EARTH)
    assert_allclose(sys.beta, BETA_RB, rtol=1e-13)


@pytest.mark.parametrize("field", ["mass", "force", "hbar"])
def test_make_system_rejects_nonpositive(field):
    kwargs = {"mass": 1.0, "force": 1.0, "hbar": 1.0}
    for bad in (0.0, -2.0, math.nan):
        kwargs[field] = bad
        with pytest.raises(DomainError, match=field):
            make_system(**kwargs)
        kwargs[field] = 1.0


@pytest.mark.parametrize("force", [1e-200, 1e200])
def test_make_system_rejects_beta_out_of_range(force):
    # F^2 underflows to 0 or overflows: beta is no finite positive double
    with pytest.raises(RangeError, match="make_system: the scale beta"):
        make_system(1.0, force, 1.0)


def test_scale_point_origin(unit_system):
    assert unit_system.scale_point((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_scale_point_linearity():
    # beta*F = 2: m = 32, F = 1, hbar = 1 -> beta = (32/4)^(1/3) = 2
    sys = make_system(32.0, 1.0, 1.0)
    assert sys.beta_f == pytest.approx(2.0, rel=1e-15)
    assert_allclose(sys.scale_point((1.0, 2.0, 3.0)), (2.0, 4.0, 6.0), rtol=1e-15)


def test_scale_point_o_minus_detector():
    sys = make_system(ELECTRON_MASS, force_from_ev_per_m(423.0))
    _, _, zeta = sys.scale_point((0.0, 0.0, 0.514))
    assert_allclose(zeta, ZETA_O_DETECTOR, rtol=1e-13)


def test_scale_energy_examples(unit_system):
    assert unit_system.scale_energy(0.0) == 0.0
    assert unit_system.scale_energy(1.0) == pytest.approx(-2.0, rel=1e-15)
    sys = make_system(ELECTRON_MASS, force_from_ev_per_m(423.0))
    assert_allclose(sys.scale_energy(energy_from_ev(100.5e-6)), EPS_O, rtol=1e-13)


def test_sign_convention_positive_energy():
    sys = make_system(1.0, 1.0, 1.0)
    assert sys.scale_energy(2.5) < 0.0
    assert sys.scale_energy(-2.5) > 0.0


def test_round_trip_identity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sys = make_system(*np.exp(rng.uniform(-40, 10, size=3)))
        e = rng.normal(scale=1e-25)
        assert_allclose(sys.unscale_energy(sys.scale_energy(e)), e, rtol=1e-12)


@pytest.mark.parametrize("k", [2.0, 10.0, 100.0])
def test_beta_force_scaling_law(k):
    base = make_system(ELECTRON_MASS, 1e-18)
    scaled = make_system(ELECTRON_MASS, k * 1e-18)
    assert_allclose(scaled.beta, base.beta * k ** (-2.0 / 3.0), rtol=1e-12)


def test_energy_unit_tags():
    assert_allclose(energy_from_ev(1.0), 1.602176634e-19, rtol=0)
    nu = 2.5e3
    assert_allclose(energy_from_frequency(nu), 2 * math.pi * HBAR * nu, rtol=0)


def test_system_is_frozen(unit_system):
    with pytest.raises(AttributeError):
        unit_system.mass = 2.0
