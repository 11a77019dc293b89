import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import airybeam.green
from airybeam.errors import ConvergenceError, DomainError
from airybeam.green import _g_time_scaled, green_closed, green_oracle
from airybeam.sources import PointSource, psi_point
from airybeam.validation import oracle_agreement, oracle_panel


def test_closed_rejects_coincident_points(unit_system):
    with pytest.raises(DomainError, match="diagonal"):
        green_closed(unit_system, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.3)


def test_shift_symmetry(unit_system):
    # G(r, r'; E) = G(r - r', 0; E + F z') exactly
    rng = np.random.default_rng(42)
    for _ in range(1000):
        r = tuple(rng.normal(scale=2.0, size=3))
        rs = tuple(rng.normal(scale=2.0, size=3))
        e = rng.uniform(-4.0, 4.0)
        lhs = green_closed(unit_system, r, rs, e).scaled
        shifted = tuple(a - b for a, b in zip(r, rs))
        rhs = green_closed(unit_system, shifted, (0.0, 0.0, 0.0),
                           e + unit_system.force * rs[2]).scaled
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_reciprocity(unit_system):
    rng = np.random.default_rng(43)
    for _ in range(200):
        r = tuple(rng.normal(scale=2.0, size=3))
        rs = tuple(rng.normal(scale=2.0, size=3))
        e = rng.uniform(-4.0, 4.0)
        assert green_closed(unit_system, r, rs, e).scaled == \
            green_closed(unit_system, rs, r, e).scaled


def test_closed_vs_oracle_spot(unit_system):
    gc = green_closed(unit_system, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 0.0)
    go = green_oracle(unit_system, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 0.0)
    assert abs(gc.scaled - go.scaled) <= 1e-6 * abs(gc.scaled)
    assert go.error_estimate is not None


def test_closed_vs_oracle_shifted_source(unit_system):
    r = (0.4, -0.3, 2.0)
    rs = (0.1, 0.2, -0.5)
    e = 0.8
    gc = green_closed(unit_system, r, rs, e)
    go = green_oracle(unit_system, r, rs, e)
    assert abs(gc.scaled - go.scaled) <= 1e-6 * abs(gc.scaled)


def test_oracle_error_estimate_bounds_the_gap(unit_system):
    # the quadrature's error estimate covers the distance to the closed form
    for r, e in oracle_panel(unit_system, 10, seed=7):
        go = green_oracle(unit_system, r, (0.0, 0.0, 0.0), e)
        gc = green_closed(unit_system, r, (0.0, 0.0, 0.0), e)
        assert abs(go.scaled - gc.scaled) <= go.error_estimate


@pytest.mark.parametrize("phase", [0j, complex(math.nan, math.nan)])
def test_oracle_tail_search_is_bounded(monkeypatch, phase):
    # a contour phase that never decays (or is NaN) ends the tail search
    # with an error instead of integrating a truncated tail
    monkeypatch.setattr(airybeam.green, "_phase", lambda *args: phase)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ConvergenceError, match="not decayed"):
            _g_time_scaled(1.0, 0.5)


@pytest.mark.parametrize("rho, a", [(3.0, -8.0), (5.0, -5.5), (5.5, -4.7),
                                    (1.0, 0.5), (6.0, 10.0), (0.5, -10.0)])
def test_time_integral_equals_closed_form(unit_system, rho, a):
    # undamped contour integral against the closed form in all three saddle
    # regimes: a <= -rho (imaginary axis), |a| < rho, a >= rho (real axis);
    # with beta = 1, a = zeta - eps is reached at E = a / 2 on the x axis
    g, _ = _g_time_scaled(rho, a)
    closed = green_closed(unit_system, (rho, 0.0, 0.0), (0.0, 0.0, 0.0), a / 2.0).scaled
    assert abs(g - closed) <= 1e-9 * abs(closed)


def test_oracle_free_particle_limit(unit_system):
    # beta*F*|r - r'| <= 0.01 with E > 0: modulus -> (m/2 pi hbar^2)/|r-r'|,
    # which is 2/(pi rho) in scaled units
    for rho in (0.01, 0.004):
        go = green_oracle(unit_system, (0.0, 0.0, rho), (0.0, 0.0, 0.0), 2.0)
        free = 2.0 / (math.pi * rho)
        assert abs(abs(go.scaled) - free) <= 0.01 * free


def test_outgoing_wave_downstream(unit_system):
    # local wavevector Im(d/dz ln psi) > 0 at 20 downstream points for E > 0
    src = PointSource(1.0)
    e = 1.5
    h = 1e-4
    for z in np.linspace(4.0, 12.0, 20):
        up = psi_point(unit_system, src, (0.3, 0.0, z + h), e)
        dn = psi_point(unit_system, src, (0.3, 0.0, z - h), e)
        mid = psi_point(unit_system, src, (0.3, 0.0, z), e)
        assert ((up - dn) / (2 * h * mid)).imag > 0.0


def test_diagonal_imaginary_part_sign(unit_system):
    # -(2/hbar)|C|^2 Im g >= 0 near coincidence for every E (current >= 0)
    for e in np.linspace(-3.0, 3.0, 25):
        g = green_closed(unit_system, (0.0, 0.0, 1e-4), (0.0, 0.0, 0.0), e)
        assert g.scaled.imag <= 0.0


def test_panel_agreement_sample():
    # a quick 10-point panel of another seed than the acceptance panel's
    check = oracle_agreement(10, seed=7)
    assert check.ok, check


def test_si_factor_recorded(rb_system):
    g = green_closed(rb_system, (0.0, 0.0, 1e-6), (0.0, 0.0, 0.0), 0.0)
    assert_allclose(g.si_factor, rb_system.beta * rb_system.beta_f**3, rtol=0)
    assert_allclose(abs(g.value), abs(g.scaled) * g.si_factor, rtol=1e-12)
