import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import airybeam.green
import airybeam.validation
from airybeam.errors import ConvergenceError, DomainError
from airybeam.green import GreenValue, _g_time_scaled, green_closed, green_oracle
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
    r, energy = oracle_panel(unit_system, 10, seed=7)
    for p, e in zip(r.T, energy):
        go = green_oracle(unit_system, p, (0.0, 0.0, 0.0), e)
        gc = green_closed(unit_system, p, (0.0, 0.0, 0.0), e)
        assert abs(go.scaled - gc.scaled) <= go.error_estimate


# (x, y, z, E) of the first 20 points of the default-seed panel, as the
# point-by-point redraw loop that the one-draw panel replaced gave them
_PANEL_START = [
    (0.023237503427701575, -0.10644345955318048, -0.023914813923789045, 4.217091498747063),
    (0.45426398523888933, 0.8205924445915989, 0.27429949159455486, 3.330860633442004),
    (0.5286229917894257, -0.5568051649441842, 0.6421279268748175, 3.1674700034786802),
    (-1.0694235242233703, 1.602657576656138, -0.02765519528883489, 0.09719094837608368),
    (0.36838282674419504, -0.1908483518726176, 0.08047184310299699, -3.182730724245198),
    (-0.7021228115540068, -1.6588361403060623, -1.7622317230083975, 2.713444776263711),
    (0.08669048709918312, -1.0344030226605623, -0.12976462256011126, -0.38343890716136575),
    (0.398860383895051, 0.0837819030078047, -0.10783066883290417, -2.7637580063080502),
    (0.10845176200405748, -0.6360037501021117, 0.8117382542091761, -0.09691160402839466),
    (-0.12706076568989616, 0.4898818751180301, 1.0433150581734174, -0.6408395266702918),
    (-0.609041415980761, 1.1302652851506514, 3.5586241289920246, -1.6376706249459343),
    (2.5936037496830786, 5.431750254832142, 3.0414783857540155, 0.5314023453808152),
    (-2.0407900532340504, -0.4176948266049792, 0.292428205368587, 2.637160343886679),
    (-7.101477938202699, 0.5323718321606223, 2.299289885839343, 3.469199794175756),
    (0.6941176223601992, -1.10698052354366, -1.1081299536963785, 2.7602213119422876),
    (-0.04213458101044006, -0.016112026489097486, -0.171032698078726, 3.792574681389061),
    (-0.8759271921537082, -5.192101361991984, -0.19212270155304564, 4.96818270191452),
    (-4.681620633022556, 1.4287231632322244, -0.6084569929585301, 4.9917421004611775),
    (-3.7626701175889203, 0.044686092291073766, 0.40530892377011163, 2.5221625848154434),
    (-4.799216335314504, -3.894606661553955, -3.019117262554761, 3.3977409262044755),
]


def test_panel_is_the_frozen_draw(unit_system):
    r, energy = oracle_panel(unit_system, 20)
    assert np.array_equal(np.vstack([r, energy]).T, _PANEL_START)


def test_smaller_panel_starts_the_larger(unit_system):
    r20, e20 = oracle_panel(unit_system, 20)
    r50, e50 = oracle_panel(unit_system, 50)
    assert r20.shape == (3, 20) and e50.shape == (50,)
    assert (r20 == r50[:, :20]).all() and (e20 == e50[:20]).all()


def test_panel_that_no_point_passes_raises(unit_system, monkeypatch):
    # |G| = 0 everywhere: one draw, then ConvergenceError, never a short panel
    calls = []

    def vanishing(sys, r, r_src, energy):
        calls.append(energy)
        if len(calls) > 3:
            raise AssertionError("oracle_panel redraws point by point")
        return GreenValue(np.zeros_like(np.asarray(energy, dtype=complex)), 0.0, 1.0)

    monkeypatch.setattr(airybeam.validation, "green_closed", vanishing)
    with pytest.raises(ConvergenceError, match="oracle_panel"):
        oracle_panel(unit_system, 20)
    assert len(calls) == 1


def test_oracle_tail_ends_past_the_decay(monkeypatch):
    # from the tail ray's end y_hi on, log|integrand| stays at most base - 42
    # (base: its exponent at the ray's start, at least 0); checked at
    # y_hi * (1, 1.5, 3, 10) over seeded (rho, a) in all three saddle
    # regimes, with the quadratures skipped: only the path counts
    contour, paths = airybeam.green._contour, []

    def recorded(rho, a):
        paths.append(contour(rho, a))
        return paths[-1]

    monkeypatch.setattr(airybeam.green, "_contour", recorded)
    monkeypatch.setattr(airybeam.green, "quad", lambda *args, **kwargs: (0j, 0.0))
    rng = np.random.default_rng(33)
    rhos = 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    regimes = set()
    for rho, a in zip(rhos, rng.uniform(-300.0, 300.0, 2000)):
        regimes.add(int(a >= rho) - int(a <= -rho))
        _g_time_scaled(rho, a)
        t0 = contour(rho, a)[-1]
        base = max(airybeam.green._phase(t0, rho, a).real, 0.0)
        y_hi = abs(paths[-1][-1] - t0) or 1.0       # 1 where there is no tail
        tau = t0 + y_hi * np.array([1.0, 1.5, 3.0, 10.0]) * np.exp(-1j * math.pi / 6)
        log_mag = (airybeam.green._phase(tau, rho, a).real + math.log(2.0)
                   - 1.5 * np.log(math.pi * abs(tau)))
        assert np.all(log_mag <= base - 42.0), (rho, a)
    assert regimes == {-1, 0, 1}


def test_oracle_nan_phase_raises(monkeypatch):
    # a NaN phase at the tail's start ends the oracle with a ConvergenceError
    # (not a LinAlgError from the tail's root finding)
    monkeypatch.setattr(airybeam.green, "_phase", lambda *args: complex(math.nan, math.nan))
    with pytest.raises(ConvergenceError):
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


def test_oracle_small_separations(unit_system):
    # rho in [0.003, 0.0064] and a in [-30, 30]: the integrand rises from 0
    # within |tau| ~ rho^2 of the contour's start, a spike the adaptive rule
    # must be pointed at
    rng = np.random.default_rng(5)
    for rho, a in zip(rng.uniform(0.003, 0.0064, 300), rng.uniform(-30.0, 30.0, 300)):
        r = (rho, 0.0, 0.0)
        go = green_oracle(unit_system, r, (0.0, 0.0, 0.0), a / 2.0).scaled
        gc = green_closed(unit_system, r, (0.0, 0.0, 0.0), a / 2.0).scaled
        assert abs(go - gc) <= 1e-6 * max(abs(gc), 1e-3), (rho, a)


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
