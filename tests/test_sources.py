import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import airy as scipy_airy

import airybeam.sources
from airybeam.airy import airy_all
from airybeam.errors import ConvergenceError, DomainError, RangeError
from airybeam.green import green_closed
from airybeam.scaling import (ELECTRON_MASS, energy_from_ev,
                              energy_from_frequency, force_from_ev_per_m,
                              make_system)
from airybeam.scenarios import detector_half_width, o_minus, rb_atom_laser, s_minus
from airybeam.sources import (GaussianSource, PointSource,
                              current_density_gauss, current_density_point,
                              equivalent_point_strength, gaussian_scaled,
                              psi_gauss_far, psi_gauss_near,
                              psi_gauss_quadrature, psi_point,
                              source_amplitude, sum_rule_check,
                              total_current_gauss, total_current_point,
                              total_current_slicing, virtual_source_shift)
from airybeam.validation import flux

# Airy zeros a_k (Ai(a_k) = 0), used for fringe positions
AIRY_ZEROS = [-2.33810741045976704, -4.08794944413097061, -5.52055982809555106]

# on-axis psi for the O- scenario (z = 0.514 m, E = 100.5 ueV, C = 1),
# frozen from the mpmath closed form at 50 digits.  The Airy phase there is
# ~2.6e10 rad, so double precision carries an irreducible ~1e-4 relative
# phase error; the tolerance reflects conditioning, not formula accuracy.
PSI_O_ON_AXIS = complex(4.5946084393139963e38, 1.2834329779288969e38)

LOG_DBL_MIN = math.log(np.finfo(float).tiny)   # a double below e^this is subnormal


@pytest.fixture(scope="module")
def o_system():
    return make_system(ELECTRON_MASS, force_from_ev_per_m(423.0))


# ---------------------------------------------------------------------------
# source models
# ---------------------------------------------------------------------------

def test_gaussian_source_validation():
    with pytest.raises(DomainError):
        GaussianSource(-1e-6, 1.0)
    with pytest.raises(DomainError):
        GaussianSource(1e-6, 0.0)


def test_gaussian_norm_is_hbar_omega_squared(unit_system):
    # integral |sigma|^2 d3r = (hbar Omega)^2 with N0 = a^(-3/2) pi^(-3/4)
    src = GaussianSource(0.7, 1.9)
    val, _ = quad(lambda r: source_amplitude(unit_system, src, (r, 0, 0)) ** 2
                  * 4 * math.pi * r**2, 0, 12.0, limit=200)
    assert_allclose(val, (unit_system.hbar * src.coupling) ** 2, rtol=1e-9)


def test_gaussian_scaled_shift_identities(rb_system):
    src = GaussianSource(0.4e-6, 2 * math.pi * 100.0)
    e = energy_from_frequency(1.2e3)
    g = gaussian_scaled(rb_system, src, e, (0.0, 0.0, 1e-3))
    _, _, zeta = point = rb_system.scale_point((0.0, 0.0, 1e-3))
    eps = -2 * rb_system.beta * e
    assert g.point == point and g.epsilon == rb_system.scale_energy(e)
    assert_allclose(g.zeta_tilde - zeta, 2 * g.alpha**4, rtol=1e-12)
    assert_allclose(g.epsilon_tilde - eps, 4 * g.alpha**4, rtol=1e-12)
    assert_allclose(g.zeta_tilde - zeta, (g.epsilon_tilde - eps) / 2, rtol=1e-12)


# ---------------------------------------------------------------------------
# point source
# ---------------------------------------------------------------------------

def test_psi_point_zero_strength(unit_system):
    assert psi_point(unit_system, PointSource(0.0), (0, 0, 1.0), 0.5) == 0.0


def test_psi_point_linearity(unit_system):
    one = psi_point(unit_system, PointSource(1.0 + 0.5j), (0.2, 0, 1.0), 0.5)
    two = psi_point(unit_system, PointSource(2.0 + 1.0j), (0.2, 0, 1.0), 0.5)
    assert_allclose(two, 2.0 * one, rtol=1e-15)


def test_psi_point_rejects_origin(unit_system):
    with pytest.raises(DomainError):
        psi_point(unit_system, PointSource(1.0), (0.0, 0.0, 0.0), 0.5)


def test_psi_point_o_minus_frozen(o_system):
    got = psi_point(o_system, PointSource(1.0), (0.0, 0.0, 0.514),
                    energy_from_ev(100.5e-6))
    assert abs(got - PSI_O_ON_AXIS) <= 5e-4 * abs(PSI_O_ON_AXIS)


def test_current_density_point_downstream_positive(unit_system):
    src = PointSource(1.0)
    for z in (0.5, 1.0, 4.0):
        assert current_density_point(unit_system, src, (0, 0, z), 1.0) > 0.0


def test_point_flux_equals_total_current():
    # detector-plane integral of j_z against the closed-form J at 1e-4
    (check,) = flux(o_minus(), [0.514])
    assert abs(check.value - 1.0) <= 1e-4, check


def test_fringe_minima_at_airy_zeros(o_system):
    # dark rings sit where Ai(eps - zeta + rho) = 0
    src = PointSource(1.0)
    e = energy_from_ev(100.5e-6)
    eps = -2 * o_system.beta * e
    zeta = o_system.beta_f * 0.514
    for a_k in AIRY_ZEROS:
        if a_k < eps:
            continue
        r_pred = math.sqrt((a_k - eps + zeta) ** 2 - zeta**2) / o_system.beta_f
        xs = np.linspace(0.97 * r_pred, 1.03 * r_pred, 601)
        js = [current_density_point(o_system, src, (x, 0, 0.514), e) for x in xs]
        r_meas = xs[int(np.argmin(js))]
        assert abs(r_meas - r_pred) <= 2e-3 * r_pred


def test_ring_null_current_matches_cancellation_free_reference(o_system):
    # within 1e-3 of the first dark ring's Airy argument, j_z against
    # scipy.special.airy at a- = eps + x^2/(rho + zeta); forming a- as
    # eps - zeta + rho at zeta ~ 5.7e6 would put ~1e-6 relative error here
    src = PointSource(1.0)
    e = energy_from_ev(100.5e-6)
    bf = o_system.beta_f
    eps = -2 * o_system.beta * e
    zeta = bf * 0.514
    am = AIRY_ZEROS[0] + np.linspace(-1e-3, 1e-3, 41)
    xs = np.sqrt((am - eps) * (am - eps + 2 * zeta)) / bf
    got = current_density_point(o_system, src, (xs, 0.0, 0.514), e)
    xi = bf * xs
    rho = np.sqrt(xi**2 + zeta**2)
    ai, aip, _, _ = scipy_airy(eps + xi**2 / (rho + zeta))
    pref = o_system.mass * bf**3 / (2 * math.pi * o_system.hbar**3)
    ref = pref * (zeta * aip**2 + (zeta * (zeta - eps) + rho**2) * ai**2) / rho**3
    assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_total_current_point_at_zero_energy(unit_system):
    # J(0) = pref * Ai'(0)^2
    src = PointSource(1.5)
    pref = (2 * abs(src.strength) ** 2 * unit_system.mass * unit_system.beta
            * unit_system.force / unit_system.hbar**3)
    assert_allclose(total_current_point(unit_system, src, 0.0),
                    pref * airy_all(0.0).ai_prime ** 2, rtol=1e-12)


def test_total_current_positive_and_tunneling_decay(unit_system):
    src = PointSource(1.0)
    # eps = -2 beta E in [1, 8]: strictly positive, monotonically decaying
    last = math.inf
    for eps in np.linspace(1.0, 8.0, 30):
        j = total_current_point(unit_system, src, -eps / 2.0)
        assert 0.0 < j < last
        last = j


def test_wigner_law_flatness(unit_system):
    # J/sqrt(E) flat over the top decade of a scan reaching eps = -100
    src = PointSource(1.0)
    e_max = 100.0 / 2.0
    ratios = [total_current_point(unit_system, src, e) / math.sqrt(e)
              for e in np.linspace(e_max / 10.0, e_max, 120)]
    assert (max(ratios) - min(ratios)) / np.mean(ratios) <= 0.02


# ---------------------------------------------------------------------------
# Gaussian source
# ---------------------------------------------------------------------------

def test_point_source_limit_small_alpha(unit_system):
    # alpha = 1e-4: everything collapses onto the point source with
    # C = hbar Omega (2 sqrt(pi) a)^(3/2)
    src = GaussianSource(1e-4, 2.0)
    psrc = PointSource(equivalent_point_strength(unit_system, src))
    e, r = 0.7, (0.4, -0.2, 1.1)
    assert_allclose(total_current_gauss(unit_system, src, e),
                    total_current_point(unit_system, psrc, e), rtol=1e-6)
    assert_allclose(current_density_gauss(unit_system, src, r, e),
                    current_density_point(unit_system, psrc, r, e), rtol=1e-6)
    assert_allclose(psi_gauss_far(unit_system, src, r, e),
                    psi_point(unit_system, psrc, r, e), rtol=1e-6)
    assert_allclose(psi_gauss_quadrature(unit_system, src, r, e),
                    psi_point(unit_system, psrc, r, e), rtol=1e-6)


def test_psi_far_matches_quadrature(unit_system):
    src = GaussianSource(0.3, 1.5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = tuple(rng.uniform(2.0, 6.0) * v)
        pf = psi_gauss_far(unit_system, src, r, 0.5)
        pq = psi_gauss_quadrature(unit_system, src, r, 0.5)
        assert abs(pf - pq) <= 1e-6 * abs(pq)


def test_psi_far_domain_policy(unit_system):
    src = GaussianSource(1.0, 1.0)   # alpha = 1, so zeta~ = z + 2
    with pytest.raises(DomainError):
        psi_gauss_far(unit_system, src, (0.0, 0.0, 0.5), 0.5)   # rho~ = 2.5 alpha
    with pytest.warns(UserWarning):
        psi_gauss_far(unit_system, src, (0.0, 0.0, 1.5), 0.5)   # soft zone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi_gauss_far(unit_system, src, (0.0, 0.0, 4.0), 0.5)   # clean


def test_psi_near_is_real_and_gaussian_suppressed(unit_system):
    src = GaussianSource(0.5, 1.0)
    v1 = psi_gauss_near(unit_system, src, (0.0, 0.0, 0.5 - 2 * 0.5**4), 0.3)
    v10 = psi_gauss_near(unit_system, src, (0.0, 0.0, 5.0 - 2 * 0.5**4), 0.3)
    assert isinstance(v1, float) and isinstance(v10, float)
    # rho~ = 10 alpha vs rho~ = alpha: suppression e^{-50} times the
    # algebraic 1/rho~^2 factor
    assert_allclose(v10 / v1, math.exp(-49.5) / 100.0, rtol=1e-9)


def test_near_plus_far_matches_quadrature_at_intermediate_range(unit_system):
    # validity demands the small-alpha regime; rho~ = 3.2 alpha sits in the
    # soft-warning window between the hard 3 alpha cutoff and clean far field
    for alpha, eps in ((0.2, -0.5), (0.2, 0.3), (0.15, -0.3)):
        src = GaussianSource(alpha, 1.0)
        e = -eps / 2.0
        r = (0.0, 0.0, 3.2 * alpha - 2 * alpha**4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pf = psi_gauss_far(unit_system, src, r, e)
        pn = psi_gauss_near(unit_system, src, r, e)
        pq = psi_gauss_quadrature(unit_system, src, r, e)
        assert abs(pf + pn - pq) <= 1e-3 * abs(pq)


def test_imaginary_axis_segment_approaches_near_form(unit_system):
    # the exact imaginary-axis segment approaches the asymptotic near-field
    # formula as rho~/alpha grows (the printed form drops an
    # exp(2 alpha^2 (zeta~ - eps~)) factor, negligible only at small alpha)
    alpha, eps = 0.05, -0.1
    src = GaussianSource(alpha, 1.0)
    e = -eps / 2.0
    devs = []
    for u in (5.0, 8.0, 12.0):
        r = (0.0, 0.0, u * alpha - 2 * alpha**4)
        g = gaussian_scaled(unit_system, src, e, r)
        a = g.zeta_tilde - g.epsilon_tilde
        rho = g.rho_tilde
        seg, _ = quad(lambda t: (math.pi * t) ** -1.5
                      * math.exp(-rho * rho / t + a * t + t**3 / 12.0),
                      min(rho * rho / 90.0, alpha**2), 2 * alpha**2, limit=200)
        seg *= 2 * math.exp(g.log_weight) * unit_system.beta * unit_system.beta_f**3
        devs.append(abs(seg - psi_gauss_near(unit_system, src, r, e))
                    / psi_gauss_near(unit_system, src, r, e))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 1e-2


def test_far_segment_equals_weighted_green(unit_system):
    # real-axis contour segment alone = Lambda(eps~) G(rho~-shifted args)
    from airybeam.green import _g_time_scaled
    src = GaussianSource(0.7, 1.0)
    e = 0.75
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = tuple(rng.uniform(2.5, 6.0) * v)
        g = gaussian_scaled(unit_system, src, e, r)
        far, _ = _g_time_scaled(g.rho_tilde, g.zeta_tilde - g.epsilon_tilde)
        far *= math.exp(g.log_weight) * unit_system.beta * unit_system.beta_f**3
        xi = math.sqrt(max(g.rho_tilde**2 - g.zeta_tilde**2, 0.0))
        closed = green_closed(unit_system, (xi, 0.0, g.zeta_tilde), (0, 0, 0),
                              -g.epsilon_tilde / 2.0).value
        closed *= math.exp(g.log_weight)
        assert abs(far - closed) <= 1e-6 * abs(closed)


def test_quadrature_smooth_across_energies(unit_system):
    src = GaussianSource(0.4, 1.0)
    r = (0.5, 0.0, 2.0)
    es = np.linspace(0.2, 0.8, 31)
    vals = np.array([psi_gauss_quadrature(unit_system, src, r, e) for e in es])
    steps = np.abs(np.diff(vals)) / np.max(np.abs(vals))
    # no jump wildly out of line with the local trend
    assert np.max(steps) <= 5.0 * np.median(steps)


def test_virtual_source_shift_moves_fringes(rb_system):
    # the virtual source sits 2 alpha^4 upstream (scaled): between
    # a = 0.2 um and a = 0.4 um the first dark ring moves exactly as the
    # tilde-shifted Airy argument predicts
    e = energy_from_frequency(2.5e3)
    z = 1.0e-3
    radii = {}
    for a in (0.2e-6, 0.4e-6):
        src = GaussianSource(a, 2 * math.pi * 100.0)
        g = gaussian_scaled(rb_system, src, e, (0.0, 0.0, z))
        a1 = AIRY_ZEROS[0]
        r_pred = (math.sqrt((a1 - g.epsilon_tilde + g.zeta_tilde) ** 2
                            - g.zeta_tilde**2) / rb_system.beta_f)
        xs = np.linspace(0.9 * r_pred, 1.1 * r_pred, 801)
        js = [current_density_gauss(rb_system, src, (x, 0.0, z), e) for x in xs]
        r_meas = xs[int(np.argmin(js))]
        assert abs(r_meas - r_pred) <= 3e-3 * r_pred
        radii[a] = r_meas
        assert virtual_source_shift(rb_system, src) < 0.0   # upstream
    assert radii[0.4e-6] != radii[0.2e-6]


def test_total_current_gauss_vs_point_identity(unit_system):
    # the virtual-source substitution is an algebraic identity: shifted
    # energy, weighted strength
    rng = np.random.default_rng(77)
    for _ in range(300):
        alpha = rng.uniform(0.01, 1.5)
        src = GaussianSource(alpha, rng.uniform(0.1, 5.0))
        e = rng.uniform(-2.0, 2.0)
        g = gaussian_scaled(unit_system, src, e)
        jg = total_current_gauss(unit_system, src, e)
        jp = total_current_point(
            unit_system, PointSource(math.exp(g.log_weight)),
            -g.epsilon_tilde / 2.0)
        assert abs(jg - jp) <= 1e-12 * jp


def test_gauss_flux_equals_total_current():
    preset = replace(rb_atom_laser(), width=0.4e-6, coupling=2 * math.pi * 100.0)
    (check,) = flux(preset, [1e-3])
    assert check.ok, check


def test_continuity_equation_with_source_term(unit_system):
    # div j = -(2/hbar) Im(sigma* psi), with div j = (hbar/m) Im(psi* lap psi)
    # assembled from central finite differences of the quadrature
    # wavefunction (Richardson-extrapolated to kill the h^2 truncation)
    src = GaussianSource(0.8, 1.0)
    e = 0.5
    h = 8e-3
    hb, m = unit_system.hbar, unit_system.mass

    def psi(r):
        return psi_gauss_quadrature(unit_system, src, r, e)

    def laplacian(r, step):
        center = psi(r)
        acc = 0.0j
        for k in range(3):
            rp = list(r); rp[k] += step
            rm = list(r); rm[k] -= step
            acc += psi(rp) + psi(rm) - 2.0 * center
        return acc / step**2, center

    rng = np.random.default_rng(21)
    pts = []
    for radius in (0.6, 1.2, 2.5, 4.0):     # core through far field
        for _ in range(5):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            pts.append(tuple(radius * v))
    for r in pts:
        lap_h, center = laplacian(r, h)
        lap_h2, _ = laplacian(r, h / 2.0)
        lap = (4.0 * lap_h2 - lap_h) / 3.0
        div = hb / m * (center.conjugate() * lap).imag
        rhs = -(2.0 / hb) * (source_amplitude(unit_system, src, r)
                             * center).imag
        # local current scale: the gradient terms the divergence is built from
        jmag = hb / m * abs(center) * abs(lap) ** 0.5
        scale = max(abs(rhs), abs(div), jmag, 1e-30)
        assert abs(div - rhs) <= 1e-4 * scale


@pytest.mark.parametrize("width", [2.8e-6, 10e-6, 20e-6])
def test_total_current_gauss_matches_mpmath_closed_form(rb_system, width):
    # the weight's exponent 4 alpha^2 (eps~ - 4 alpha^4/3) and the bracket's
    # -4/3 eps~^(3/2) are each of size alpha^6 (alpha = 33 at 20 um); their
    # cancellation must not cost digits.  The reference takes the same
    # double alpha and eps and forms the closed form at 60 digits.
    src = GaussianSource(width, 2 * math.pi * 105.585)
    energies = energy_from_frequency(np.linspace(-3e3, 3e3, 11))
    got = total_current_gauss(rb_system, src, energies)
    with mp.workdps(60):
        alpha = mp.mpf(rb_system.beta_f * width)
        for e, j in zip(energies, got):
            et = mp.mpf(float(rb_system.scale_energy(e))) + 4 * alpha**4
            want = (64 * mp.pi**1.5 * mp.mpf(rb_system.hbar) * mp.mpf(src.coupling)**2
                    * alpha**3 * mp.mpf(rb_system.beta)
                    * mp.exp(4 * alpha**2 * (et - 4 * alpha**4 / 3))
                    * (mp.airyai(et, 1)**2 - et * mp.airyai(et)**2))
            assert abs(j / float(want) - 1.0) <= 1e-13


def _mp_gauss_far(sys, src, energy, x, z):
    """60-digit j_z and psi_far of the Gaussian source at (x, 0, z), from the
    closed forms in tilde variables with the same double alpha, eps, xi and
    zeta; a- and a+ near 2e8 and -3e3 at 50 um."""
    with mp.workdps(60):
        alpha = mp.mpf(sys.beta_f * src.width)
        et = mp.mpf(float(sys.scale_energy(energy))) + 4 * alpha**4
        xi, _, zeta = sys.scale_point((x, 0.0, z))
        zt = mp.mpf(float(zeta)) + 2 * alpha**4
        rt = mp.sqrt(mp.mpf(float(xi))**2 + zt**2)
        am, ap = et - zt + rt, et - zt - rt
        # ln Lambda: the weight hbar Omega (2 sqrt(pi) a)^(3/2) e^(2 alpha^2 (eps~ - 4 alpha^4/3))
        log_w = (mp.log(mp.mpf(sys.hbar) * mp.mpf(src.coupling))
                 + mp.mpf(1.5) * mp.log(2 * mp.sqrt(mp.pi) * mp.mpf(src.width))
                 + 2 * alpha**2 * (et - 4 * alpha**4 / 3))
        shape = (zt * mp.airyai(am, 1)**2
                 + (zt * (zt - et) + rt**2) * mp.airyai(am)**2) / rt**3
        jz = (mp.exp(2 * log_w) * mp.mpf(sys.mass) * mp.mpf(sys.beta_f)**3
              / (2 * mp.pi * mp.mpf(sys.hbar)**3) * shape)
        ci = lambda a, d=0: mp.airybi(a, d) + 1j * mp.airyai(a, d)
        bracket = ci(ap) * mp.airyai(am, 1) - ci(ap, 1) * mp.airyai(am)
        psi = (mp.exp(log_w) * mp.mpf(sys.beta) * mp.mpf(sys.beta_f)**3
               * 2 / rt * bracket)
        return float(jz), complex(psi)


@pytest.mark.parametrize("width", [2.8e-6, 10e-6, 20e-6, 50e-6])
def test_gauss_far_field_matches_mpmath_closed_form(width):
    # as for J: the weight's exponent and j_z's -2 s (psi's -s-) are each of
    # size alpha^6 (alpha = 83 at 50 um, a- ~ 2e8); 13 points across the
    # default profile.  psi keeps ~1e-11, the phase error of Ci(a+) at
    # |a+| ~ 3e3 (phase ~ 1e5 rad)
    preset = replace(rb_atom_laser(), width=width)
    sys, src = preset.system, preset.source
    energy, z = preset.plane
    xs = np.linspace(0.0, detector_half_width(preset, None), 13)
    jz = current_density_gauss(sys, src, (xs, 0.0, z), energy)
    psi = psi_gauss_far(sys, src, (xs, 0.0 * xs, z), energy)
    for x, j, ps in zip(xs, jz, psi):
        want_j, want_psi = _mp_gauss_far(sys, src, energy, x, z)
        assert abs(j / want_j - 1.0) <= 1e-13
        assert abs(ps / want_psi - 1.0) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_width=st.floats(math.log(0.05e-6), math.log(100e-6)),
       nu=st.floats(-15e3, 15e3), frac=st.floats(0.0, 1.0))
def test_gauss_observables_finite_at_any_width(log_width, nu, frac):
    # wide condensates put a- = eps~ + delta far beyond airy.X_SCALED_MAX;
    # no observable may warn, raise or leave double range on the way
    preset = replace(rb_atom_laser(), width=math.exp(log_width), profile_nu=nu)
    sys, src = preset.system, preset.source
    energy, z = preset.plane
    xs = np.array([0.0, frac, 1.0]) * detector_half_width(preset, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jz = current_density_gauss(sys, src, (xs, 0.0, z), energy)
        j_total = total_current_gauss(sys, src, energy)
        psi = psi_gauss_far(sys, src, (xs, 0.0 * xs, z), energy)
    assert np.all(np.isfinite(jz)) and np.all(jz >= 0.0)
    assert math.isfinite(j_total) and j_total > 0.0
    assert np.all(np.isfinite(psi))


def _log_bracket_floor(x):
    """A floor under ln(Ai'(x)^2 - x Ai(x)^2): the bracket decreases with x,
    and from x = 20 on its log is -4/3 x^1.5 - ln(8 pi x) to within 0.008
    below (checked against 60-digit mpmath up to x = 1e6)."""
    x = max(x, 20.0)
    return -4.0 / 3.0 * x**1.5 - math.log(8.0 * math.pi * x) - 0.01


def _signed_log_uniform(lo_exp, hi_exp):
    """Floats of either sign with magnitudes log-uniform in 10^[lo_exp, hi_exp]."""
    return st.builds(lambda sign, u: sign * 10.0**u, st.sampled_from([-1.0, 1.0]),
                     st.floats(lo_exp, hi_exp))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(make=st.sampled_from([s_minus, o_minus]),
       eps=st.one_of(st.floats(-1e6, 2.0**20), st.floats(0.0, 120.0)))
@example(make=s_minus, eps=75.0)
def test_total_current_point_positive_property(make, eps):
    # finite and >= 0 at every scaled energy eps = -2 beta E; > 0 wherever
    # ln J stays above ln(DBL_MIN), so only deep tunnelling underflows
    preset = make()
    sys = preset.system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = total_current_point(sys, preset.source, sys.unscale_energy(eps))
    assert math.isfinite(j) and j >= 0.0
    log_pref = math.log(2.0 * sys.mass * sys.beta * sys.force / sys.hbar**3)
    if log_pref + _log_bracket_floor(eps) > LOG_DBL_MIN:
        assert j > 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(log_width=st.floats(math.log(0.05e-6), math.log(100e-6)),
       omega_hz=st.floats(1.0, 1e4), nu=_signed_log_uniform(-3.0, 9.0))
def test_total_current_slicing_positive_property(log_width, omega_hz, nu):
    # J_sp = pref e^(-eps^2/(4 alpha^2)): finite and >= 0 at every detuning,
    # > 0 wherever its log stays above ln(DBL_MIN); the far tails underflow
    preset = replace(rb_atom_laser(), width=math.exp(log_width),
                     coupling=2.0 * math.pi * omega_hz)
    sys, src = preset.system, preset.source
    energy = energy_from_frequency(nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = total_current_slicing(sys, src, energy)
    assert math.isfinite(j) and j >= 0.0
    alpha, eps = sys.beta_f * src.width, float(sys.scale_energy(energy))
    log_j = (math.log(2.0 * math.sqrt(math.pi) * sys.hbar * src.coupling**2 * sys.beta / alpha)
             - eps**2 / (4.0 * alpha**2))
    if log_j > LOG_DBL_MIN:
        assert j > 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(make=st.sampled_from([s_minus, o_minus]), lateral=st.floats(0.0, 1.0),
       eps=st.one_of(st.floats(-1e3, 0.0), st.floats(0.0, 120.0)))
@example(make=o_minus, lateral=0.0, eps=68.56)     # O- on axis at E = -1.3 meV
def test_current_density_point_positive_property(make, lateral, eps):
    # j_z on the detector plane, out to its image half-width and into deep
    # tunnelling (eps = -2 beta E up to 120): finite and >= 0, and > 0
    # wherever ln j_z = ln pref + ln mant - 2 s stays above ln(DBL_MIN)
    preset = make()
    sys = preset.system
    r = (lateral * detector_half_width(preset, None), 0.0, preset.detector_z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        j = current_density_point(sys, preset.source, r, sys.unscale_energy(eps))
    assert math.isfinite(j) and j >= 0.0
    mant, s, _ = airybeam.sources._jz_shape(
        *(np.array([c]) for c in (*sys.scale_point(r), eps)))
    log_pref = math.log(preset.strength2 * sys.mass * sys.beta_f**3
                        / (2.0 * math.pi * sys.hbar**3))
    if mant[0] > 0.0 and log_pref + math.log(mant[0]) - 2.0 * s[0] > LOG_DBL_MIN:
        assert j > 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nu=st.floats(11.4e3, 11.7e3), sign=st.sampled_from([-1.0, 1.0]))
@example(nu=11662.5, sign=-1.0)          # a row of `transition`: J_sp ~ 1.9e-321
def test_total_current_slicing_subnormal_matches_mpmath(nu, sign):
    # the 0.2 um slicing curve of `transition` where J_sp crosses into the
    # subnormals: within 2 subnormal spacings of 40-digit mpmath, plus the
    # relative error 1e-14 + 4 |x| 2^-53 of its exponent x = -eps^2/(4 alpha^2),
    # itself a double of magnitude ~715 whose last unit is 1.1e-13
    preset = replace(rb_atom_laser(), width=0.2e-6)
    sys, src = preset.system, preset.source
    energy = energy_from_frequency(sign * nu)
    j = total_current_slicing(sys, src, energy)
    eps, alpha = float(sys.scale_energy(energy)), sys.beta_f * src.width
    with mp.workdps(40):
        x = -mp.mpf(eps)**2 / (4 * mp.mpf(alpha)**2)
        want = (2 * mp.sqrt(mp.pi) * mp.mpf(sys.hbar) * mp.mpf(src.coupling)**2
                * mp.mpf(sys.beta) / mp.mpf(alpha) * mp.exp(x))
        err = abs(mp.mpf(float(j)) - want)
        assert err <= 2 * mp.mpf(2)**-1074 + (1e-14 + 4 * abs(x) * mp.mpf(2)**-53) * want
        if want >= np.finfo(float).tiny:
            assert err <= (1e-14 + 4 * abs(x) * mp.mpf(2)**-53) * want


def test_psi_gauss_quadrature_at_rb_plane_raises_range_error():
    # the Rb preset's own plane (z = 1 mm, rho~ ~ 2600): the weight
    # e^(ln Lambda + ln beta (beta F)^3) leaves double range
    preset = rb_atom_laser()
    energy, z = preset.plane
    with pytest.raises(RangeError, match="psi_gauss_quadrature"):
        psi_gauss_quadrature(preset.system, preset.source, (0.0, 0.0, z), energy)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(log_alpha=st.floats(math.log(1e-7), math.log(1e-4)))
def test_gaussian_tends_to_point_source_property(unit_system, log_alpha):
    # J, j_z and psi_far of the Gaussian against the delta source of strength
    # equivalent_point_strength, within the point-source-limit budget 1e-6;
    # beta F = 1, so alpha is the width
    src = GaussianSource(math.exp(log_alpha), 2.0)
    psrc = PointSource(equivalent_point_strength(unit_system, src))
    e, r = 0.7, (0.4, -0.2, 1.1)
    pairs = ((total_current_gauss(unit_system, src, e), total_current_point(unit_system, psrc, e)),
             (current_density_gauss(unit_system, src, r, e),
              current_density_point(unit_system, psrc, r, e)),
             (psi_gauss_far(unit_system, src, r, e), psi_point(unit_system, psrc, r, e)))
    for gauss, point in pairs:
        assert abs(gauss / point - 1.0) <= 1e-6


def test_total_current_gauss_overflow_guard(unit_system):
    with pytest.raises(RangeError, match="exponent"):
        total_current_gauss(unit_system, GaussianSource(0.5, 1e170), 0.0)


@pytest.mark.parametrize("current", [
    lambda sys, e: total_current_point(sys, PointSource(1.0), e),
    lambda sys, e: current_density_point(sys, PointSource(1.0), (0.0, 0.0, 1.0), e),
    lambda sys, e: total_current_gauss(sys, GaussianSource(1.0, 1.0), e),
    lambda sys, e: total_current_slicing(sys, GaussianSource(1.0, 1.0), e),
], ids=["point", "density", "gauss", "slicing"])
def test_scaled_energy_beyond_range_raises(unit_system, current):
    # eps = -2 beta E = 2e100 at beta = 1: the Airy phase has no digit left
    assert np.all(np.isfinite(current(unit_system, np.array([0.5, 1.0]))))
    with pytest.raises(RangeError, match="scaled energy 2e\\+100"):
        current(unit_system, np.array([1.0, -1e100]))


def test_current_density_below_scaled_distance_range(unit_system):
    # rho^3 underflows below rho = 1e-100; the source point itself is a DomainError
    with pytest.raises(RangeError, match="scaled distance 1e-120"):
        current_density_point(unit_system, PointSource(1.0), (0.0, 0.0, 1e-120), 0.0)
    with pytest.raises(DomainError, match="source point"):
        current_density_point(unit_system, PointSource(1.0), (0.0, 0.0, 0.0), 0.0)


def test_gaussian_weight_underflow_raises(rb_system):
    # hbar Omega underflows to 0 before its log is taken
    with pytest.raises(RangeError, match="hbar Omega underflows"):
        total_current_gauss(rb_system, GaussianSource(1e-6, 1e-300), 0.0)


def test_point_density_beyond_subtraction_cap_is_zero(unit_system):
    # a- = 1.2e6 upstream on the axis, beyond airy.X_SCALED_MAX = 2^20:
    # j_z carries e^(-2 s) = e^(-1.7e9), no exponent difference, so it is 0.0;
    # the Green function forms s+ - s- and still raises
    r = (0.0, 0.0, -6e5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert current_density_point(unit_system, PointSource(1.0), r, 0.0) == 0.0
    with pytest.raises(RangeError, match="green_closed: a- must stay below"):
        green_closed(unit_system, r, (0.0, 0.0, 0.0), 0.0)


def test_psi_gauss_near_overflow_guard(rb_system):
    # a wide Rb source: its near-field weight leaves double range at 1 mm
    src = GaussianSource(6e-6, 2 * math.pi * 100.0)
    with pytest.raises(RangeError, match="psi_gauss_near: exponent"):
        psi_gauss_near(rb_system, src, (0.0, 0.0, 1e-3),
                       energy_from_frequency(2.5e3))


# ---------------------------------------------------------------------------
# slicing approximation and sum rule
# ---------------------------------------------------------------------------

def test_slicing_peak_value(rb_system):
    src = GaussianSource(2.8e-6, 2 * math.pi * 105.585)
    alpha = rb_system.beta_f * src.width
    peak = (2 * math.sqrt(math.pi) * rb_system.hbar * src.coupling**2
            * rb_system.beta / alpha)
    assert_allclose(total_current_slicing(rb_system, src, 0.0), peak, rtol=1e-12)


def test_slicing_sum_rule_analytic(rb_system):
    # integral of the Gaussian J_sp over E is exactly 2 pi hbar Omega^2
    src = GaussianSource(1.0e-6, 2 * math.pi * 50.0)
    val, _ = quad(lambda e: total_current_slicing(rb_system, src, e),
                  -1e-29, 1e-29, limit=400)
    assert_allclose(val, 2 * math.pi * rb_system.hbar * src.coupling**2,
                    rtol=1e-6)


def test_slicing_matches_exact_for_wide_source(rb_system):
    src = GaussianSource(1.0e-6, 2 * math.pi * 100.0)
    nus = np.linspace(-8e3, 8e3, 401)
    j = np.array([total_current_gauss(rb_system, src, energy_from_frequency(n))
                  for n in nus])
    jsp = np.array([total_current_slicing(rb_system, src, energy_from_frequency(n))
                    for n in nus])
    assert np.max(np.abs(j - jsp)) <= 0.05 * np.max(j)


def test_sum_rule_gaussian(rb_system):
    src = GaussianSource(0.5e-6, 2 * math.pi * 105.585)
    lhs, rhs = sum_rule_check(rb_system, src)
    assert abs(lhs / rhs - 1.0) <= 0.005
    assert_allclose(rhs, 2 * math.pi * rb_system.hbar * src.coupling**2, rtol=0)


def test_sum_rule_rhs_scalings(rb_system):
    _, rhs1 = sum_rule_check(rb_system, GaussianSource(1e-6, 100.0))
    _, rhs2 = sum_rule_check(rb_system, GaussianSource(1e-6, 200.0))
    _, rhs3 = sum_rule_check(rb_system, GaussianSource(2e-6, 100.0))
    assert_allclose(rhs2, 4.0 * rhs1, rtol=0)   # Omega^2 scaling
    assert rhs3 == rhs1                          # width-independent norm


def test_slicing_coupling_squared_overflow_raises(rb_system):
    with pytest.raises(RangeError, match="Omega = 1e\\+300"):
        total_current_slicing(rb_system, GaussianSource(1e-6, 1e300), 0.0)


@pytest.mark.parametrize("omega,shown", [
    pytest.param(1e300, "1e\\+300", id="overflow"),
    pytest.param(2 * math.pi * 1e-150, "6.28319e-150", id="underflow"),  # 2 pi hbar Omega^2 = 0
])
def test_sum_rule_coupling_squared_overflow_raises(rb_system, omega, shown):
    with pytest.raises(RangeError, match=f"Omega = {shown} rad/s"):
        sum_rule_check(rb_system, GaussianSource(1e-6, omega))


def test_sum_rule_width_beyond_double_range_raises(rb_system):
    with pytest.raises(RangeError, match="alpha = beta F a"):
        sum_rule_check(rb_system, GaussianSource(1e300, 100.0))


def test_hbar_omega_underflow_names_its_caller(rb_system):
    src = GaussianSource(1e-6, 1e-300)          # hbar Omega = 1e-334 underflows to 0
    with pytest.raises(RangeError, match="^equivalent_point_strength: hbar Omega underflows"):
        equivalent_point_strength(rb_system, src)
    with pytest.raises(RangeError, match="^gaussian_scaled: hbar Omega underflows"):
        gaussian_scaled(rb_system, src, 0.0)


def test_sum_rule_nan_current_raises(rb_system, monkeypatch):
    monkeypatch.setattr(airybeam.sources, "total_current_gauss",
                        lambda *args: math.nan)
    with pytest.raises(ConvergenceError, match="integrates to nan"):
        sum_rule_check(rb_system, GaussianSource(1e-6, 100.0))


def test_sum_rule_rejects_point_source(rb_system):
    with pytest.raises(DomainError, match="square-integrable"):
        sum_rule_check(rb_system, PointSource(1.0))


# ---------------------------------------------------------------------------
# J(nu) oscillation structure
# ---------------------------------------------------------------------------

def test_exact_current_asymmetric_for_small_source(rb_system):
    # a = 0.2 um: strong asymmetry about nu = 0 (the slicing Gaussian is even)
    src = GaussianSource(0.2e-6, 2 * math.pi * 100.0)
    nus = np.linspace(100.0, 15e3, 400)
    jp = np.array([total_current_gauss(rb_system, src, energy_from_frequency(n))
                   for n in nus])
    jm = np.array([total_current_gauss(rb_system, src, energy_from_frequency(-n))
                   for n in nus])
    assert np.max(np.abs(jp - jm)) > 0.5 * max(jp.max(), jm.max())


def test_exact_current_oscillates_for_tiny_source(rb_system):
    # multiple local maxima require 1/(4 alpha^2) beyond the second zero of
    # Ai', i.e. a < 0.167 um for Rb under gravity; 0.1 um shows them clearly
    from conftest import count_local_maxima
    src = GaussianSource(0.1e-6, 2 * math.pi * 100.0)
    nus = np.linspace(-25e3, 25e3, 3001)
    j = [total_current_gauss(rb_system, src, energy_from_frequency(n))
         for n in nus]
    assert count_local_maxima(j) >= 2
