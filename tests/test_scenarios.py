import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from airybeam.errors import DomainError
from airybeam.scaling import (HBAR, energy_from_ev, energy_from_frequency)
from airybeam.scenarios import (atom_laser_depletion,
                                current_transition_scan, detector_image,
                                lateral_profile, o_minus,
                                photodetachment_cross_section, rb_atom_laser,
                                s_minus, total_current_scan)
from airybeam.sources import (current_density_gauss, current_density_point,
                              gaussian_scaled, sum_rule_check,
                              total_current_gauss, total_current_point)
from airybeam.validation import flux

from conftest import count_local_maxima


def ballistic_envelope_radius(sys, energy, z, n=40001):
    """Independent classical oracle: the widest ballistic arrival radius.

    Emission at speed sqrt(2E/m) in every direction, uniform acceleration
    F/m over a drop z; the lateral reach is maximized over emission angle
    numerically (no closed form used).
    """
    v0 = math.sqrt(2.0 * energy / sys.mass)
    acc = sys.force / sys.mass
    th = np.linspace(0.0, math.pi, n)
    vz = v0 * np.cos(th)
    vp = v0 * np.sin(th)
    t = (-vz + np.sqrt(vz**2 + 2.0 * acc * z)) / acc
    return float(np.max(vp * t))


# ---------------------------------------------------------------------------
# photodetachment
# ---------------------------------------------------------------------------

def test_staircase_slope_oscillations():
    # dJ/dE >= 0 with plateaus: its derivative alternates sign repeatedly
    preset = s_minus()
    energies = np.linspace(energy_from_ev(-50e-6), energy_from_ev(1.5e-3), 1200)
    scan = photodetachment_cross_section(preset, energies)
    slope = np.gradient(scan.values, scan.abscissa)
    assert np.all(slope >= -1e-9 * slope.max())
    curvature_sign = np.sign(np.gradient(slope, scan.abscissa))
    flips = int(np.sum(np.diff(curvature_sign) != 0))
    assert flips >= 3


def test_below_threshold_tunneling_tail():
    # scaled depth eps = -2 beta E reaches ~6 at -1.6 meV for the S- field
    preset = s_minus()
    energies = np.linspace(energy_from_ev(-1.6e-3), energy_from_ev(-0.25e-3), 40)
    scan = photodetachment_cross_section(preset, energies)
    assert np.all(scan.values > 0.0)
    assert scan.values[0] < 1e-3 * scan.values[-1]   # exponentially small


def test_strength_rescaling_is_quadratic():
    import dataclasses
    preset = s_minus()
    energies = np.linspace(energy_from_ev(10e-6), energy_from_ev(200e-6), 20)
    base = photodetachment_cross_section(preset, energies)
    scaled = photodetachment_cross_section(
        dataclasses.replace(preset, strength2=9.0), energies)
    assert_allclose(scaled.values, 9.0 * base.values, rtol=1e-12)


# ---------------------------------------------------------------------------
# detector images
# ---------------------------------------------------------------------------

def test_detector_image_rings_inside_classical_envelope():
    preset = o_minus()
    sys = preset.system
    img = detector_image(preset, resolution=256)
    assert np.all(img.pixels >= 0.0)
    row = img.pixels[img.pixels.shape[0] // 2]
    xs = (np.arange(row.size) - (row.size - 1) / 2) * (2 * img.half_width / row.size)
    interior = (row[1:-1] > row[:-2]) & (row[1:-1] > row[2:])
    ring_radii = np.abs(xs[1:-1][interior])
    assert ring_radii.size >= 3, "expected a multi-ring pattern"
    r_cl = ballistic_envelope_radius(sys, preset.energy, preset.detector_z)
    # outermost bright ring inside the envelope, within one fringe width
    # (the lateral distance over which the Airy argument grows by one)
    eps = -2.0 * sys.beta * preset.energy
    zeta = sys.beta_f * preset.detector_z

    def radius_at_airy_arg(am):
        return math.sqrt((am - eps + zeta) ** 2 - zeta**2) / sys.beta_f

    fringe = radius_at_airy_arg(1.0) - radius_at_airy_arg(0.0)
    assert ring_radii.max() <= r_cl + fringe


def test_detector_image_rotational_symmetry():
    img = detector_image(o_minus(), resolution=64)
    assert_allclose(img.pixels, img.pixels.T, rtol=0, atol=0)
    assert_allclose(img.pixels, img.pixels[::-1, :], rtol=0, atol=0)


@pytest.mark.parametrize("make", [o_minus, rb_atom_laser, s_minus],
                         ids=["o-minus", "rb-atom-laser", "s-minus"])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 257, 333, 1024])
def test_detector_image_mirror_equals_direct_build(make, n):
    # the mirrored quadrant against interpolation at all n^2 pixel centres
    # on the same radial grid, bit for bit; from n = 257 on, the quadrant
    # spans several row blocks, each copied transposed below the diagonal
    preset = make()
    img = detector_image(preset, resolution=n)
    energy, z = preset.plane
    half_width = img.half_width
    r_grid = np.linspace(0.0, half_width * math.sqrt(2.0) * 1.0001, max(4 * n, 1024))
    j_rad = np.clip(preset.current_density((r_grid, 0.0, z), energy), 0.0, None)
    c = (np.arange(n) - (n - 1) / 2.0) * (2.0 * half_width / n)
    direct = np.interp(np.hypot(c[:, None], c[None, :]), r_grid, j_rad)
    assert img.pixels.shape == (n, n)
    assert np.array_equal(img.pixels.view(np.uint64), direct.view(np.uint64))


def test_detector_image_deep_tunneling_single_spot():
    img = detector_image(replace(o_minus(), energy=energy_from_ev(-120e-6)),
                         half_width=3e-4, resolution=128)
    row = img.pixels[64]
    assert count_local_maxima(row) <= 1
    assert abs(int(row.argmax()) - 63.5) < 1.1   # central spot


def test_detector_image_resolution_consistency():
    preset = o_minus()
    coarse = detector_image(preset, resolution=128)
    fine = detector_image(preset, resolution=256)

    def ring_radii(img):
        row = img.pixels[img.pixels.shape[0] // 2]
        n = row.size
        xs = (np.arange(n) - (n - 1) / 2) * (2 * img.half_width / n)
        keep = (row[1:-1] > row[:-2]) & (row[1:-1] > row[2:])
        return np.sort(np.abs(xs[1:-1][keep]))

    coarse_pix = 2 * coarse.half_width / 128
    rc = ring_radii(coarse)
    rf = ring_radii(fine)
    # every coarse ring has a fine counterpart within one coarse pixel
    for r in rc:
        assert np.min(np.abs(rf - r)) <= coarse_pix


def test_detector_image_validates_resolution():
    with pytest.raises(DomainError):
        detector_image(o_minus(), resolution=0)


# ---------------------------------------------------------------------------
# atom laser
# ---------------------------------------------------------------------------

def test_depletion_basic_properties():
    preset = rb_atom_laser()
    nus = np.linspace(-10e3, 10e3, 201)
    curve = atom_laser_depletion(preset, nus)
    assert np.all(curve.fractions > 0.0) and np.all(curve.fractions <= 1.0)
    # single smooth dip located at the current peak
    imin = int(np.argmin(curve.fractions))
    j = [total_current_gauss(preset.system, preset.source,
                             energy_from_frequency(nu)) for nu in nus]
    assert imin == int(np.argmax(j))
    assert count_local_maxima(-curve.fractions) == 1


def test_depletion_zero_time_is_unity():
    import dataclasses
    preset = dataclasses.replace(rb_atom_laser(), operation_time=0.0)
    curve = atom_laser_depletion(preset, np.linspace(-5e3, 5e3, 21))
    assert np.all(curve.fractions == 1.0)


def test_depletion_log_linear_in_time():
    import dataclasses
    preset = rb_atom_laser()
    double = dataclasses.replace(preset, operation_time=2 * preset.operation_time)
    nus = np.linspace(-8e3, 8e3, 41)
    f1 = atom_laser_depletion(preset, nus).fractions
    f2 = atom_laser_depletion(double, nus).fractions
    assert_allclose(f2, f1**2, rtol=1e-12)


def test_depletion_dip_width_matches_slicing():
    # 1/e full width of the exact J(nu) against the slicing Gaussian's
    # 4 alpha (in eps), within 10% for the wide a = 2.8 um condensate
    preset = rb_atom_laser()
    sys = preset.system
    src = preset.source
    alpha = sys.beta_f * preset.width

    def j_nu(nu):
        return total_current_gauss(sys, src, energy_from_frequency(nu))

    nus = np.linspace(-6e3, 6e3, 1201)
    jv = np.array([j_nu(nu) for nu in nus])
    pk = int(np.argmax(jv))
    from scipy.optimize import brentq
    lo = brentq(lambda nu: j_nu(nu) - jv[pk] / math.e, nus[0], nus[pk])
    hi = brentq(lambda nu: j_nu(nu) - jv[pk] / math.e, nus[pk], nus[-1])
    width_slicing = 4.0 * alpha / (4.0 * math.pi * sys.beta * HBAR)
    assert abs((hi - lo) / width_slicing - 1.0) <= 0.10


def test_preset_validation():
    import dataclasses
    with pytest.raises(DomainError):
        dataclasses.replace(rb_atom_laser(), width=-1e-6)
    with pytest.raises(DomainError):
        dataclasses.replace(rb_atom_laser(), operation_time=-1.0)


# ---------------------------------------------------------------------------
# beam profiles and the point-to-extended transition
# ---------------------------------------------------------------------------

def test_beam_profile_ring_counts():
    preset = rb_atom_laser()
    import dataclasses
    preset = dataclasses.replace(preset, coupling=2 * math.pi * 100.0)
    profiles = [lateral_profile(dataclasses.replace(preset, width=a), 120e-6, 1201)
                for a in [0.2e-6, 0.4e-6, 0.8e-6, 1.6e-6]]
    counts = [count_local_maxima(p.values) for p in profiles]
    assert counts[0] >= 2 and counts[1] >= 2
    assert counts[2] == 1 and counts[3] == 1
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_beam_profiles_even_in_lateral_coordinate():
    preset = rb_atom_laser()
    profile = lateral_profile(replace(preset, width=0.4e-6), 120e-6, 401)
    assert_allclose(profile.values, profile.values[::-1], rtol=1e-9)


@pytest.mark.parametrize("width", [13.7e-6, 20e-6, 50e-6])
def test_default_profile_covers_wide_beam(width):
    # past about 14 um the beam is wider than the classical radius the
    # default half-width was built on (79.9 um at 2.5 kHz); the Gaussian
    # bound, where 4 alpha^2 delta = 30, leaves the edges at e^-30 of the peak
    profile = lateral_profile(replace(rb_atom_laser(), width=width), None, 201)
    edge = max(profile.values[0], profile.values[-1])
    assert edge <= 1e-6 * profile.values.max()


def test_beam_profile_revolved_flux():
    # revolving a profile recovers the total current
    import dataclasses
    preset = dataclasses.replace(rb_atom_laser(), width=0.4e-6,
                                 coupling=2 * math.pi * 100.0)
    (check,) = flux(preset, [preset.detector_z])
    assert check.ok, check


def test_transition_scan_structure():
    import dataclasses
    preset = dataclasses.replace(rb_atom_laser(), coupling=2 * math.pi * 100.0)
    nus = np.linspace(-20e3, 20e3, 801)
    curves = current_transition_scan(preset, [0.2e-6, 0.4e-6, 1.0e-6, 2.8e-6], nus)
    rhs = 2 * math.pi * HBAR * preset.coupling**2
    assert [c.rhs for c in curves] == [rhs] * len(curves)
    areas = [c.area for c in curves]
    # equal areas across widths (sum rule), pairwise within 1%
    for x in areas:
        for y in areas:
            assert abs(x / y - 1.0) <= 0.01
        assert abs(x / rhs - 1.0) <= 0.005
    # slicing quality: fails completely for narrow sources, excellent wide
    for c in curves:
        dev = np.max(np.abs(c.exact.values - c.slicing.values))
        peak = np.max(c.exact.values)
        if c.width <= 0.4e-6:
            assert dev > 0.20 * peak
        if c.width >= 1.0e-6:
            assert dev <= 0.05 * peak


@pytest.mark.parametrize("make, lo, hi", [
    (s_minus, "scan_min", "scan_max"),
    (o_minus, "scan_min", "scan_max"),
    (rb_atom_laser, "detuning_min", "detuning_max"),
])
def test_preset_rejects_empty_scan_window(make, lo, hi):
    preset = make()
    for value in (getattr(preset, hi), getattr(preset, hi) * 2.0):
        with pytest.raises(DomainError, match=f"{lo} must be below {hi}"):
            replace(preset, **{lo: value})


def test_presets_answer_for_their_source_model():
    # the plane, j_z and J of each preset are those of its source model
    for preset, j_z, j_total in ((o_minus(), current_density_point, total_current_point),
                                 (rb_atom_laser(), current_density_gauss,
                                  total_current_gauss)):
        energy, z = preset.plane
        xs = np.linspace(-1e-5, 1e-5, 7)
        assert np.array_equal(preset.current_density((xs, 0.0, z), energy),
                              j_z(preset.system, preset.source, (xs, 0.0, z), energy))
        assert preset.total_current(energy) == j_total(preset.system, preset.source, energy)
    assert rb_atom_laser().plane == (energy_from_frequency(2.5e3), 1e-3)
    assert o_minus().plane == (energy_from_ev(100.5e-6), 0.514)


def test_point_presets_have_no_sum_rule():
    assert s_minus().sum_rule_ratio() is None
    assert o_minus().sum_rule_ratio() is None


def test_atom_laser_sum_rule_ratio_is_sum_rule_check_over_its_window():
    # the detuning window (Hz) mapped to energies (J), each end as E = 2 pi hbar nu
    preset = rb_atom_laser()
    lo, hi = preset.scan_window
    lhs, rhs = sum_rule_check(preset.system, preset.source,
                              (energy_from_frequency(lo), energy_from_frequency(hi)))
    assert preset.sum_rule_ratio() == lhs / rhs


@pytest.mark.parametrize("make", [s_minus, o_minus])
def test_point_emitter_plane_is_the_scaled_source(make):
    preset = make()
    sys = preset.system
    for energy in (preset.energy, preset.scan_min, preset.scan_max):
        for z in (0.35, preset.detector_z):
            assert preset.emitter_plane(energy, z) == (sys.scale_energy(energy),
                                                       sys.beta_f * z)


def test_gaussian_emitter_plane_is_the_virtual_point_source():
    preset = rb_atom_laser()
    sys, src = preset.system, preset.source
    for nu in (-15e3, 0.0, preset.profile_nu):
        energy = energy_from_frequency(nu)
        for z in (0.7e-3, preset.detector_z):
            g = gaussian_scaled(sys, src, energy, (0.0, 0.0, z))
            assert preset.emitter_plane(energy, z) == (g.epsilon_tilde, g.zeta_tilde)


def test_photodetachment_cross_section_is_total_current_scan():
    # the former point-source scan keeps its exported name
    assert photodetachment_cross_section is total_current_scan
