"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import dataclasses
import math

import numpy as np

from airybeam.airy import X_MAX, airy_all
from airybeam.cli import main
from airybeam.scaling import make_system
from airybeam.scenarios import (current_transition_scan, lateral_profile, o_minus,
                                rb_atom_laser)
from airybeam.sources import (GaussianSource, PointSource,
                              current_density_gauss, current_density_point,
                              equivalent_point_strength, gaussian_scaled,
                              psi_gauss_far, psi_gauss_quadrature, psi_point,
                              source_amplitude, total_current_gauss,
                              total_current_point)
from airybeam.validation import flux, oracle_agreement, sum_rule

from airy_reference import PANEL
from conftest import count_local_maxima


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _report_checks(name, checks):
    _report(name, all(c.ok for c in checks), "; ".join(map(str, checks)))


def test_oracle_equivalence():
    _report_checks("oracle equivalence (50 pts)", [oracle_agreement(50)])


def test_sum_rule():
    _report_checks("sum rule (a = 0.2/0.5/1.0/2.8 um)", sum_rule(rb_atom_laser()))


def test_point_source_limit(unit_system):
    src = GaussianSource(1e-4, 2.0)          # alpha = 1e-4
    psrc = PointSource(equivalent_point_strength(unit_system, src))
    e, r = 0.7, (0.4, -0.2, 1.1)
    devs = {
        "J": abs(total_current_gauss(unit_system, src, e)
                 / total_current_point(unit_system, psrc, e) - 1.0),
        "j_z": abs(current_density_gauss(unit_system, src, r, e)
                   / current_density_point(unit_system, psrc, r, e) - 1.0),
        "psi_far": abs(psi_gauss_far(unit_system, src, r, e)
                       / psi_point(unit_system, psrc, r, e) - 1.0),
        "psi_quad": abs(psi_gauss_quadrature(unit_system, src, r, e)
                        / psi_point(unit_system, psrc, r, e) - 1.0),
    }
    worst = max(devs.values())
    _report("point-source limit (alpha = 1e-4)", worst <= 1e-6,
            "worst " + ", ".join(f"{k}={v:.2e}" for k, v in devs.items()))


def test_algebraic_identity(unit_system):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(0.5, 5.0)
        f = rng.uniform(0.2, 3.0)
        hb = rng.uniform(0.5, 2.0)
        sys = make_system(m, f, hb)
        alpha = rng.uniform(0.01, 1.5)
        src = GaussianSource(alpha / sys.beta_f, rng.uniform(0.1, 10.0))
        e = rng.uniform(-4.0, 4.0) / (2.0 * sys.beta)
        g = gaussian_scaled(sys, src, e)
        jg = total_current_gauss(sys, src, e)
        jp = total_current_point(sys, PointSource(math.exp(g.log_weight)),
                                 -g.epsilon_tilde / (2.0 * sys.beta))
        worst = max(worst, abs(jg - jp) / jp)
    _report("virtual-source algebraic identity (1000 tuples)", worst <= 1e-12,
            f"worst relative deviation {worst:.3e} (budget 1e-12)")


def test_flux_conservation():
    atom_laser = dataclasses.replace(rb_atom_laser(), width=0.4e-6,
                                     coupling=2 * math.pi * 100.0)
    # the preset's 2.8 um and a wide 50 um condensate (eps~ ~ 2e8)
    wide = [dataclasses.replace(rb_atom_laser(), width=a) for a in (2.8e-6, 50e-6)]
    _report_checks("flux conservation (O- and a = 0.4, 2.8, 50 um, two planes each)",
                   flux(o_minus(), (0.35, 0.514))
                   + flux(atom_laser, (0.7e-3, 1.0e-3))
                   + [c for p in wide for c in flux(p, (0.7e-3, 1.0e-3))])


def test_wigner_law(unit_system):
    src = PointSource(1.0)
    e_max = 100.0 / 2.0                       # eps = -100, far above the
    es = np.linspace(e_max / 10.0, e_max, 150)  # oscillation scale eps ~ -1
    ratios = np.array([total_current_point(unit_system, src, e) / math.sqrt(e)
                       for e in es])
    spread = (ratios.max() - ratios.min()) / ratios.mean()
    _report("Wigner-law limit (top decade)", spread <= 0.02,
            f"J/sqrt(E) spread {spread:.4f} (budget 0.02)")


def test_transition_reproduction(rb_system):
    preset = dataclasses.replace(rb_atom_laser(), coupling=2 * math.pi * 100.0)
    nus = np.linspace(-20e3, 20e3, 1001)
    curves = current_transition_scan(preset, [0.2e-6, 0.4e-6, 1.0e-6, 2.8e-6],
                                     nus)
    ok = True
    notes = []
    areas = [c.area for c in curves]
    area_spread = max(abs(x / y - 1.0) for x in areas for y in areas)
    ok &= area_spread <= 0.01
    notes.append(f"area spread {area_spread:.2e}")
    for c in curves:
        dev_curve = np.abs(c.exact.values - c.slicing.values)
        rel = dev_curve.max() / c.exact.values.max()
        if c.width >= 1.0e-6:
            ok &= rel <= 0.05
            notes.append(f"a={c.width*1e6:g}um dev {rel:.3f} (<=0.05)")
        if c.width <= 0.4e-6:
            n_max = count_local_maxima(dev_curve)
            ok &= rel > 0.20 and n_max >= 2
            notes.append(f"a={c.width*1e6:g}um dev {rel:.2f} (>0.20), "
                         f"{n_max} deviation maxima (>=2)")
    _report("point-to-extended transition", ok, "; ".join(notes))


def test_ring_count_monotonicity(rb_system):
    preset = dataclasses.replace(rb_atom_laser(), coupling=2 * math.pi * 100.0)
    widths = [0.2e-6, 0.4e-6, 0.8e-6, 1.6e-6]
    profiles = [lateral_profile(dataclasses.replace(preset, width=a), 120e-6, 1201)
                for a in widths]
    counts = [count_local_maxima(p.values) for p in profiles]
    ok = all(a >= b for a, b in zip(counts, counts[1:]))
    ok &= counts[2] == 1 and counts[3] == 1
    _report("beam-profile ring-count monotonicity", ok,
            f"maxima per profile {counts} over widths 0.2/0.4/0.8/1.6 um")


def test_special_functions():
    rng = np.random.default_rng(123)
    p = airy_all(rng.uniform(-X_MAX, 8.0, 10_000))
    worst_w = np.max(np.abs(p.ai * p.bi_prime - p.ai_prime * p.bi - 1.0 / math.pi))
    worst_ai = 0.0
    for x, ai, aip, bi, bip in PANEL:
        worst_ai = max(worst_ai, abs(airy_all(x).ai - ai) / max(abs(ai), 1e-300))
    ok = worst_w <= 1e-10 / math.pi and worst_ai <= 1e-10
    _report("special functions", ok,
            f"Wronskian dev {worst_w * math.pi:.2e}/pi (budget 1e-10), "
            f"Ai panel dev {worst_ai:.2e} (budget 1e-10, 100 pts)")


def test_continuity_equation(unit_system):
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
    for radius in (0.6, 1.2, 2.5, 4.0):
        for _ in range(5):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            pts.append(tuple(radius * v))
    worst = 0.0
    for r in pts:
        lap_h, center = laplacian(r, h)
        lap_h2, _ = laplacian(r, h / 2.0)
        lap = (4.0 * lap_h2 - lap_h) / 3.0
        div = hb / m * (center.conjugate() * lap).imag
        rhs = -(2.0 / hb) * (source_amplitude(unit_system, src, r) * center).imag
        scale = max(abs(rhs), abs(div),
                    hb / m * abs(center) * abs(lap) ** 0.5, 1e-30)
        worst = max(worst, abs(div - rhs) / scale)
    _report("continuity equation with source term (20 pts)", worst <= 1e-4,
            f"worst residual {worst:.2e} of local current scale (budget 1e-4)")


def test_cli_determinism(tmp_path):
    csv_args = ["total-current", "--preset", "s-minus", "--n", "64",
                "--emin", "-50ueV", "--emax", "300ueV"]
    img_args = ["detector-image", "--preset", "o-minus", "--n", "96"]
    ok = True
    for args, name in ((csv_args, "scan.csv"), (img_args, "img.pgm")):
        f1 = tmp_path / ("1_" + name)
        f2 = tmp_path / ("2_" + name)
        assert main(args + ["-o", str(f1)]) == 0
        assert main(args + ["-o", str(f2)]) == 0
        ok &= f1.read_bytes() == f2.read_bytes()
        if name.endswith(".pgm"):
            ok &= ((tmp_path / "1_img.pgm.meta.json").read_bytes()
                   == (tmp_path / "2_img.pgm.meta.json").read_bytes())
    _report("CLI determinism", ok, "CSV, PGM and sidecar byte-identical on reruns")
