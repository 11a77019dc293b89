"""The paper's checks on its own numbers, each written once: the sum rule,
closed form against the time-domain oracle, and flux conservation.  Each
returns ``Check`` records; ``airybeam validate`` prints them and the
acceptance tests assert on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .green import green_closed, green_oracle
from .quadrature import gauss_kronrod
from .scaling import energy_from_frequency, make_system
from .scenarios import AtomLaserPreset, detector_plane, radial_density
from .sources import (GaussianSource, gaussian_scaled, sum_rule_check,
                      total_current_gauss, total_current_point)

_ORIGIN = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Check:
    """One invariant at one input: ``value`` within ``budget`` or not."""

    name: str
    value: float
    budget: float
    ok: bool
    shown: str = "ratio = {:.8f}"       # how ``value`` is printed

    def __str__(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}: {self.shown.format(self.value)}"


def _ratio(name: str, ratio: float, budget: float) -> Check:
    return Check(name, ratio, budget, abs(ratio - 1.0) <= budget)


def sum_rule(preset: AtomLaserPreset) -> list[Check]:
    """Integral of J over the detuning window / 2 pi hbar Omega^2, per width."""
    sys = preset.system
    lo, hi = sorted(energy_from_frequency(nu)
                    for nu in (preset.detuning_min, preset.detuning_max))
    out = []
    for a_um in (0.2, 0.5, 1.0, 2.8):
        src = GaussianSource(a_um * 1e-6, preset.coupling)
        lhs, rhs = sum_rule_check(sys, src, (lo, hi))
        out.append(_ratio(f"sum-rule a={a_um}um", lhs / rhs, 5e-3))
    return out


def oracle_panel(sys, n: int, seed: int = 20240501) -> list[tuple]:
    """``n`` seeded (r, E) points with |zeta - eps| <= 10, rho in [0.1, 10].

    Points with scaled |G| below 1e-3 are redrawn: there the oracle's
    double-precision quadrature carries no relative information.
    """
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        rho = rng.uniform(0.1, 10.0)
        u = rng.uniform(-10.0, 10.0)
        costh = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        sth = math.sqrt(1.0 - costh**2)
        r = (rho * sth * math.cos(phi), rho * sth * math.sin(phi), rho * costh)
        energy = -(r[2] - u) / 2.0
        if abs(green_closed(sys, r, _ORIGIN, energy).scaled) >= 1e-3:
            pts.append((r, energy))
    return pts


def oracle_agreement(n: int, seed: int = 20240501) -> Check:
    """Worst relative gap between closed form and oracle over ``n`` points."""
    sys = make_system(4.0, 1.0, 1.0)      # beta = 1: scaled and SI coincide
    worst = 0.0
    for r, energy in oracle_panel(sys, n, seed):
        gc = green_closed(sys, r, _ORIGIN, energy).scaled
        go = green_oracle(sys, r, _ORIGIN, energy).scaled
        worst = max(worst, abs(gc - go) / abs(gc))
    return Check("oracle agreement", worst, 1e-6, worst <= 1e-6, "worst rel {:.3e}")


def flux(preset, planes) -> list[Check]:
    """Flux of j_z through each plane z (m) / J, at the preset's image energy;
    the radial integral stops where the (virtual) source's Airy argument is 12."""
    sys = preset.system
    src = preset.source
    energy, _ = detector_plane(preset)
    gauss = isinstance(preset, AtomLaserPreset)
    j_total = (total_current_gauss if gauss else total_current_point)(sys, src, energy)
    out = []
    for z in planes:
        if gauss:
            g = gaussian_scaled(sys, src, energy, (0.0, 0.0, z))
            eps, zeta = g.epsilon_tilde, g.zeta_tilde
        else:
            eps, zeta = sys.scale_energy(energy), sys.beta_f * z
        r_max = math.sqrt((12.0 - eps + zeta) ** 2 - zeta**2) / sys.beta_f
        _, j_of_r = radial_density(preset, energy, z)
        total, _ = gauss_kronrod(lambda R: j_of_r(R) * 2.0 * math.pi * R,
                                 0.0, r_max, limit=2000, epsrel=1e-10)
        out.append(_ratio(f"flux conservation z={z} m", total / j_total, 1e-3))
    return out
