"""The paper's checks on its own numbers, each written once: the sum rule,
closed form against the time-domain oracle, and flux conservation.  Each
returns ``Check`` records; ``airybeam validate`` prints them and the
acceptance tests assert on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .green import green_closed, green_oracle
from .quadrature import gauss_kronrod
from .scaling import make_system

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


def sum_rule(preset) -> list[Check]:
    """The atom-laser ``preset``'s ``sum_rule_ratio``, per source width."""
    return [_ratio(f"sum-rule a={a_um}um",
                   replace(preset, width=a_um * 1e-6).sum_rule_ratio(), 5e-3)
            for a_um in (0.2, 0.5, 1.0, 2.8)]


def oracle_panel(sys, n: int, seed: int = 20240501) -> tuple[np.ndarray, np.ndarray]:
    """``n`` seeded points (a 3 x n array) and their energies, with
    |zeta - eps| <= 10 and rho in [0.1, 10]: the first ``n`` rows of one draw
    of (rho, u, cos theta, phi) rows with scaled |G| >= 1e-3.  Below that the
    oracle's double-precision quadrature carries no relative information.
    About 47 % of rows pass; ConvergenceError if fewer than ``n`` of 8n + 64 do.
    """
    rho, u, costh, phi = np.random.default_rng(seed).uniform(
        (0.1, -10.0, -1.0, 0.0), (10.0, 10.0, 1.0, 2.0 * math.pi), (8 * n + 64, 4)).T
    rs = rho * np.sqrt(1.0 - costh**2)
    r = np.array([rs * np.cos(phi), rs * np.sin(phi), rho * costh])
    energy = -(r[2] - u) / 2.0
    keep = np.flatnonzero(abs(green_closed(sys, r, _ORIGIN, energy).scaled) >= 1e-3)[:n]
    if keep.size < n:
        raise ConvergenceError(f"oracle_panel: {keep.size} of {len(u)} draws pass, {n} asked")
    return r[:, keep], energy[keep]


def oracle_agreement(n: int, seed: int = 20240501) -> Check:
    """Worst relative gap between closed form and oracle over ``n`` points."""
    sys = make_system(4.0, 1.0, 1.0)      # beta = 1: scaled and SI coincide
    r, energy = oracle_panel(sys, n, seed)
    gc = green_closed(sys, r, _ORIGIN, energy).scaled
    go = [green_oracle(sys, p, _ORIGIN, e).scaled for p, e in zip(r.T, energy)]
    worst = float(np.max(abs(gc - go) / abs(gc), initial=0.0))
    return Check("oracle agreement", worst, 1e-6, worst <= 1e-6, "worst rel {:.3e}")


def flux(preset, planes, name: str = "") -> list[Check]:
    """Flux of j_z through each plane z (m) / J, at the preset's image energy,
    each check labelled with the preset's ``name`` if given; the radial
    integral stops where the (virtual) source's Airy argument
    a- = eps + delta has a-^1.5 = 12^1.5 + max(eps, 0)^1.5, at any eps~."""
    label = f"flux conservation {name}".rstrip()
    sys = preset.system
    energy, _ = preset.plane
    j_total = preset.total_current(energy)
    out = []
    for z in planes:
        eps, zeta = preset.emitter_plane(energy, z)
        d = 12.0 - eps if eps <= 0.0 else (12.0**1.5 + eps**1.5) ** (2.0 / 3.0) - eps
        r_max = math.sqrt(d * (2.0 * zeta + d)) / sys.beta_f
        total, _ = gauss_kronrod(
            lambda R: preset.current_density((R, 0.0, z), energy) * 2.0 * math.pi * R,
            0.0, r_max, limit=2000, epsrel=1e-10)
        out.append(_ratio(f"{label} z={z} m", total / j_total, 1e-3))
    return out
