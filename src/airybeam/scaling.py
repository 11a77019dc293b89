"""Physical constants, unit conversion, and the dimensionless parameter set.

All internal computation in this package runs in the dimensionless variables

    xi = beta*F*x,  nu_y = beta*F*y,  zeta = beta*F*z,
    epsilon = -2*beta*E,  tau = t/(2*hbar*beta),

with beta = (m / (4 hbar^2 F^2))^(1/3).  SI values appear only at the API
boundary; beta*F is the inverse length scale and 2*beta the inverse energy
scale.  Note the sign convention: epsilon < 0 corresponds to positive
physical energy E > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

__all__ = [
    "HBAR", "ELECTRON_MASS", "RB87_MASS", "ELEMENTARY_CHARGE", "G_EARTH",
    "PhysicalSystem", "ScaledPoint", "make_system",
    "energy_from_ev", "energy_from_frequency", "force_from_ev_per_m",
]

# CODATA-2018 values; g rounded to the conventional 9.81 m/s^2
HBAR = 1.054571817e-34            # J s
ELECTRON_MASS = 9.1093837015e-31  # kg
ELEMENTARY_CHARGE = 1.602176634e-19  # C
RB87_MASS = 86.909180531 * 1.66053906660e-27  # kg
G_EARTH = 9.81                    # m/s^2


@dataclass(frozen=True)
class PhysicalSystem:
    """A particle of mass m in a uniform force of magnitude F along +z.

    Owns the scaling constant beta and every SI <-> dimensionless
    conversion.  Immutable; all methods are pure.
    """

    mass: float      # kg
    force: float     # N, magnitude along +z ("downstream" = increasing z)
    hbar: float      # J s

    @property
    def beta(self) -> float:
        return (self.mass / (4.0 * self.hbar**2 * self.force**2)) ** (1.0 / 3.0)

    @property
    def beta_f(self) -> float:
        """Inverse length scale beta*F (1/m)."""
        return self.beta * self.force

    def scale_energy(self, energy):
        """epsilon = -2*beta*E; negative for positive physical energy.

        ``energy`` may be an array; a float gives a NumPy float64.
        """
        return -2.0 * self.beta * np.asarray(energy, dtype=float)

    def unscale_energy(self, eps):
        """The physical energy E (J) of a scaled energy epsilon."""
        return -eps / (2.0 * self.beta)

    def scale_point(self, r) -> "ScaledPoint":
        """Scaled coordinates of r = (x, y, z); components may be arrays."""
        bf = self.beta_f
        return ScaledPoint(*((bf * np.asarray(c, dtype=float))[()] for c in r))


@dataclass(frozen=True)
class ScaledPoint:
    """Dimensionless coordinates (xi, nu_y, zeta).

    The coordinates are floats, or arrays for an array of points.
    """

    xi: float | np.ndarray
    nu_y: float | np.ndarray
    zeta: float | np.ndarray


def make_system(mass: float, force: float, hbar: float = HBAR) -> PhysicalSystem:
    """Build a PhysicalSystem, validating strict positivity of every input.

    RangeError if beta or beta*F is not a finite positive double: F^2
    under- or overflows for forces far outside any laboratory field.
    """
    for name, val in (("mass", mass), ("force", force), ("hbar", hbar)):
        if not (val > 0.0 and math.isfinite(val)):
            raise DomainError(f"make_system: {name} must be positive and finite, got {val}")
    system = PhysicalSystem(mass=float(mass), force=float(force), hbar=float(hbar))
    try:
        scales = (system.beta, system.beta_f)
    except (OverflowError, ZeroDivisionError):
        scales = (math.nan,)
    if not all(0.0 < v < math.inf for v in scales):
        raise RangeError(f"make_system: the scale beta = (m / (4 hbar^2 F^2))^(1/3) "
                         f"leaves double range for m = {mass:g} kg, F = {force:g} N")
    return system


def energy_from_ev(value_ev: float) -> float:
    """Energy in J from a value in eV."""
    return value_ev * ELEMENTARY_CHARGE


def energy_from_frequency(nu_hz: float) -> float:
    """Energy E = 2*pi*hbar*nu of a particle released at detuning nu."""
    return 2.0 * math.pi * HBAR * nu_hz


def force_from_ev_per_m(field_ev_per_m: float) -> float:
    """Electric force magnitude (N) on a unit charge from a field in eV/m."""
    return field_ev_per_m * ELEMENTARY_CHARGE
