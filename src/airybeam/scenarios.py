"""Physics presets and derived observables for the two applications.

* Photodetachment of negative ions in a static electric field: the point
  source model.  Presets carry the published field strengths (S^-:
  F = 2.205e4 eV/m; O^-: F = 423 eV/m with a detector 0.514 m downstream
  and E = 100.5 ueV).
* The gravity-driven atom laser: a Gaussian source of Rb-87 released at a
  detuning-controlled energy E = 2*pi*hbar*nu, observed either as the
  condensate depletion N(T)/N(0) = exp(-J T) or as beam profiles 1 mm
  below the source.

Absolute point-source currents carry the arbitrary |C|^2 normalization;
these presets default it to 1 and expose it as a plain scale factor.

Each preset answers ``plane`` (energy J and plane z m of images and
profiles), ``current_density(r, E)``, ``total_current(E)``, ``scan_window``,
``emitter_plane(E, z)`` and ``sum_rule_ratio()``: each observable below is
one function for both kinds, and hands its grid to the sources in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .output import RasterImage, ScanResult
from .scaling import (ELECTRON_MASS, G_EARTH, RB87_MASS, PhysicalSystem,
                      energy_from_ev, energy_from_frequency, force_from_ev_per_m,
                      make_system)
from .sources import (GaussianSource, PointSource, current_density_gauss,
                      current_density_point, gaussian_scaled, sum_rule_check,
                      total_current_gauss, total_current_point,
                      total_current_slicing)

__all__ = [
    "PhotodetachmentPreset", "AtomLaserPreset", "DepletionCurve",
    "TransitionCurves", "s_minus", "o_minus", "rb_atom_laser", "grid",
    "photodetachment_cross_section", "total_current_scan", "detector_image",
    "detector_half_width", "lateral_profile", "atom_laser_depletion",
    "current_transition_scan",
]

_IMAGE_ROWS = 128   # quadrant rows interpolated per block in detector_image


@dataclass(frozen=True)
class PhotodetachmentPreset:
    """A near-threshold photodetachment setup (point source in an E field)."""

    species: str
    field_ev_per_m: float
    detector_z: float              # m
    energy: float                  # J, default image/profile energy
    scan_min: float                # J
    scan_max: float                # J
    mass: float = ELECTRON_MASS
    strength2: float = 1.0         # |C|^2 overall scale

    def __post_init__(self):
        if not self.field_ev_per_m > 0.0:
            raise DomainError("PhotodetachmentPreset: field must be > 0")
        if not self.detector_z > 0.0:
            raise DomainError("PhotodetachmentPreset: detector distance must be > 0")
        if not (math.isfinite(self.strength2) and self.strength2 > 0.0):
            raise DomainError("PhotodetachmentPreset: strength2 must be finite and > 0")
        if not self.scan_min < self.scan_max:
            raise DomainError("PhotodetachmentPreset: scan_min must be below scan_max")

    @property
    def system(self) -> PhysicalSystem:
        return make_system(self.mass, force_from_ev_per_m(self.field_ev_per_m))

    @property
    def source(self) -> PointSource:
        return PointSource(math.sqrt(self.strength2))

    @property
    def scan_window(self) -> tuple[float, float]:
        return self.scan_min, self.scan_max

    @property
    def plane(self) -> tuple[float, float]:
        return self.energy, self.detector_z

    def current_density(self, r, energy):
        return current_density_point(self.system, self.source, r, energy)

    def total_current(self, energy):
        return total_current_point(self.system, self.source, energy)

    def emitter_plane(self, energy, z):
        return self.system.scale_energy(energy), self.system.beta_f * z

    def sum_rule_ratio(self):
        return None                # the delta source has no sum rule


@dataclass(frozen=True)
class AtomLaserPreset:
    """A continuously outcoupled Bose-Einstein condensate under gravity."""

    width: float                   # condensate width a (m)
    coupling: float                # Omega (rad/s)
    operation_time: float          # T (s)
    detuning_min: float            # Hz
    detuning_max: float            # Hz
    detector_z: float = 1.0e-3     # m below the source, beam-profile plane
    profile_nu: float = 2.5e3      # Hz, beam-profile detuning
    atom_count: float = 1.0        # N(0); fractions reported by default
    mass: float = RB87_MASS
    gravity: float = G_EARTH

    def __post_init__(self):
        for name in ("width", "coupling", "detector_z", "atom_count",
                     "mass", "gravity"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"AtomLaserPreset: {name} must be > 0")
        if self.operation_time < 0.0:
            raise DomainError("AtomLaserPreset: operation_time must be >= 0")
        if not self.detuning_min < self.detuning_max:
            raise DomainError("AtomLaserPreset: detuning_min must be below detuning_max")

    @property
    def system(self) -> PhysicalSystem:
        return make_system(self.mass, self.mass * self.gravity)

    @property
    def source(self) -> GaussianSource:
        return GaussianSource(self.width, self.coupling)

    @property
    def scan_window(self) -> tuple[float, float]:
        return self.detuning_min, self.detuning_max

    @property
    def plane(self) -> tuple[float, float]:
        return energy_from_frequency(self.profile_nu), self.detector_z

    def current_density(self, r, energy):
        return current_density_gauss(self.system, self.source, r, energy)

    def total_current(self, energy):
        return total_current_gauss(self.system, self.source, energy)

    def emitter_plane(self, energy, z):
        g = gaussian_scaled(self.system, self.source, energy, (0.0, 0.0, z))
        return g.epsilon_tilde, g.zeta_tilde      # of the virtual point source

    def sum_rule_ratio(self) -> float:
        """Integral of J from the detuning window outward / 2 pi hbar Omega^2."""
        lhs, rhs = sum_rule_check(self.system, self.source,
                                  tuple(map(energy_from_frequency, self.scan_window)))
        return lhs / rhs


@dataclass(frozen=True)
class DepletionCurve:
    """Remaining condensate fraction N(T)/N(0) = exp(-J T) per detuning."""

    detunings: np.ndarray          # Hz
    fractions: np.ndarray          # in (0, 1]
    currents: np.ndarray           # J (1/s) behind each fraction
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TransitionCurves:
    """Exact and slicing total-current curves for one source width."""

    width: float
    exact: ScanResult
    slicing: ScanResult
    area: float                    # full energy integral of the exact curve
    rhs: float                     # its sum-rule value 2 pi hbar Omega^2


def s_minus() -> PhotodetachmentPreset:
    """S^- photodetachment at F = 2.205e4 eV/m (total-current staircase)."""
    return PhotodetachmentPreset(
        species="S-",
        field_ev_per_m=2.205e4,
        detector_z=0.514,
        energy=energy_from_ev(100e-6),
        scan_min=energy_from_ev(-50e-6),
        scan_max=energy_from_ev(300e-6),
    )


def o_minus() -> PhotodetachmentPreset:
    """O^- photodetachment at F = 423 eV/m (detector ring pattern)."""
    return PhotodetachmentPreset(
        species="O-",
        field_ev_per_m=423.0,
        detector_z=0.514,
        energy=energy_from_ev(100.5e-6),
        scan_min=energy_from_ev(-20e-6),
        scan_max=energy_from_ev(300e-6),
    )


def rb_atom_laser() -> AtomLaserPreset:
    """Rb-87 atom laser: a = 2.8 um, Omega = 2*pi*105.585 Hz, T = 20 ms."""
    return AtomLaserPreset(
        width=2.8e-6,
        coupling=2.0 * math.pi * 105.585,
        operation_time=20e-3,
        detuning_min=-15e3,
        detuning_max=15e3,
    )


def grid(lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` >= 2 evenly spaced points from ``lo`` to ``hi`` > ``lo``."""
    if n < 2:
        raise DomainError(f"grid needs at least 2 points, got {n}")
    if not lo < hi:
        raise DomainError(f"grid minimum {lo} must be below maximum {hi}")
    return np.linspace(lo, hi, n)


def total_current_scan(preset, abscissa) -> ScanResult:
    """J over the preset's scan axis: over energies (J), |C|^2-scaled, for
    photodetachment, or over detunings (Hz) for the atom laser."""
    xs = np.asarray(abscissa, dtype=float)
    sys = preset.system
    if isinstance(preset, PhotodetachmentPreset):
        meta = {"species": preset.species, "field_eV_per_m": preset.field_ev_per_m,
                "mass_kg": preset.mass, "strength2": preset.strength2, "beta": sys.beta}
        return ScanResult(xs, preset.total_current(xs), "energy_J", "current_per_s", meta)
    meta = {"width_m": preset.width, "coupling_rad_per_s": preset.coupling,
            "beta": sys.beta, "alpha": sys.beta_f * preset.width}
    return ScanResult(xs, preset.total_current(energy_from_frequency(xs)),
                      "nu_Hz", "current_per_s", meta)


photodetachment_cross_section = total_current_scan   # its former name; perfbench reads it


def detector_half_width(preset, half_width: float | None) -> float:
    """``half_width`` (m), or for None just beyond the outermost classically
    allowed radius, and for a Gaussian source at least sqrt(15 zeta~)/alpha,
    where 4 alpha^2 delta = 30; DomainError unless it is finite and > 0."""
    if half_width is None:
        (energy, z), sys = preset.plane, preset.system
        half_width = 1.15 * _classical_radius(sys, energy, z) + 2.0 / sys.beta_f
        if isinstance(preset, AtomLaserPreset):
            g = gaussian_scaled(sys, preset.source, energy, (0.0, 0.0, z))
            half_width = max(half_width, math.sqrt(15.0 * g.zeta_tilde) / g.alpha / sys.beta_f)
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise DomainError(f"half_width must be finite and > 0, got {half_width}")
    return half_width


def detector_image(preset, half_width: float | None = None,
                   resolution: int = 512) -> RasterImage:
    """Square raster of j_z on the preset's detector plane (``preset.plane``).

    Rotational symmetry about the field axis is exact, so j_z is computed
    radially, on a dense 1-D grid, and interpolated at each pixel's radius.
    The pixel centers are exact negatives of each other across the middle,
    so the raster is exactly symmetric under both flips, and its upper-left
    quadrant under transposition: the quadrant's part from the diagonal on
    is interpolated, in blocks of rows, and the image holds that quadrant
    (``RasterImage.from_quadrant``).  ``half_width`` defaults to that of
    ``detector_half_width``.
    """
    if resolution <= 0:
        raise DomainError(f"detector_image: resolution must be positive, got {resolution}")
    energy, z = preset.plane
    sys = preset.system
    half_width = detector_half_width(preset, half_width)
    n_rad = max(4 * resolution, 1024)
    r_grid = np.linspace(0.0, half_width * math.sqrt(2.0) * 1.0001, n_rad)
    # clip FP noise at ring nulls
    j_rad = np.clip(preset.current_density((r_grid, 0.0, z), energy), 0.0, None)
    centers = (np.arange(resolution) - (resolution - 1) / 2.0) * (
        2.0 * half_width / resolution
    )
    # centers[n-1-i] == -centers[i] exactly (a half-integer offset times
    # one step) and hypot ignores signs: the upper-left h x h quadrant, the
    # middle row and column included for odd n, is the whole image.  As
    # hypot(a, b) == hypot(b, a), each block of rows is interpolated from the
    # diagonal on, and its part right of the block is copied below it, transposed
    c = centers[:(resolution + 1) // 2]
    quad = np.empty((len(c), len(c)))
    for i in range(0, len(c), _IMAGE_ROWS):
        k = i + _IMAGE_ROWS
        quad[i:k, i:] = np.interp(np.hypot(c[i:k, None], c[None, i:]), r_grid, j_rad)
        quad[k:, i:k] = quad[i:k, k:].T
    meta = {
        "energy_J": energy,
        "z_m": z,
        "half_width_m": half_width,
        "resolution": resolution,
        "beta": sys.beta,
    }
    return RasterImage.from_quadrant(quad, resolution, half_width, meta)


def lateral_profile(preset, half_width: float | None, n: int) -> ScanResult:
    """j_z(x, 0, z) on ``n`` points across the preset's detector plane, x in
    [-half_width, half_width]; None is the ``detector_image`` default."""
    energy, z = preset.plane
    sys = preset.system
    half_width = detector_half_width(preset, half_width)
    xs = grid(-half_width, half_width, n)
    if isinstance(preset, AtomLaserPreset):
        g = gaussian_scaled(sys, preset.source, energy)
        meta = {"width_m": preset.width, "nu_Hz": preset.profile_nu,
                "alpha": g.alpha, "epsilon_tilde": g.epsilon_tilde}
    else:
        meta = {"energy_J": energy, "epsilon": sys.scale_energy(energy),
                "zeta": sys.beta_f * z}
    meta.update(z_m=z, beta=sys.beta, half_width_m=half_width)
    return ScanResult(xs, preset.current_density((xs, 0.0, z), energy),
                      "x_m", "j_z", meta)


def _classical_radius(sys: PhysicalSystem, energy: float, z: float) -> float:
    """Outer radius of classically allowed arrivals, 2 sqrt(E(E+Fz))/F."""
    reach = energy * (energy + sys.force * z)
    if reach <= 0.0:
        return 0.0
    return 2.0 * math.sqrt(reach) / sys.force


def atom_laser_depletion(preset: AtomLaserPreset, detunings) -> DepletionCurve:
    """Remaining fraction exp(-J(2 pi hbar nu) T) per detuning."""
    detunings = np.asarray(detunings, dtype=float)
    j = preset.total_current(energy_from_frequency(detunings))
    frac = np.exp(-j * preset.operation_time)
    meta = {"width_m": preset.width, "coupling_rad_per_s": preset.coupling,
            "beta": preset.system.beta, "alpha": preset.system.beta_f * preset.width,
            "operation_time_s": preset.operation_time, "atom_count": preset.atom_count}
    return DepletionCurve(detunings, frac, j, meta=meta)


def current_transition_scan(
    preset: AtomLaserPreset, widths, detunings
) -> list[TransitionCurves]:
    """Exact vs slicing J(nu) per width, with the full-integral area of each.

    The areas realize the sum rule: they are width-independent (equal to
    2 pi hbar Omega^2) even where the curve shapes differ completely.
    """
    detunings = np.asarray(detunings, dtype=float)
    energies = energy_from_frequency(detunings)
    out = []
    for a in widths:
        p = replace(preset, width=float(a))
        sys = p.system
        src = p.source
        j = total_current_gauss(sys, src, energies)
        jsp = total_current_slicing(sys, src, energies)
        area, rhs = sum_rule_check(sys, src, (energies.min(), energies.max()))
        meta = {"width_m": float(a), "coupling_rad_per_s": preset.coupling}
        out.append(TransitionCurves(
            width=float(a),
            exact=ScanResult(detunings, j, "nu_Hz", "current_per_s", meta),
            slicing=ScanResult(detunings, jsp, "nu_Hz", "current_per_s",
                               dict(meta, model="slicing")),
            area=area, rhs=rhs,
        ))
    return out
