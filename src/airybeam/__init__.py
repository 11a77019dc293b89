"""Matter waves emitted by localized quantum sources into a uniform force field.

Closed Airy-form Green functions, point and Gaussian source currents, sum
rules, and the photodetachment / atom-laser observables built on them.
"""

__version__ = "0.1.0"

from .airy import ComplexAiryPair, airy_all
from .errors import (ConvergenceError, DomainError, RangeError,
                     UnsupportedModelError)
from .green import GreenValue, green_closed, green_oracle
from .output import RasterImage, ScanResult, write_csv, write_json, write_pgm
from .scaling import (ELECTRON_MASS, G_EARTH, HBAR, RB87_MASS, PhysicalSystem,
                      ScaledPoint, energy_from_ev, energy_from_frequency,
                      force_from_ev_per_m, make_system)
from .scenarios import (AtomLaserPreset, DepletionCurve, PhotodetachmentPreset,
                        TransitionCurves, atom_laser_depletion,
                        beam_profile_family, current_transition_scan,
                        detector_half_width, detector_image, grid,
                        lateral_profile, o_minus, photodetachment_cross_section,
                        rb_atom_laser, s_minus, total_current_scan)
from .sources import (GaussianScaled, GaussianSource, PointSource, SourceModel,
                      current_density_gauss, current_density_point,
                      equivalent_point_strength, gaussian_scaled, psi_gauss_far,
                      psi_gauss_near, psi_gauss_quadrature, psi_point,
                      sum_rule_check, total_current_gauss, total_current_point,
                      total_current_slicing, virtual_source_shift)
