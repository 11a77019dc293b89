"""Matter waves emitted by localized quantum sources into a uniform force field.

Closed Airy-form Green functions, point and Gaussian source currents, sum
rules, and the photodetachment / atom-laser observables built on them.

The public names below are imported from their modules on first access
(PEP 562), so ``import airybeam`` alone, and ``airybeam --version``, load
no NumPy.
"""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {
    "airy": ("ComplexAiryPair", "airy_all"),
    "errors": ("ConvergenceError", "DomainError", "RangeError"),
    "green": ("GreenValue", "green_closed", "green_oracle"),
    "output": ("RasterImage", "ScanResult", "write_csv", "write_json", "write_pgm"),
    "scaling": ("ELECTRON_MASS", "G_EARTH", "HBAR", "RB87_MASS", "PhysicalSystem",
                "energy_from_ev", "energy_from_frequency", "force_from_ev_per_m",
                "make_system"),
    "scenarios": ("AtomLaserPreset", "DepletionCurve", "PhotodetachmentPreset",
                  "TransitionCurves", "atom_laser_depletion", "current_transition_scan",
                  "detector_half_width", "detector_image", "grid", "lateral_profile",
                  "o_minus", "photodetachment_cross_section", "rb_atom_laser",
                  "s_minus", "total_current_scan"),
    "sources": ("GaussianScaled", "GaussianSource", "PointSource", "SourceModel",
                "current_density_gauss", "current_density_point",
                "equivalent_point_strength", "gaussian_scaled", "psi_gauss_far",
                "psi_gauss_near", "psi_gauss_quadrature", "psi_point",
                "sum_rule_check", "total_current_gauss", "total_current_point",
                "total_current_slicing", "virtual_source_shift"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value              # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
