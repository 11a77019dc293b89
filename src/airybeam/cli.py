"""Command-line front end.

Subcommands: total-current, density-profile, detector-image, atom-laser,
transition, validate.  Deterministic CSV/PGM outputs; every dimensioned
flag takes a strict unit suffix (``300ueV``, ``2.5kHz``, ``0.4um``,
``20ms``, ``423eV/m``) -- bare numbers are rejected so nobody ever guesses
a unit.  Every flag that tunes a preset is declared once, in
``_PRESET_FLAGS``.  A JSON config file supplies flag values under the flag
names; they are parsed as flags, before the command line, so explicit flags
win.  An ``AIRYBEAM_OUTDIR`` environment variable sets the default output
directory.

Start-up is most of a small command, so the module imports little: the
package's public names (``airybeam.__all__``) are bound only after a command
that computes has been parsed, and what one path alone needs
(``dataclasses``, ``json``, the scaling helpers an energy flag converts
with) is imported in that path.  Run as the process's program (``main()``
without ``argv``), the CLI keeps the garbage collector off while it imports
and freezes what the imports left: those objects live until the process
exits, so no collection, automatic or at the interpreter's exit, walks
them.  A call with ``argv`` leaves ``gc`` alone.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import re
import sys as _sys

from . import __version__
from .errors import ConvergenceError, DomainError, RangeError

# The subcommands call the package's public names as module globals.  They
# are bound only once a command that computes has been parsed
# (``_bind_layers``), so ``--version``, ``--help`` and usage errors never
# import NumPy.  Instrumentation (perfbench/tracing.py) wraps some of these
# globals by name, before or after the first ``main``: a name already bound
# is kept, and a name read before binding goes through ``__getattr__``.
def _bind_layers() -> None:
    """Bind each name in ``airybeam.__all__`` not yet bound here."""
    import airybeam
    bound = globals()
    for name in airybeam.__all__:
        bound.setdefault(name, getattr(airybeam, name))


def __getattr__(name):
    import airybeam
    if name not in airybeam.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_layers()
    return globals()[name]


# a number and its unit; an exponent (the "e-5" of "1e-5") is not a unit
_UNIT_RE = re.compile(r"^\s*([+-]?[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*"
                      r"(?![eE][+-]?[0-9])([^\s0-9][^\s]*)\s*$")

_ENERGY = {"neV": 1e-9, "ueV": 1e-6, "meV": 1e-3, "eV": 1.0}
_LENGTH = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}
_TIME = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_FREQ = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6}


def _finite_float(text: str) -> float:
    """A bare number flag; ``inf``, ``nan`` and overflowing literals exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value {text!r} is not finite")
    return value


def _si_value(value: float, unit: str, kind: str) -> float | None:
    """``value`` in ``unit`` converted to SI; None for a unit ``kind`` lacks."""
    if kind == "energy":
        from .scaling import energy_from_ev, energy_from_frequency
        if unit == "J":
            return value
        if unit in _ENERGY:
            return energy_from_ev(value * _ENERGY[unit])
        if unit in _FREQ:                     # E = 2*pi*hbar*nu
            return energy_from_frequency(value * _FREQ[unit])
    elif kind == "length" and unit in _LENGTH:
        return value * _LENGTH[unit]
    elif kind == "time" and unit in _TIME:
        return value * _TIME[unit]
    elif kind == "frequency" and unit in _FREQ:
        return value * _FREQ[unit]
    elif kind == "field" and unit in ("eV/m", "V/m"):
        return value                          # eV/m per unit charge; presets convert
    return None


def _parse_with_units(text: str, kind: str) -> float:
    m = _UNIT_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"{kind} value {text!r} needs a unit suffix (bare numbers are rejected)"
        )
    value = _si_value(float(m.group(1)), m.group(2), kind)
    if value is None:
        raise argparse.ArgumentTypeError(f"unknown {kind} unit {m.group(2)!r} in {text!r}")
    if not math.isfinite(value):              # e.g. 1e999um, or 1e305MHz
        raise argparse.ArgumentTypeError(f"{kind} value {text!r} is not finite")
    return value


def _energy(text):
    return _parse_with_units(text, "energy")


def _length(text):
    return _parse_with_units(text, "length")


def _time(text):
    return _parse_with_units(text, "time")


def _frequency(text):
    return _parse_with_units(text, "frequency")


def _field(text):
    return _parse_with_units(text, "field")


def _width_tag(width: float) -> str:
    """The file-name tag of one ``transition`` width."""
    return f"_a{width*1e6:g}um"


def _widths_list(text: str) -> list[float]:
    widths = [_length(part) for part in text.split(",") if part]
    if not widths:
        raise argparse.ArgumentTypeError("needs at least one width, e.g. 0.4um,1um")
    tags = [_width_tag(w) for w in widths]
    if len(set(tags)) != len(tags):
        raise argparse.ArgumentTypeError(
            f"duplicate width in {text!r}: each width names its own output files")
    return widths


# each preset's factory is its name with underscores: o-minus is o_minus
_PRESETS = ("s-minus", "o-minus", "rb-atom-laser")

# Every flag that tunes a preset: its unit type, the preset field it sets
# (a preset without that field exits 2), and its help text.
_PRESET_FLAGS = {
    "field": (_field, "field_ev_per_m", "e.g. 423eV/m"),
    "energy": (_energy, "energy", "e.g. 100.5ueV"),
    "strength2": (_finite_float, "strength2", "|C|^2 scale"),
    "z": (_length, "detector_z", "e.g. 0.514m or 1mm"),
    "emin": (_energy, "scan_min", "e.g. -50ueV"),
    "emax": (_energy, "scan_max", "e.g. 300ueV"),
    "width": (_length, "width", "e.g. 2.8um"),
    "omega": (_frequency, "coupling", "coupling Omega/(2 pi), e.g. 105.585Hz"),
    "time": (_time, "operation_time", "e.g. 20ms"),
    "n0": (_finite_float, "atom_count", "initial atom count"),
    "nu": (_frequency, "profile_nu", "e.g. 2.5kHz"),
    "numin": (_frequency, "detuning_min", "e.g. -15kHz"),
    "numax": (_frequency, "detuning_max", "e.g. 15kHz"),
}


def _preset(args, parser):
    """The chosen preset with every preset flag given applied to it."""
    import dataclasses
    preset = globals()[args.preset.replace("-", "_")]()
    fields = {f.name for f in dataclasses.fields(preset)}
    changes = {}
    for flag, (_, name, _) in _PRESET_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if name not in fields:
            parser.error(f"--{flag} does not apply to preset {args.preset}")
        # --omega is Omega/(2 pi) in Hz; the preset holds Omega in rad/s
        changes[name] = 2.0 * math.pi * value if flag == "omega" else value
    return dataclasses.replace(preset, **changes)


def _out_path(args, suffix: str = "") -> str:
    path = args.output
    if suffix:
        root, ext = os.path.splitext(path)
        path = f"{root}{suffix}{ext}"
    outdir = os.environ.get("AIRYBEAM_OUTDIR")
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    return path


def _provenance(args) -> dict:
    """The run's record in the meta of every file ``_write`` writes: ``command``,
    ``preset`` and each flag with a value as ``arg_<name>`` in SI units, so any
    output can be re-run exactly.  Execution details that cannot change the
    numbers (output location, config file name) stay out so reruns remain
    byte-identical."""
    skip = {"fn", "output", "config"}
    out = {"command": args.command, "preset": args.preset}
    for key, val in vars(args).items():
        if key in skip or key == "command" or val is None:
            continue
        if isinstance(val, (list, tuple)):
            val = ",".join(format(v, ".17g") for v in val)
        out[f"arg_{key}"] = val
    return out


def _read_overlay(path) -> ScanResult:
    """Two-column user CSV (abscissa,value) in UTF-8, a byte-order mark
    allowed, '#' comments ignored."""
    rows = {}                                 # abscissa -> value
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8-sig").strip()
        except UnicodeDecodeError:
            raise DomainError(f"{path}:{lineno}: not UTF-8 text") from None
        if not line or line.startswith("#"):
            continue
        try:
            x, y = map(float, line.split(","))
        except ValueError:
            raise DomainError(f"{path}:{lineno}: expected 'abscissa,value', "
                              f"got {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"{path}:{lineno}: values must be finite, got {line!r}")
        if x in rows:
            raise DomainError(f"{path}:{lineno}: abscissa {x:g} repeats an earlier row")
        rows[x] = y
    if not rows:
        raise DomainError(f"{path}: no data rows, expected 'abscissa,value' lines")
    xs, ys = zip(*sorted(rows.items()))
    return ScanResult(xs, ys, "abscissa", "user_data")


def _write_overlay_pair(args, model_fn) -> None:
    """Echo user-supplied points and the model sampled at their abscissa.

    No experimental data ships with the package; this simply lets users lay
    their own measurements alongside the prediction.
    """
    if getattr(args, "overlay", None) is None:
        return
    data = _read_overlay(args.overlay)
    _write(data, args, suffix="_overlay_data")
    _write(ScanResult(data.abscissa, model_fn(data.abscissa), "abscissa", "model"), args,
           suffix="_overlay_model")


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def _cmd_total_current(args, preset) -> int:
    result = total_current_scan(preset, grid(*preset.scan_window, args.n))
    ratio = preset.sum_rule_ratio()
    summary = "" if ratio is None else f", sum-rule ratio {ratio:.6f}"
    _write(result, args)
    _write_overlay_pair(args, lambda xs: total_current_scan(preset, xs).values)
    ipk = int(result.values.argmax())
    print(f"total-current: {len(result.values)} points, peak value "
          f"{result.values[ipk]:.6g} at {result.abscissa[ipk]:.6g} "
          f"{result.xlabel}{summary} -> {_out_path(args)}")
    return 0


def _cmd_density_profile(args, preset) -> int:
    result = lateral_profile(preset, args.half_width, args.n)
    _write(result, args)
    print(f"density-profile: peak j_z = {result.values.max():.6g} -> {_out_path(args)}")
    return 0


def _cmd_detector_image(args, preset) -> int:
    image = detector_image(preset, half_width=args.half_width, resolution=args.n)
    _write(image, args)
    print(f"detector-image: {args.n}x{args.n} pixels, half-width "
          f"{image.half_width:.6g} m, peak {image.peak:.6g} -> {_out_path(args)}")
    return 0


def _cmd_atom_laser(args, preset) -> int:
    sign = -1.0 if args.flip_detuning else 1.0
    nus = grid(*preset.scan_window, args.n)
    curve = atom_laser_depletion(preset, nus)
    detunings, counts = nus, curve.fractions * preset.atom_count
    if args.flip_detuning:
        detunings, counts = -detunings[::-1], counts[::-1]
    result = ScanResult(detunings, counts, "nu_Hz", "atoms_remaining", curve.meta)
    _write(result, args)
    # the model at a shown detuning nu is the curve at sign * nu
    _write_overlay_pair(args, lambda nu: atom_laser_depletion(
        preset, sign * nu).fractions * preset.atom_count)
    # the detuning origin convention differs between setups: report where
    # the exact current peaks and where the slicing resonance (eps = 0) sits
    nu_peak = nus[int(curve.currents.argmax())]
    imin = int(counts.argmin())
    print(f"atom-laser: deepest depletion {counts[imin]:.6g} at "
          f"nu = {detunings[imin]:.6g} Hz; exact-current peak at "
          f"nu = {sign * nu_peak:.6g} Hz, slicing peak at nu = 0 Hz "
          f"-> {_out_path(args)}")
    return 0


def _cmd_transition(args, preset) -> int:
    nus = grid(*preset.scan_window, args.n)
    curves = current_transition_scan(preset, args.widths, nus)
    for c in curves:
        tag = _width_tag(c.width)
        _write(c.exact, args, suffix=f"{tag}_exact")
        _write(c.slicing, args, suffix=f"{tag}_slicing")
    areas = [c.area for c in curves]
    spread = (max(areas) - min(areas)) / curves[0].rhs
    print(f"transition: {len(curves)} widths, sum-rule area ratios = "
          + ", ".join(f"{c.area/c.rhs:.6f}" for c in curves)
          + f" (spread {spread:.2e}) -> {_out_path(args)}")
    return 0


# the suites ``validate --suite`` names, each a function of the
# ``airybeam.validation`` module returning its Checks
_SUITES = {"sum-rule": lambda v: v.sum_rule(rb_atom_laser()),
           "oracle": lambda v: [v.oracle_agreement(20)],
           "flux": lambda v: (v.flux(o_minus(), (0.35, 0.514), "o-minus")
                              + v.flux(rb_atom_laser(), (0.7e-3, 1.0e-3), "rb-atom-laser"))}


def _cmd_validate(args, _preset) -> int:
    from . import validation
    failures = 0
    for name, run in _SUITES.items():
        if args.suite in ("all", name):
            for check in run(validation):
                failures += not check.ok
                print(check)
    print(f"validate: {'all checks passed' if failures == 0 else f'{failures} check(s) FAILED'}")
    return 0 if failures == 0 else 1


def _write(result, args, suffix: str = "") -> None:
    """Write a ScanResult or RasterImage in the ``--format`` chosen, the run's
    record added to its meta in place (a copy of an image re-checks it)."""
    result.meta.update(_provenance(args))
    writer = {"csv": write_csv, "json": write_json, "pgm": write_pgm}[args.format]
    writer(result, _out_path(args, suffix))


# ----------------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------------

def _add_common(p, preset: str, flags: str, presets=tuple(sorted(_PRESETS)),
                formats=("csv", "json")):
    """Output, format, config and preset flags, plus the named preset flags."""
    p.add_argument("-o", "--output", required=True, help="output file path")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--config", type=str, default=None,
                   help="JSON object of flag values under the flag names, parsed "
                        "like flags; flags given on the command line win")
    p.add_argument("--preset", choices=presets, default=preset)
    for flag in flags.split():
        kind, _, help_ = _PRESET_FLAGS[flag]
        p.add_argument(f"--{flag}", type=kind, default=None, help=help_)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="airybeam",
        description="Matter waves from quantum sources in a uniform force field",
    )
    ap.add_argument("--version", action="version", version=f"airybeam {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    overlay_help = "user CSV of measured points to emit alongside the model"
    image_flags = "energy nu z field strength2 width omega"

    p = sub.add_parser("total-current", help="total current J over an energy/detuning scan")
    _add_common(p, "s-minus", "emin emax numin numax field strength2 width omega")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--overlay", type=str, default=None, help=overlay_help)
    p.set_defaults(fn=_cmd_total_current)

    p = sub.add_parser("density-profile", help="lateral current-density profile")
    _add_common(p, "o-minus", image_flags)
    p.add_argument("--half-width", type=_length, default=None, help="e.g. 1.2mm")
    p.add_argument("--n", type=int, default=1201)
    p.set_defaults(fn=_cmd_density_profile)

    p = sub.add_parser("detector-image", help="square raster of j_z on the detector plane")
    _add_common(p, "o-minus", image_flags, formats=("pgm", "json"))
    p.add_argument("--half-width", type=_length, default=None, help="e.g. 1.2mm")
    p.add_argument("--n", type=int, default=512, help="resolution (pixels per side)")
    p.set_defaults(fn=_cmd_detector_image)

    p = sub.add_parser("atom-laser", help="remaining-atom depletion curve N(T)")
    _add_common(p, "rb-atom-laser", "width omega time numin numax n0",
                presets=("rb-atom-laser",))
    p.add_argument("--n", type=int, default=601)
    p.add_argument("--flip-detuning", action="store_true",
                   help="mirror the detuning axis (sign convention is not universal)")
    p.add_argument("--overlay", type=str, default=None, help=overlay_help)
    p.set_defaults(fn=_cmd_atom_laser)

    p = sub.add_parser("transition", help="exact vs slicing currents across source widths")
    _add_common(p, "rb-atom-laser", "omega numin numax", presets=("rb-atom-laser",))
    p.add_argument("--widths", type=_widths_list, default=[2e-7, 4e-7, 1e-6, 2.8e-6],
                   help="comma list, e.g. 0.2um,0.4um,1um,2.8um")
    p.add_argument("--n", type=int, default=801)
    p.set_defaults(fn=_cmd_transition)

    p = sub.add_parser("validate", help="run the numerical validation suites")
    p.add_argument("--suite", choices=("all", *_SUITES), default="all")
    p.set_defaults(fn=_cmd_validate)

    # let negative unit-suffixed values ("-50ueV") pass as option arguments
    negative_value = re.compile(r"^-\d")
    ap._negative_number_matcher = negative_value
    for sp in sub.choices.values():
        sp._negative_number_matcher = negative_value
    return ap


def _config_argv(path, parser) -> list[str]:
    """A JSON config file as flag tokens: ``{"n": 17, "widths": ["1um"]}`` is
    ``--n 17 --widths 1um``; ``true`` sets a switch and ``false`` leaves it off."""
    import json
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {path}: expected a JSON object of flag values")
    argv = []
    for key, val in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            argv += [flag] * val
        elif isinstance(val, list):
            argv += [flag, ",".join(map(str, val))]
        else:
            argv += [flag, str(val)]
    return argv


def main(argv=None) -> int:
    program = argv is None
    if program:
        gc.disable()
    parser = build_parser()
    if program:
        gc.freeze()         # --version, --help and usage errors exit in parse_args
    argv = _sys.argv[1:] if program else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # config flags go right after the subcommand: the command line wins
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_argv(args.config, parser) + argv[at:])
    _bind_layers()
    if program:
        gc.freeze()         # the command collects over its own objects only
        gc.enable()
    try:
        preset = _preset(args, parser) if hasattr(args, "preset") else None
        return args.fn(args, preset)
    except (ConvergenceError, RangeError) as exc:
        est = getattr(exc, "estimate", None)
        detail = f" (error estimate {est:.3e})" if est is not None else ""
        print(f"airybeam: numerical failure: {exc}{detail}", file=_sys.stderr)
        return 1
    except (DomainError, OSError) as exc:
        print(f"airybeam: {exc}", file=_sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"airybeam: out of memory: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
