"""Output checks applied to every invocation the benchmark runs.

An invocation passes when it exits 0 without a traceback, its stdout says
what the subcommand promises (``validate`` passes, sum-rule ratios within
the package's 5e-3 budget), its output files parse with the expected shape,
and a seeded sample of point-source j_z and J(E) values agrees with an
independent recomputation from ``scipy.special.airy``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import random
import re

import numpy as np
from scipy.special import airy

from workloads import Invocation

SUM_RULE_BUDGET = 5e-3        # the package's own sum-rule tolerance
REF_SAMPLES = 8               # output points recomputed per checked file
# Reference agreement: |got - ref| <= REF_RTOL*|ref| + REF_ATOL*max|values|.
# The absolute part covers ring nulls of j_z, where the package forms the
# Airy argument eps - zeta + rho with zeta ~ 6e6 and so carries an absolute
# argument error near 1e-9.
REF_RTOL = 1e-8
REF_ATOL = 1e-8

# CODATA-2018 constants and the published fields, kept here so that the
# reference does not read them from the package.
HBAR = 1.054571817e-34
ELECTRON_MASS = 9.1093837015e-31
ELEMENTARY_CHARGE = 1.602176634e-19
POINT_PRESET_FIELD = {"s-minus": 2.205e4, "o-minus": 423.0}   # eV/m

_FLOAT = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_SCAN_KEYS = {"airybeam", "meta", "xlabel", "ylabel", "abscissa", "values"}
_IMAGE_KEYS = {"pixels", "half_width_m", "meta"}


def output_digest(out_stem: str) -> dict[str, str]:
    """SHA-256 of each file an invocation wrote, keyed by the name after the stem."""
    out = {}
    for path in sorted(glob.glob(glob.escape(out_stem) + "*")):
        with open(path, "rb") as fh:
            out[path[len(out_stem):]] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check(inv: Invocation, out_stem: str, code: int, stdout: str,
          stderr: str, sample_seed: str) -> list[str]:
    """Reasons the invocation failed; empty when it passed."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        return _check_outputs(inv, out_stem, stdout, random.Random(sample_seed))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_outputs(inv, out_stem, stdout, rng) -> list[str]:
    cmd = inv.command
    if cmd == "version":
        return [] if stdout.startswith("airybeam ") else [f"version: {stdout!r}"]
    if cmd == "validate":
        return [] if "validate: all checks passed" in stdout else ["validate failed"]
    errors = []
    if cmd == "transition":
        m = re.search(r"sum-rule area ratios = (.+?) \(", stdout)
        ratios = [float(r) for r in m.group(1).split(", ")] if m else []
        widths = inv.flag("--widths").split(",")
        if len(ratios) != len(widths):
            errors.append(f"transition printed {len(ratios)} ratios for {len(widths)} widths")
        errors += _sum_rule_errors(ratios)
        for model in ("exact", "slicing"):
            files = glob.glob(glob.escape(out_stem) + f"_a*um_{model}.{inv.ext}")
            if len(files) != len(widths):
                errors.append(f"transition wrote {len(files)} {model} files")
            # the slicing current exp(-eps^2/(4 alpha^2)) of a narrow source
            # falls below the smallest double at the scan edges: 0.0 is its
            # correctly rounded value there
            for path in files:
                errors += _scan_errors(inv, path, positive=model == "exact")
        return errors
    path = f"{out_stem}.{inv.ext}"
    if cmd == "detector-image":
        return _image_errors(inv, path)
    if cmd == "total-current" and inv.flag("--preset") == "rb-atom-laser":
        m = re.search(rf"sum-rule ratio ({_FLOAT})", stdout)
        errors += _sum_rule_errors([float(m.group(1))] if m else [])
    errors += _scan_errors(inv, path, positive=cmd != "density-profile")
    if errors or inv.flag("--preset") not in POINT_PRESET_FIELD:
        return errors
    xs, ys, meta = read_csv(path)
    if cmd == "total-current":
        return _reference_errors(inv, "J(E)", xs, ys, meta, rng)
    if cmd == "density-profile" and inv.flag("--energy") and inv.flag("--z"):
        return _reference_errors(inv, "j_z", xs, ys, meta, rng)
    return errors


def _sum_rule_errors(ratios) -> list[str]:
    if not ratios:
        return ["no sum-rule ratio printed"]
    return [f"sum-rule ratio {r} outside 1 +- {SUM_RULE_BUDGET}"
            for r in ratios if not abs(r - 1.0) <= SUM_RULE_BUDGET]


def read_csv(path):
    """(abscissa, values, header dict) of a CLI CSV file."""
    xs, ys, meta = [], [], {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if " = " in line:
                    key, val = line[2:].split(" = ", 1)
                    meta[key] = val
                elif line.startswith("# columns: "):
                    meta["columns"] = line[len("# columns: "):]
                continue
            a, b = line.split(",")
            xs.append(float(a))
            ys.append(float(b))
    return np.array(xs), np.array(ys), meta


def _read_scan(path, ext):
    if ext == "json":
        with open(path) as fh:
            doc = json.load(fh)
        if set(doc) != _SCAN_KEYS:
            raise KeyError(f"JSON keys {sorted(doc)}")
        return np.array(doc["abscissa"], float), np.array(doc["values"], float)
    xs, ys, meta = read_csv(path)
    if "columns" not in meta:
        raise KeyError("CSV has no '# columns:' header")
    return xs, ys


def _scan_errors(inv, path, positive) -> list[str]:
    xs, ys = _read_scan(path, inv.ext)
    n = int(inv.flag("--n", {"transition": "801"}.get(inv.command, "0")))
    name = os.path.basename(path)
    if xs.size != n or ys.size != n:
        return [f"{name}: {xs.size} rows, expected {n}"]
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        return [f"{name}: non-finite values"]
    if not np.all(np.diff(xs) > 0.0):
        return [f"{name}: abscissa not increasing"]
    if np.any(ys < 0.0) or (positive and np.any(ys == 0.0)):
        return [f"{name}: values not {'positive' if positive else 'non-negative'}"]
    if inv.command == "atom-laser" and np.any(ys > 1.0):
        return [f"{name}: remaining fraction above 1"]
    return []


def _image_errors(inv, path) -> list[str]:
    n = int(inv.flag("--n"))
    if inv.ext == "json":
        with open(path) as fh:
            doc = json.load(fh)
        if set(doc) != _IMAGE_KEYS:
            return [f"image JSON keys {sorted(doc)}"]
        pix = np.array(doc["pixels"], float)
        if pix.shape != (n, n) or not np.all(np.isfinite(pix)) or np.any(pix < 0.0):
            return [f"image JSON pixels shape {pix.shape} or values invalid"]
        return []
    with open(path, "rb") as fh:
        data = fh.read()
    header = f"P5\n{n} {n}\n65535\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + 2 * n * n:
        return [f"PGM header or size wrong ({len(data)} bytes)"]
    with open(path + ".meta.json") as fh:
        side = json.load(fh)
    if side["width"] != n or side["height"] != n:
        return ["PGM sidecar size mismatch"]
    return []


def _reference_errors(inv, what, xs, ys, meta, rng) -> list[str]:
    """Recompute sampled points of a point-source J(E) or j_z curve."""
    strength2 = float(inv.flag("--strength2", "1"))
    force = POINT_PRESET_FIELD[inv.flag("--preset")] * ELEMENTARY_CHARGE
    m = ELECTRON_MASS
    beta = (m / (4.0 * HBAR**2 * force**2)) ** (1.0 / 3.0)
    if not abs(float(meta["beta"]) / beta - 1.0) <= 1e-12:
        return [f"beta {meta['beta']} differs from reference {beta:.17g}"]
    idx = np.array(sorted(rng.sample(range(xs.size), min(REF_SAMPLES, xs.size))))
    if what == "J(E)":
        eps = -2.0 * beta * xs[idx]
        ai, aip, _, _ = airy(eps)
        ref = 2.0 * strength2 * m * beta * force / HBAR**3 * (aip**2 - eps * ai**2)
    else:
        bf = beta * force
        energy = float(inv.flag("--energy")[:-3]) * 1e-6 * ELEMENTARY_CHARGE
        z = float(inv.flag("--z")[:-1])
        eps = -2.0 * beta * energy
        zeta = bf * z
        xi = bf * xs[idx]
        rho = np.hypot(xi, zeta)
        am = eps + xi**2 / (rho + zeta)           # eps - zeta + rho, no cancellation
        ai, aip, _, _ = airy(am)
        coef = zeta * (zeta - eps) + rho**2
        pref = strength2 * m * bf**3 / (2.0 * math.pi * HBAR**3)
        ref = pref * (zeta * aip**2 + coef * ai**2) / rho**3
    got = ys[idx]
    bad = np.abs(got - ref) > REF_RTOL * np.abs(ref) + REF_ATOL * np.max(np.abs(ys))
    return [f"{what} at {xs[i]:.6g}: {g:.17g} vs reference {r:.17g}"
            for i, g, r in zip(idx[bad], got[bad], ref[bad])]
