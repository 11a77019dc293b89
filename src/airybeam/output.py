"""Scan curves, detector rasters, and their deterministic file formats.

CSV: ``#``-prefixed header lines carrying the full parameter provenance
(sorted keys, fixed formatting), then ``abscissa,value`` rows with 17
significant digits -- parsing them back recovers the doubles bit-exactly.
Identical inputs must produce byte-identical files, so nothing
time- or environment-dependent ever enters a header.

PGM: binary P5, 16-bit big-endian samples, max-normalized, with a
``<name>.meta.json`` sidecar recording the physical extent and the
normalization factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DomainError

__all__ = ["ScanResult", "RasterImage", "write_csv", "write_json", "write_pgm"]


@dataclass(frozen=True)
class ScanResult:
    """An ordered (abscissa, value) curve with unit labels and provenance."""

    abscissa: np.ndarray
    values: np.ndarray
    xlabel: str = "x"
    ylabel: str = "y"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.abscissa, dtype=float)
        y = np.asarray(self.values, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise DomainError("ScanResult: abscissa and values must be equal-length 1-D")
        if not np.all(np.diff(x) > 0.0):
            raise DomainError("ScanResult: abscissa must be strictly increasing")
        if np.any(np.isnan(x)) or np.any(np.isnan(y)):
            raise DomainError("ScanResult: NaN values are not allowed")
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "values", y)


@dataclass(frozen=True)
class RasterImage:
    """A square detector raster of nonnegative intensities.

    ``half_width`` is the physical half-extent (m) of the image; pixel
    centers run from -half_width to +half_width in both directions.
    """

    pixels: np.ndarray
    half_width: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise DomainError("RasterImage: pixels must be a non-empty 2-D array")
        if np.any(p < 0.0) or np.any(np.isnan(p)):
            raise DomainError("RasterImage: intensities must be finite and >= 0")
        object.__setattr__(self, "pixels", p)

    @property
    def peak(self) -> float:
        return float(self.pixels.max())


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _header_lines(meta: dict, columns: str) -> list[str]:
    lines = [f"# airybeam {__version__}"]
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, float):
            val = _fmt(val)
        lines.append(f"# {key} = {val}")
    lines.append(f"# columns: {columns}")
    return lines


def write_csv(result: ScanResult, path) -> None:
    """Write a ScanResult; byte-identical output for identical inputs."""
    lines = _header_lines(result.meta, f"{result.xlabel},{result.ylabel}")
    for x, y in zip(result.abscissa, result.values):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def write_json(result: ScanResult, path) -> None:
    """JSON rendering of a ScanResult (same provenance, exact doubles via repr)."""
    doc = {
        "airybeam": __version__,
        "meta": {k: result.meta[k] for k in sorted(result.meta)},
        "xlabel": result.xlabel,
        "ylabel": result.ylabel,
        "abscissa": [float(v) for v in result.abscissa],
        "values": [float(v) for v in result.values],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1).encode("ascii"))
        fh.write(b"\n")


def write_pgm(image: RasterImage, path) -> None:
    """Write a 16-bit binary PGM plus a ``.meta.json`` sidecar."""
    peak = image.peak
    scale = 65535.0 / peak if peak > 0.0 else 0.0
    quantized = np.rint(image.pixels * scale).astype(">u2")
    h, w = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(quantized.tobytes())
    side = {
        "airybeam": __version__,
        "width": w,
        "height": h,
        "half_width_m": image.half_width,
        "pixel_size_m": 2.0 * image.half_width / w,
        "normalization_peak": peak if math.isfinite(peak) else None,
        "meta": {k: image.meta[k] for k in sorted(image.meta)},
    }
    with open(str(path) + ".meta.json", "wb") as fh:
        fh.write(json.dumps(side, sort_keys=True, indent=1).encode("ascii"))
        fh.write(b"\n")
