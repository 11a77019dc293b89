"""Scan curves, detector rasters, and their deterministic file formats.

CSV: ``#`` header lines with the result's ``meta`` -- its parameters and,
from the command line, the run's record (``command``, ``preset``,
``arg_<flag>``) -- in sorted keys and fixed formatting, each character
outside printable ASCII escaped as in a Python literal so one value stays
one ASCII line; then ``abscissa,value`` rows with 17 significant digits --
parsing them back recovers the doubles bit-exactly.
Identical inputs must produce byte-identical files, so nothing
time- or environment-dependent ever enters a header.

PGM: binary P5, 16-bit big-endian samples, max-normalized, with a
``<name>.meta.json`` sidecar recording the physical extent, the
normalization factor and the ``meta``.

JSON: the ``meta`` and exact doubles via ``repr``; the package version sits
at the top level of a scan and in the ``meta`` of an image, whose top-level
keys stay ``half_width_m``, ``meta`` and ``pixels``.  An image formats each
distinct pixel value once and writes the rows from those strings, with the
same bytes ``json.dumps`` gives for the whole document.
"""

from __future__ import annotations

import json
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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("ScanResult: abscissa and values must be finite")
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
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise DomainError("RasterImage: intensities must be finite and >= 0")
        object.__setattr__(self, "pixels", p)

    @property
    def peak(self) -> float:
        return float(self.pixels.max())


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _escape(text: str) -> str:
    """``text`` with each character outside printable ASCII backslash-escaped."""
    return "".join(c if " " <= c <= "~" else c.encode("unicode_escape").decode("ascii")
                   for c in text)


def _header_lines(meta: dict, columns: str) -> list[str]:
    lines = [f"# airybeam {__version__}"]
    for key in sorted(meta):
        val = meta[key]
        val = _fmt(val) if isinstance(val, float) else _escape(str(val))
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


def write_json(result: ScanResult | RasterImage, path) -> None:
    """JSON rendering of a ScanResult or a RasterImage (exact doubles via repr).

    Image pixels are encoded row by row, never as one string of the raster.
    Each distinct double is formatted once; the bytes equal those of
    ``json.dumps(doc, sort_keys=True)`` on the whole image document.
    """
    if isinstance(result, RasterImage):
        meta = {**result.meta, "airybeam": __version__}
        head = json.dumps({"half_width_m": result.half_width, "meta": meta},
                          sort_keys=True)
        # the image repeats few distinct doubles (an 8-fold symmetric ring):
        # format each once and look every pixel up by its bit pattern, which
        # keeps -0.0 and 0.0 apart where a float comparison would not
        bits = result.pixels.view(np.uint64)
        keys = np.unique(bits)
        text = np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object)
        with open(path, "w") as fh:
            fh.write(head[:-1] + ', "pixels": [')      # "pixels" sorts last
            for i, row in enumerate(bits):
                fh.write((", [" if i else "[")
                         + ", ".join(text[np.searchsorted(keys, row)].tolist()) + "]")
            fh.write("]}\n")
        return
    doc = {
        "airybeam": __version__,
        "meta": result.meta,
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
    # divide first: 65535/peak overflows to inf for a subnormal peak
    quantized = np.rint(image.pixels / peak * 65535.0 if peak > 0.0
                        else np.zeros_like(image.pixels)).astype(">u2")
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
        "normalization_peak": peak,
        "meta": image.meta,
    }
    with open(str(path) + ".meta.json", "wb") as fh:
        fh.write(json.dumps(side, sort_keys=True, indent=1).encode("ascii"))
        fh.write(b"\n")
