"""Scan curves, detector rasters, and their deterministic file formats.

CSV: ``#`` header lines with the result's ``meta`` -- its parameters and,
from the command line, the run's record (``command``, ``preset``,
``arg_<flag>``) -- in sorted keys and fixed formatting, each character
outside printable ASCII escaped as in a Python literal so one value stays
one ASCII line; then ``abscissa,value`` rows with 17 significant digits --
parsing them back recovers the doubles bit-exactly.
Identical inputs must produce byte-identical files, so nothing
time- or environment-dependent ever enters a header.

An image may be stored as the upper-left quadrant of a raster symmetric
under both flips (``RasterImage.from_quadrant``); the writers unfold it
only as its bytes go to the file, and write what the whole raster gives.

PGM: binary P5, 16-bit big-endian samples, max-normalized and quantized
in blocks of rows, with a ``<name>.meta.json`` sidecar recording the
physical extent, the normalization factor and the ``meta``.

JSON: the ``meta``, and each double as the bytes ``repr`` gives it, formatted
for a whole array at once by ``shortest.repr_bytes``; the package version
sits at the top level of a scan and in the ``meta`` of an image, whose
top-level keys stay ``half_width_m``, ``meta`` and ``pixels``.  An image
formats each distinct stored value once and writes the rows from those
strings; a scan's arrays are spliced into the document ``json.dumps`` gives
with them empty.  Both write the bytes ``json.dumps`` gives for the whole
document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import DomainError

__all__ = ["ScanResult", "RasterImage", "write_csv", "write_json", "write_pgm"]

_PGM_ROWS = 128     # rows quantized per block in write_pgm


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


@dataclass(frozen=True, init=False)
class RasterImage:
    """A square detector raster of nonnegative intensities.

    ``half_width`` is the physical half-extent (m) of the image; pixel
    centers run from -half_width to +half_width in both directions.

    ``RasterImage(pixels, half_width, meta)`` stores a whole raster.  A
    raster symmetric under both flips is stored as its upper-left quadrant
    alone, by ``RasterImage.from_quadrant``: the ceil(n/2) x ceil(n/2) block
    whose rows and columns, the middle ones included for odd n, mirror into
    the other three.  The checks, ``peak`` and the writers read the stored
    ``block`` only; ``pixels`` assembles the whole raster on each access.
    """

    block: np.ndarray
    shape: tuple[int, int]
    half_width: float
    meta: dict

    def __init__(self, pixels, half_width: float, meta: dict | None = None):
        p = np.asarray(pixels, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise DomainError("RasterImage: pixels must be a non-empty 2-D array")
        self._store(p, p.shape, half_width, meta)

    @classmethod
    def from_quadrant(cls, quadrant, n: int, half_width: float,
                      meta: dict | None = None) -> RasterImage:
        """The n x n raster mirrored from its upper-left ``quadrant``."""
        q = np.asarray(quadrant, dtype=float)
        h = (n + 1) // 2
        if n < 1 or q.shape != (h, h):
            raise DomainError(f"RasterImage: the quadrant of an {n} x {n} raster "
                              f"is {h} x {h}, got {q.shape}")
        image = cls.__new__(cls)
        image._store(q, (n, n), half_width, meta)
        return image

    def _store(self, block, shape, half_width, meta):
        if not np.all(np.isfinite(block)) or np.any(block < 0.0):
            raise DomainError("RasterImage: intensities must be finite and >= 0")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "half_width", half_width)
        object.__setattr__(self, "meta", {} if meta is None else meta)

    @property
    def peak(self) -> float:
        # + 0.0 makes a zero peak +0.0: which sign max() returns among zeros
        # of both signs depends on the array's length and layout
        return float(self.block.max()) + 0.0

    @property
    def pixels(self) -> np.ndarray:
        """The whole raster, assembled from the stored block."""
        cols = _unfold_columns(self.block, self.shape[1])
        return cols[_row_order(len(cols), self.shape[0])]


def _unfold_columns(rows: np.ndarray, width: int) -> np.ndarray:
    """Stored rows widened to ``width``: the columns past the stored ones
    mirror the first of them (there are none past a whole raster's)."""
    return np.concatenate([rows, rows[..., :width - rows.shape[-1]][..., ::-1]], axis=-1)


def _row_order(stored: int, height: int) -> np.ndarray:
    """The stored row behind each of the raster's ``height`` rows: the rows
    past the stored ones mirror the first of them."""
    return np.r_[0:stored, height - stored - 1:-1:-1]


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
    # "%.17g" % v gives the digits of format(v, ".17g"), without a loop in Python
    lines += map("%.17g,%.17g".__mod__,
                 zip(result.abscissa.tolist(), result.values.tolist()))
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


def write_json(result: ScanResult | RasterImage, path) -> None:
    """JSON rendering of a ScanResult or a RasterImage, each double written
    as ``repr`` writes it.

    Image pixels are encoded row by row, never as one string of the raster.
    Each distinct double of the stored block is formatted once, each stored
    row is joined once, widened by its mirrored columns, and the rows past
    the stored ones are written again in mirror order.  A scan's document is
    dumped with empty arrays, into which the formatted arrays are spliced.
    The bytes equal those of ``json.dumps(doc, sort_keys=True)`` on the whole
    image document, and of ``json.dumps(doc, sort_keys=True, indent=1)`` on
    the whole scan document, plus a newline.
    """
    from .shortest import repr_bytes    # here: CSV and PGM commands never load it
    if isinstance(result, RasterImage):
        meta = {**result.meta, "airybeam": __version__}
        head = json.dumps({"half_width_m": result.half_width, "meta": meta},
                          sort_keys=True)
        # the image repeats few distinct doubles (a ring): format each once
        # and look every pixel up by its bit pattern, which keeps -0.0 and
        # 0.0 apart where a float comparison would not
        bits = result.block.view(np.uint64)
        keys, inverse = np.unique(bits.ravel(), return_inverse=True)
        # ``tolist`` of the ``S`` array gives each string without its NUL padding
        cells = np.array(repr_bytes(keys.view(np.float64)).tolist(), dtype=object)
        rows = [b", ".join(cells[_unfold_columns(row, result.shape[1])].tolist())
                for row in inverse.reshape(bits.shape)]
        with open(path, "wb") as fh:
            fh.write(head[:-1].encode("ascii") + b', "pixels": [')   # "pixels" sorts last
            for i, k in enumerate(_row_order(len(rows), result.shape[0]).tolist()):
                fh.write((b", [" if i else b"[") + rows[k] + b"]")
            fh.write(b"]}\n")
        return
    doc = {
        "airybeam": __version__,
        "meta": result.meta,
        "xlabel": result.xlabel,
        "ylabel": result.ylabel,
        "abscissa": [],
        "values": [],
    }
    text = json.dumps(doc, sort_keys=True, indent=1).encode("ascii")
    # a top-level key alone is indented by one space, so each key's empty
    # list occurs once
    for key, column in ((b"abscissa", result.abscissa), (b"values", result.values)):
        if column.size:
            listed = b",\n  ".join(repr_bytes(column).tolist())
            text = text.replace(b'\n "%s": []' % key,
                                b'\n "%s": [\n  %s\n ]' % (key, listed), 1)
    with open(path, "wb") as fh:
        fh.write(text)
        fh.write(b"\n")


def write_pgm(image: RasterImage, path) -> None:
    """Write a 16-bit binary PGM plus a ``.meta.json`` sidecar.

    The stored block is quantized once, ``_PGM_ROWS`` rows at a time, into
    big-endian 16-bit rows of the raster's full width, whose mirrored
    columns are filled in one copy; those rows are written, then the rows
    past them, in mirror order, ``_PGM_ROWS`` at a time.  No raster-sized
    temporary is made.
    """
    peak = image.peak
    h, w = image.shape
    block = image.block
    stored = block.shape[1]
    samples = np.zeros((len(block), w), ">u2")
    if peak > 0.0:
        for i in range(0, len(block), _PGM_ROWS):
            # divide first: 65535/peak overflows to inf for a subnormal peak
            samples[i:i + _PGM_ROWS, :stored] = np.rint(block[i:i + _PGM_ROWS] / peak * 65535.0)
    samples[:, stored:] = samples[:, :w - stored][:, ::-1]
    order = _row_order(len(block), h)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(samples)
        for i in range(len(block), h, _PGM_ROWS):
            fh.write(samples[order[i:i + _PGM_ROWS]])
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
