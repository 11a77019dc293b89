"""The detector-image writers against plain encodings of the whole raster,
and the finiteness checks of the result types.

A ``RasterImage`` stores a whole raster or the upper-left quadrant of a
raster symmetric under both flips, and the writers unfold the quadrant only
as the bytes are written.  ``write_json`` formats each distinct pixel value
once; these tests hold its bytes to the plain encoding of
``{"half_width_m", "meta", "pixels": rows}``, the package version in
``meta``, and ``write_pgm``'s to the quantization of the whole raster at once.
A scan's JSON is held to ``json.dumps`` of its whole document.  The files
are compared as bytes, so a line ending written in text mode would show.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airybeam import __version__
from airybeam.errors import DomainError
from airybeam.output import RasterImage, ScanResult, write_csv, write_json, write_pgm
from airybeam.scenarios import detector_image, o_minus, rb_atom_laser

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# zeros of both signs, the smallest subnormal and the exponent extremes,
# plus ordinary values; arrays drawn from it repeat values often
POOL = [0.0, -0.0, 5e-324, 1e-300, 1e300, 0.1, 1.5, 2.0 / 3.0, 7.0, 1e-9,
        123456.789, 2.2250738585072014e-308]


def reference(image):
    doc = {"half_width_m": image.half_width,
           "meta": {**image.meta, "airybeam": __version__},
           "pixels": image.pixels.tolist()}
    return (json.dumps(doc, sort_keys=True) + "\n").encode("ascii")


def written(image, tmp_path):
    path = tmp_path / "img.json"
    write_json(image, path)
    return path.read_bytes()


def scan_reference(scan):
    doc = {"airybeam": __version__, "meta": scan.meta, "xlabel": scan.xlabel,
           "ylabel": scan.ylabel, "abscissa": scan.abscissa.tolist(),
           "values": scan.values.tolist()}
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("ascii")


def scan_written(scan, tmp_path):
    path = tmp_path / "scan.json"
    write_json(scan, path)
    return path.read_bytes()


def pgm_reference(image):
    """The PGM and sidecar bytes from quantizing the whole raster at once."""
    pixels = image.pixels
    h, w = pixels.shape
    peak = float(pixels.max()) + 0.0          # a zero peak is written as 0.0
    samples = np.rint(pixels / peak * 65535.0) if peak > 0.0 else np.zeros_like(pixels)
    side = {"airybeam": __version__, "width": w, "height": h,
            "half_width_m": image.half_width, "pixel_size_m": 2.0 * image.half_width / w,
            "normalization_peak": peak, "meta": image.meta}
    return (f"P5\n{w} {h}\n65535\n".encode("ascii") + samples.astype(">u2").tobytes(),
            json.dumps(side, sort_keys=True, indent=1).encode("ascii") + b"\n")


def pgm_written(image, tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(image, path)
    return path.read_bytes(), (tmp_path / "img.pgm.meta.json").read_bytes()


def pool_arrays(rows):
    return arrays(np.float64, st.tuples(rows, st.integers(1, 6)),
                  elements=st.sampled_from(POOL))


@st.composite
def mirrored(draw):
    """Arrays whose row n-1-i repeats row i, and near-mirrors that differ
    from one only by a 0.0 <-> -0.0 swap in a lower row."""
    upper = draw(pool_arrays(st.integers(1, 3)))
    h = len(upper)
    pixels = np.concatenate([upper, upper[:h - draw(st.integers(0, 1))][::-1]])
    lower = pixels[h:].reshape(-1)          # a view: writes reach pixels
    zeros = np.flatnonzero(lower == 0.0)
    if zeros.size and draw(st.booleans()):
        k = draw(st.sampled_from(zeros.tolist()))
        lower[k] = -lower[k]
    return pixels


@st.composite
def quadrant_images(draw):
    """Rasters of side n stored as their ceil(n/2) x ceil(n/2) quadrant, n of
    either parity, the quadrant's values drawn from ``POOL``."""
    n = draw(st.integers(1, 9))
    h = (n + 1) // 2
    quadrant = draw(arrays(np.float64, (h, h), elements=st.sampled_from(POOL)))
    return RasterImage.from_quadrant(quadrant, n, 2.5e-4, {"z_m": 0.5, "tag": "x"})


@PROPERTY
@given(quadrant_images())
def test_quadrant_image_writers_equal_whole_raster_encodings(tmp_path_factory, image):
    tmp_path = tmp_path_factory.mktemp("quad")
    assert written(image, tmp_path) == reference(image)
    assert pgm_written(image, tmp_path) == pgm_reference(image)


@PROPERTY
@given(st.one_of(pool_arrays(st.integers(1, 6)), mirrored()))
def test_write_json_equals_json_dumps(tmp_path_factory, pixels):
    image = RasterImage(pixels, half_width=2.5e-4, meta={"z_m": 0.5, "tag": "x"})
    assert written(image, tmp_path_factory.mktemp("prop")) == reference(image)


@pytest.mark.parametrize("pixels", [
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    (np.arange(12.0).reshape(3, 4) / 7.0).T,      # not C-contiguous
    np.array([[0.0, 1.5], [0.0, 1.5]]),
    np.array([[0.0, 1.5], [-0.0, 1.5]]),          # mirror but for one zero's sign
    np.array([[1.5, -0.0], [7.0, 0.1], [1.5, 0.0]]),
], ids=["signed-zeros", "transposed", "mirrored", "near-mirror-even", "near-mirror-odd"])
def test_write_json_edge_arrays(tmp_path, pixels):
    image = RasterImage(pixels, half_width=1e-3)
    assert written(image, tmp_path) == reference(image)


@pytest.mark.parametrize("preset", [rb_atom_laser, o_minus],
                         ids=["rb-atom-laser", "o-minus"])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_write_json_detector_images(tmp_path, preset, n):
    image = detector_image(preset(), resolution=n)
    assert written(image, tmp_path) == reference(image)


@pytest.mark.parametrize("preset", [rb_atom_laser, o_minus],
                         ids=["rb-atom-laser", "o-minus"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 63, 64])
def test_quadrant_image_writes_bytes_of_assembled_raster(tmp_path, preset, n):
    image = detector_image(preset(), resolution=n)
    assert image.block.shape == ((n + 1) // 2,) * 2 and image.shape == (n, n)
    whole = RasterImage(image.pixels, image.half_width, image.meta)
    assert whole.block.shape == (n, n)
    assert pgm_written(image, tmp_path) == pgm_written(whole, tmp_path)
    assert written(image, tmp_path) == written(whole, tmp_path)


@pytest.mark.parametrize("scan", [
    ScanResult(np.array([]), np.array([])),
    ScanResult(np.array([2.5]), np.array([1e-300]), "E", "J"),
    ScanResult(np.array([-3.0, -1.5, -1e-9]), np.array([-2.0, 0.5, 7.0])),
    ScanResult(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, -0.0, -0.0, 0.0])),
    ScanResult(np.array([-1.0, 0.0, 1.0, 2.0, 3.0, 4.0]),
               np.array([np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
                         np.nextafter(1e16, 0.0), 1e16, -np.nextafter(1e16, 1e17)])),
    ScanResult(np.array([0.0, 1.0]), np.array([1.0, 2.0]),
               meta={"z_m": 0.35, "tiny": 5e-324, "name": "Rb \u2077 \u00e9",
                     "emoji": "\U0001f600", "values": []}),
], ids=["empty", "one-point", "negative-abscissa", "signed-zeros",
        "layout-boundaries", "meta-floats-non-ascii"])
def test_scan_json_equals_json_dumps(tmp_path, scan):
    assert scan_written(scan, tmp_path) == scan_reference(scan)


@PROPERTY
@given(arrays(np.float64, st.integers(0, 12), unique=True,
              elements=st.floats(-1e300, 1e300)),
       st.data())
def test_scan_json_property(tmp_path_factory, abscissa, data):
    abscissa = np.sort(abscissa + 0.0)          # -0.0 and 0.0 are one abscissa
    values = data.draw(arrays(np.float64, len(abscissa),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    scan = ScanResult(abscissa, values)
    assert scan_written(scan, tmp_path_factory.mktemp("scan")) == scan_reference(scan)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -1.0])
def test_raster_rejects_non_finite_or_negative(bad):
    with pytest.raises(DomainError, match="finite and >= 0"):
        RasterImage(np.array([[1.0, bad]]), half_width=1.0)
    with pytest.raises(DomainError, match="finite and >= 0"):
        RasterImage.from_quadrant(np.array([[1.0, bad], [0.0, 2.0]]), 4, half_width=1.0)


@pytest.mark.parametrize("n, shape", [(4, (1, 1)), (3, (1, 2)), (0, (0, 0))])
def test_quadrant_shape_must_match_side(n, shape):
    with pytest.raises(DomainError, match="quadrant"):
        RasterImage.from_quadrant(np.ones(shape), n, half_width=1.0)



@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_scan_rejects_non_finite_values(bad):
    # an inf would reach the CSV as "inf" and the JSON as "Infinity"
    with pytest.raises(DomainError, match="finite"):
        ScanResult(np.array([0.0, 1.0, 2.0]), np.array([1.0, bad, 3.0]))


@pytest.mark.parametrize("abscissa", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]],
                         ids=["inf", "-inf"])
def test_scan_rejects_infinite_abscissa(abscissa):
    with pytest.raises(DomainError, match="finite"):
        ScanResult(np.array(abscissa), np.ones(3))


def test_csv_header_escapes_only_outside_printable_ascii(tmp_path):
    meta = {"plain": "C:\\runs\\x y~.csv", "odd": "é\t\x7f😀"}
    write_csv(ScanResult(np.array([0.0, 1.0]), np.array([2.0, 3.0]), meta=meta),
              tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_bytes().decode("ascii").splitlines()
    assert "# plain = C:\\runs\\x y~.csv" in lines          # bytes kept
    assert "# odd = \\xe9\\t\\x7f\\U0001f600" in lines
