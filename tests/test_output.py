"""The detector-image JSON writer against ``json.dumps`` of the whole document,
and the finiteness checks of the result types.

``write_json`` formats each distinct pixel value of a ``RasterImage`` once;
these tests hold its bytes to the plain encoding of
``{"half_width_m", "meta", "pixels": rows}``, the package version in ``meta``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airybeam import __version__
from airybeam.errors import DomainError
from airybeam.output import RasterImage, ScanResult, write_csv, write_json
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
    return json.dumps(doc, sort_keys=True) + "\n"


def written(image, tmp_path):
    path = tmp_path / "img.json"
    write_json(image, path)
    return path.read_text()


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.sampled_from(POOL)))
def test_write_json_equals_json_dumps(tmp_path_factory, pixels):
    image = RasterImage(pixels, half_width=2.5e-4, meta={"z_m": 0.5, "tag": "x"})
    assert written(image, tmp_path_factory.mktemp("prop")) == reference(image)


@pytest.mark.parametrize("pixels", [
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    (np.arange(12.0).reshape(3, 4) / 7.0).T,      # not C-contiguous
], ids=["signed-zeros", "transposed"])
def test_write_json_edge_arrays(tmp_path, pixels):
    image = RasterImage(pixels, half_width=1e-3)
    assert written(image, tmp_path) == reference(image)


@pytest.mark.parametrize("preset", [rb_atom_laser, o_minus],
                         ids=["rb-atom-laser", "o-minus"])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_write_json_detector_images(tmp_path, preset, n):
    image = detector_image(preset(), resolution=n)
    assert written(image, tmp_path) == reference(image)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -1.0])
def test_raster_rejects_non_finite_or_negative(bad):
    with pytest.raises(DomainError, match="finite and >= 0"):
        RasterImage(np.array([[1.0, bad]]), half_width=1.0)



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
