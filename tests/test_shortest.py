"""``shortest.repr_bytes`` against ``repr`` itself, one double at a time.

The kernel must give the bytes of ``repr(float(v))`` for every finite
double: uniform random bit patterns of both signs reach every exponent band,
subnormals included, and the listed doubles are where the digit search and
the layout change (powers of two and ten, the smallest subnormals, the
positional/exponential boundaries 1e-4 and 1e16, 2^53, DBL_MAX, the zeros).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from airybeam.errors import DomainError
from airybeam.shortest import WIDTH, repr_bytes


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = repr_bytes(values).tolist()
    want = [repr(v).encode("ascii") for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not wrong, (len(wrong), wrong[:5])


def both_signs(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def neighbours(values):
    """``values`` and the finite doubles next to them on either side."""
    values = np.asarray(values, dtype=np.float64)
    top = sys.float_info.max
    return np.concatenate([values, np.nextafter(values, top), np.nextafter(values, -top)])


def test_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2 ** 64, size=200_000,
                                                     dtype=np.uint64)
    values = bits.view(np.float64)
    assert_repr(values[np.isfinite(values)])


@pytest.mark.parametrize("values", [
    np.ldexp(1.0, np.arange(-1074, 1024)),
    [float(f"1e{k}") for k in range(-323, 309)],
    np.arange(1, 4, dtype=np.uint64).view(np.float64),         # smallest subnormals
    neighbours([1e-4, 1e16, 2.0 ** 53, sys.float_info.max,
                sys.float_info.min, 5e-324]),
    [0.0],
], ids=["powers-of-two", "powers-of-ten", "smallest-subnormals", "neighbours", "zero"])
def test_listed_doubles(values):
    assert_repr(both_signs(values))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, st.integers(0, 40),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_repr_bytes_equals_repr(values):
    assert_repr(values)


def test_shape_and_dtype_kept():
    values = np.arange(12.0).reshape(3, 4)[:, ::2] / 7.0   # not C-contiguous
    text = repr_bytes(values)
    assert text.dtype == np.dtype(f"S{WIDTH}") and text.shape == values.shape
    assert text.tolist() == [[repr(v).encode() for v in row] for row in values.tolist()]
    assert repr_bytes(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_raises(bad):
    with pytest.raises(DomainError, match="finite"):
        repr_bytes(np.array([1.0, bad, 2.0]))
