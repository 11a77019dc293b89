"""Shortest round-trip decimal strings of float64 arrays, as ``repr`` writes them.

``repr_bytes(values)`` gives, for each element ``v`` of a float64 array, the
ASCII bytes of ``repr(float(v))``: the shortest decimal that reads back as
``v``, the one closest to ``v`` among those, ties to an even last digit.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm behind ``Double.toString`` of JDK 19), done
in ``uint64`` arrays.  Its 128-bit high products are built from 32-bit
limbs, and its table of g(k) ~ 10^-k, k in [-324, 292], holds 126-bit
values split into two 63-bit words, built exactly from Python ints when
the module is imported.  Java's "at least two digits" rule (its
``s >= 100`` guard and the 10x-scaled smallest subnormals) is left out,
since ``repr`` is truly shortest (``5e-324``); trailing zeros are stripped.

The strings take ``repr``'s layout: a decimal exponent X with -4 <= X < 16
is written positionally, an integer ending in ``.0``, and every other value
as ``d[.ddd]e±XX``, with at least two exponent digits; the zeros are
``0.0`` and ``-0.0``.  Each string is one gather from a row holding its
digits and symbols, through one of 750 layout templates: one per sign,
digit count and exponent (positional) or exponent width (exponential).

Every constant of the ``uint64`` arithmetic is a ``np.uint64``, and of the
exponent arithmetic a ``np.int64``, so the results do not depend on how
NumPy promotes Python ints (value-based before NumPy 2, NEP 50 since):
under the old rule a ``uint64`` array meeting a negative Python int becomes
``float64``, and under both rules one meeting an ``int64`` does.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["WIDTH", "repr_bytes"]

WIDTH = 24              # the longest repr of a double: -1.2345678901234567e-308
_BLOCK = 8192           # values formatted at a time, which bounds the temporaries

_U = np.uint64
_I = np.int64
_1, _2, _10, _32, _52, _63 = _U(1), _U(2), _U(10), _U(32), _U(52), _U(63)
_MASK32 = _U(0xFFFF_FFFF)
_MASK52 = _U((1 << 52) - 1)
_MASK63 = _U((1 << 63) - 1)
_C_MIN = _U(1 << 52)    # the hidden bit of a normal double
_EXP_MASK = _U(0x7FF)

_K_MIN, _K_MAX = -324, 292
_X_MIN, _X_MAX = -324, 308      # decimal exponents of the first digit: 5e-324 ... 1.8e308
_NDIG = 17              # digits of a Schubfach result: it is below 2^53 * 10 < 10^17
_POW10 = np.array([10 ** i for i in range(_NDIG + 1)], dtype=np.uint64)

# columns of the per-value source row that the templates index: the 17
# digits, left-aligned; the symbols; the exponent's sign and three digits;
# and NUL, which pads the string to WIDTH and so ends it
_ZERO, _DOT, _MINUS, _E, _EXP_SIGN, _EXP_DIGITS, _NUL = 17, 18, 19, 20, 21, 22, 25
_SRC = _NUL + 1
_X_POS = range(-4, 16)  # the decimal exponents written positionally


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g(k) as its upper and lower 63-bit words, k = _K_MIN ... _K_MAX.

    With 10^-k = beta * 2^r and 2^125 <= beta < 2^126, g(k) = floor(beta) + 1.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            n = 10 ** -k
            r = n.bit_length() - 126
            g = (n >> r if r >= 0 else n << -r) + 1
        else:
            d = 10 ** k
            g = (1 << (125 + d.bit_length())) // d + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


def _quad_digits() -> np.ndarray:
    """The four ASCII digits of 0 ... 9999 as one ``uint32`` each."""
    quads = np.arange(10 ** 4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    return (quads + ord("0")).astype(np.uint8).view(np.uint32).reshape(-1)


def _exponents() -> np.ndarray:
    """The sign and three digits of each decimal exponent, from _X_MIN up, in
    ASCII as one ``uint32`` each."""
    text = "".join(f"{x:+04d}" for x in range(_X_MIN, _X_MAX + 1))
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


def _templates() -> np.ndarray:
    """Source columns of every layout, one row each, NUL-padded to WIDTH, in
    the order ``_format_block`` numbers them: positional (sign, X, digit
    count), then exponential (sign, exponent width, digit count), then the
    two zeros.  Each unsigned string is at most WIDTH - 1 long."""
    p = np.arange(WIDTH - 1)                # the position in the unsigned string
    n = np.arange(1, _NDIG + 1)
    # positional, rows (X, n): digit i stands for 10^(X - i), the string runs
    # from 10^max(X, 0) down to 10^min(X - n + 1, -1), the point after 10^0
    x = np.repeat(_X_POS, _NDIG)[:, None]
    nx = np.tile(n, len(_X_POS))[:, None]
    top = np.maximum(x, 0)
    e = top - p + (p > top)                 # the power of ten at p
    positional = np.select(
        [p == top + 1, e < np.minimum(x - nx + 1, -1), (x - e >= 0) & (x - e < nx)],
        [_DOT, _NUL, x - e], _ZERO)
    # exponential, rows (exponent width, n): the mantissa d[.ddd] is m long
    width = np.repeat([2, 3], _NDIG)[:, None]
    m = np.tile(n + (n > 1), 2)[:, None]
    exponential = np.select(
        [p < m, p == m, p == m + 1, p < m + 2 + width],
        [np.where(p == 1, _DOT, np.maximum(p - 1, 0)), _E, _EXP_SIGN,
         _EXP_DIGITS + 1 - width - m + p], _NUL)
    zero = np.select([p == 1, p < 3], [_DOT, _ZERO], _NUL)[None]     # 0.0
    return np.concatenate([
        np.pad(body, ((0, 0), (pad, 1 - pad)), constant_values=(_MINUS, _NUL))
        for body in (positional, exponential, zero) for pad in (0, 1)]).astype(np.int32)


# the tables, built once, when the module is first imported: only a JSON
# writer imports it
_G1, _G0 = _g_table()
_QUAD_DIGITS = _quad_digits()
_EXPONENTS = _exponents()
_TEMPLATES = _templates()
_N_POS = 2 * len(_X_POS) * _NDIG          # positional templates
_N_EXP = 2 * 2 * _NDIG                    # exponential templates


def _mul_high(a, b):
    """The upper 64 bits of the 128-bit products of two ``uint64`` arrays."""
    a0, a1 = a & _MASK32, a >> _32
    b0, b1 = b & _MASK32, b >> _32
    t = a1 * b0 + ((a0 * b0) >> _32)
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> _32) + (w >> _32)


def _rop(g1, g0, cp):
    """cp * g / 2^127, rounded to odd (g = g1 2^63 + g0)."""
    x1 = _mul_high(g0, cp)
    y0 = g1 * cp                    # the low 64 bits: uint64 products wrap
    y1 = _mul_high(g1, cp)
    z = (y0 >> _1) + x1
    vbp = y1 + (z >> _63)
    return vbp | (((z & _MASK63) + _MASK63) >> _63)


def _digits(bits):
    """Schubfach on nonzero finite doubles given as their bit patterns: the
    shortest decimal f * 10^k in the rounding interval, closest to the value,
    ties to even, as (f, k)."""
    bq = (bits >> _52) & _EXP_MASK
    t = bits & _MASK52
    normal = bq != _U(0)
    c = np.where(normal, t | _C_MIN, t)
    q = np.where(normal, bq.astype(np.int64) - _I(1075), _I(-1074))
    # a power of two above the smallest normal has a closer lower neighbour
    irregular = (t == _U(0)) & (bq > _1)
    odd = c & _1                    # the interval is open for odd c
    cb = c << _2
    cbl = cb - np.where(irregular, _1, _2)
    cbr = cb + _2
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular;
    # h = q + floor(log2(10^-k)) + 2
    k = (q * _I(661_971_961_083) - irregular * _I(274_743_187_321)) >> _I(41)
    h = (q + ((-k * _I(913_124_641_741)) >> _I(38)) + _I(2)).astype(np.uint64)
    g1, g0 = _G1[k - _K_MIN], _G0[k - _K_MIN]
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, cbl << h) + odd
    vbr = _rop(g1, g0, cbr << h) - odd
    s = vb >> _2
    # a multiple of 10^(k+1) in the interval is shorter; at most one is
    sp10 = s // _10 * _10
    tp10 = sp10 + _10
    upin = vbl <= sp10 << _2
    wpin = (tp10 << _2) <= vbr
    # else one of s, s + 1 is in it, or both, and the closer one is taken
    sp1 = s + _1
    uin = vbl <= s << _2
    win = (sp1 << _2) <= vbr
    mid = (s + sp1) << _1
    lower = (vb < mid) | ((vb == mid) & ((s & _1) == _U(0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, sp1),
                          np.where(lower, s, sp1)))
    return f, k


def _format_block(bits, out):
    """The repr bytes of the doubles with bit patterns ``bits`` into the
    uint8 rows ``out`` (WIDTH columns)."""
    negative = (bits >> _63).astype(np.intp)
    magnitude = bits & ~(_1 << _63)
    zero = magnitude == _U(0)
    # a zero takes the smallest subnormal's path; its template drops the digits
    f, k = _digits(np.where(zero, _1, magnitude))
    # f has nd digits; scaled to 17 digits its first digit is nonzero
    nd = np.searchsorted(_POW10, f, side="right")
    f = (f * _POW10[_NDIG - nd]).astype(np.int64)
    x = k + nd - _I(1)              # the decimal exponent of the first digit
    src = np.empty((len(bits), _SRC), dtype=np.uint8)
    hi, lo = np.divmod(f, _I(10 ** 8))          # 9 and 8 digits
    top, hi = np.divmod(hi, _I(10 ** 8))
    src[:, 0] = top + _I(ord("0"))
    quads = np.stack(np.divmod(hi, _I(10 ** 4)) + np.divmod(lo, _I(10 ** 4)), axis=1)
    src[:, 1:_NDIG] = _QUAD_DIGITS.take(quads).view(np.uint8)
    src[:, _ZERO:_EXP_SIGN] = np.frombuffer(b"0.-e", dtype=np.uint8)
    src[:, _EXP_SIGN:_NUL] = _EXPONENTS.take(x - _I(_X_MIN)).view(np.uint8).reshape(-1, 4)
    src[:, _NUL] = 0
    # significant digits: up to the last nonzero one
    n = _NDIG - np.argmax(src[:, _NDIG - 1::-1] != np.uint8(ord("0")), axis=1)
    positional = (x >= _I(_X_POS.start)) & (x < _I(_X_POS.stop))
    layout = np.where(
        positional,
        (negative * len(_X_POS) + (x - _I(_X_POS.start))) * _NDIG + n - 1,
        _N_POS + (negative * 2 + (np.abs(x) >= _I(100))) * _NDIG + n - 1)
    layout[zero] = _N_POS + _N_EXP + negative[zero]
    index = _TEMPLATES.take(layout, axis=0)
    index += np.arange(0, len(bits) * _SRC, _SRC, dtype=np.int32)[:, None]
    src.reshape(-1).take(index, out=out)


def repr_bytes(values) -> np.ndarray:
    """``repr(float(v))`` of each element of ``values``, as ASCII bytes in an
    array of dtype ``S24`` of the same shape.

    Raises ``DomainError`` if any value is not finite.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise DomainError("repr_bytes: values must be finite")
    bits = v.reshape(-1).view(np.uint64)
    out = np.empty((len(bits), WIDTH), dtype=np.uint8)
    for i in range(0, len(bits), _BLOCK):
        _format_block(bits[i:i + _BLOCK], out[i:i + _BLOCK])
    return out.view(f"S{WIDTH}").reshape(v.shape)
