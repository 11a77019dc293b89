"""Real-argument Airy functions Ai, Bi, their derivatives, and Ci = Bi + i*Ai.

Every function takes a float or a NumPy array of any shape and returns the
same shape; a float in gives NumPy float64 scalars out.  Three branches:

* ``scipy.special.airy`` for x > -X_SWITCH, and ``scipy.special.airye``
  above _SCALED in ``airy_scaled``.  Both match the frozen mpmath panel of
  ``tests/airy_reference.py`` to ~1e-13 relative.
* oscillatory asymptotic expansions for x <= -X_SWITCH: scipy returns NaN
  below x ~ -2**20, and detector geometries reach x ~ -1e7.  Phase fidelity
  degrades slowly there as eps * |x|^(3/2).
* the asymptotic difference series of the emission bracket
  Ai'^2 - x Ai^2 above _SCALED, where the two terms cancel to O(1/zeta) even
  when the values are exponentially scaled.

One constant, _SCALED = 8, decides where the deep tunneling region starts:
above it ``airy_scaled`` carries Ai and Bi as a mantissa and an exponent
s = 2/3 x^(3/2), and ``airy_bracket_log`` sums its series.  At and below it
``airy_scaled`` returns the ``airy_all`` values with s = 0, so callers that
combine exponents in log space need no threshold of their own.

The asymptotic series are summed from a precomputed coefficient vector u_k:
the powers zeta^-k of up to _BLOCK points at a time form one term matrix,
each point's terms past its truncation index are masked off, and the rest
are summed in order of k.  A scalar costs a few dozen NumPy calls however
many terms it needs, and memory stays bounded for any number of points.

Arguments above X_MAX raise RangeError in ``airy_all`` (Bi overflows
there); a NaN anywhere in the input raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, RangeError

__all__ = [
    "ComplexAiryPair",
    "airy_all",
    "airy_modulus_asymptotic",
    "airy_scaled",
    "airy_bracket_log",
    "X_MAX",
    "X_SWITCH",
]

_SQRT_PI = math.sqrt(math.pi)

X_MAX = 100.0          # beyond this exp(zeta) in Bi nears double overflow
X_SWITCH = 9.0         # scipy / oscillatory-asymptotic handover at -X_SWITCH
_SCALED = 8.0          # exponent-scaled values and the bracket series above this


def _series_coefficients(n: int) -> tuple[np.ndarray, np.ndarray]:
    """u_k and v_k = u_k (6k+1)/(1-6k) of the Airy asymptotic expansions."""
    u = np.empty(n)
    u[0] = 1.0
    for k in range(1, n):
        u[k] = u[k - 1] * ((6 * k - 5) * (6 * k - 3) * (6 * k - 1)
                           / (216.0 * k * (2 * k - 1)))
    k = np.arange(n)
    return u, u * (6 * k + 1) / (1 - 6 * k)


# The smallest series argument is zeta = 2/3 * 8^1.5 ~ 15; its terms start
# growing near k = 2 zeta ~ 30, so 60 terms always reach the truncation point.
_TERMS = 60
_BLOCK = 1024          # points per (points, _TERMS) term matrix: 480 kB
_U, _V = _series_coefficients(_TERMS)
_K = np.arange(_TERMS)
_ALTERNATING = (-1.0) ** _K
_EVEN = _K % 2 == 0
_QUARTER_PHASE = (-1.0) ** (_K // 2)
# rows of the oscillatory sums P, Q (from u_k) and R, S (from v_k): even and
# odd k, each with the phase (-1)^(k//2)
_SPLIT_ROWS = np.array([
    np.where(_EVEN, _QUARTER_PHASE * _U, 0.0),
    np.where(_EVEN, 0.0, _QUARTER_PHASE * _U),
    np.where(_EVEN, _QUARTER_PHASE * _V, 0.0),
    np.where(_EVEN, 0.0, _QUARTER_PHASE * _V),
])
# the alternating sums of u_k and v_k, and of their difference
# v_k - u_k = u_k * 12k/(1 - 6k)
_ALTERNATING_ROWS = np.array([_ALTERNATING * _U, _ALTERNATING * _V])
_DIFFERENCE = _ALTERNATING * _U * 12.0 * _K / (1.0 - 6.0 * _K)


@dataclass(frozen=True)
class ComplexAiryPair:
    """Values of Ai, Bi, their derivatives, and Ci = Bi + i*Ai (floats or arrays)."""

    ai: float | np.ndarray
    ai_prime: float | np.ndarray
    bi: float | np.ndarray
    bi_prime: float | np.ndarray

    @property
    def ci(self) -> complex | np.ndarray:
        return self.bi + 1j * self.ai

    @property
    def ci_prime(self) -> complex | np.ndarray:
        return self.bi_prime + 1j * self.ai_prime


def _argument(x, name: str) -> np.ndarray:
    """x as a float array; DomainError if any element is NaN."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError(f"{name}: argument is NaN")
    return x


def _shaped(values: np.ndarray, shape):
    """A flat result in the caller's shape; a scalar for a scalar input."""
    return values.reshape(shape)[()]


def _prefix(ok: np.ndarray) -> np.ndarray:
    """Per row, the number of leading True entries of ``ok``."""
    return np.logical_and.accumulate(ok, axis=1).sum(axis=1)


def _blocks(n: int):
    return (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))


def _truncated_sums(zeta: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Optimally truncated sums  sum_k rows[j, k] zeta^-k,  one per row j.

    All rows share the truncation of u_k zeta^-k: a point's sum stops before
    its first term that is not smaller than the one before (the expansion
    has started to diverge), or after its first term below 1e-19.  Each
    point's terms are summed in order of k.
    """
    out = np.empty((rows.shape[0], zeta.size))
    for b in _blocks(zeta.size):
        zk = zeta[b, None] ** -_K
        term = _U * zk
        shrinks = term[:, 1:] < term[:, :-1]
        above = np.ones_like(shrinks)
        above[:, 1:] = term[:, 1:-1] >= 1e-19
        last = _prefix(shrinks & above)
        width = last.max() + 1
        sums = np.cumsum(rows[:, None, :width] * zk[None, :, :width], axis=2)
        out[:, b] = np.take_along_axis(sums, last[None, :, None], axis=2)[..., 0]
    return out


def _difference_sum(zeta: np.ndarray) -> np.ndarray:
    """sum_k (-1)^k (v_k - u_k) zeta^-k, truncated before its first term that
    is not smaller than the one before, or after one below 1e-22 of the
    running sum."""
    out = np.empty_like(zeta)
    for b in _blocks(zeta.size):
        term = _DIFFERENCE * zeta[b, None] ** -_K
        size = np.abs(term)
        sums = np.cumsum(term, axis=1)
        shrinks = np.ones(size[:, 1:].shape, dtype=bool)
        shrinks[:, 1:] = size[:, 2:] < size[:, 1:-1]
        above = np.ones_like(shrinks)
        above[:, 1:] = ~(size[:, 1:-1] < 1e-22 * np.abs(sums[:, 1:-1]))
        last = _prefix(shrinks & above)
        out[b] = sums[np.arange(last.size), last]
    return out


def _oscillatory(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Ai, Ai', Bi, Bi') from the oscillatory expansions at flat x <= -8."""
    z = -x
    zeta = (2.0 / 3.0) * z**1.5
    P, Q, R, S = _truncated_sums(zeta, _SPLIT_ROWS)
    c = np.cos(zeta - 0.25 * math.pi)
    s = np.sin(zeta - 0.25 * math.pi)
    z4 = z**0.25
    ai = (c * P + s * Q) / (_SQRT_PI * z4)
    aip = (s * R - c * S) * z4 / _SQRT_PI
    bi = (-s * P + c * Q) / (_SQRT_PI * z4)
    bip = (c * R + s * S) * z4 / _SQRT_PI
    return ai, aip, bi, bip


def _values(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Ai, Ai', Bi, Bi') at flat x: scipy above -X_SWITCH, asymptotics below."""
    osc = x <= -X_SWITCH
    if not osc.any():
        return special.airy(x)
    if osc.all():
        return _oscillatory(x)
    out = tuple(np.empty_like(x) for _ in range(4))
    mid = ~osc
    for o, v in zip(out, special.airy(x[mid])):
        o[mid] = v
    for o, v in zip(out, _oscillatory(x[osc])):
        o[osc] = v
    return out


def airy_modulus_asymptotic(x):
    """(Ai, Ai', Bi, Bi') from the oscillatory asymptotic expansions, x <= -8."""
    x = _argument(x, "airy_modulus_asymptotic")
    if not np.all(x <= -8.0):
        raise DomainError(f"oscillatory asymptotics need x <= -8, got {x.max()}")
    return tuple(_shaped(v, x.shape) for v in _oscillatory(x.ravel()))


def airy_all(x) -> ComplexAiryPair:
    """Evaluate Ai, Ai', Bi, Bi' (and Ci, Ci') at real arguments.

    Raises RangeError if any x > X_MAX, where Bi overflows, and DomainError
    on NaN.
    """
    x = _argument(x, "airy_all")
    if np.any(x > X_MAX):
        raise RangeError(f"airy_all: x = {x.max()} > {X_MAX}; Bi would overflow")
    return ComplexAiryPair(*(_shaped(v, x.shape) for v in _values(x.ravel())))


def airy_scaled(x):
    """Ai, Ai', Bi, Bi' as mantissas with one exponent, at any real x.

    Returns (ai_s, aip_s, bi_s, bip_s, s) with Ai = ai_s*exp(-s),
    Ai' = aip_s*exp(-s), Bi = bi_s*exp(+s) and Bi' = bip_s*exp(+s).  Above
    _SCALED these are the ``airye`` values with s = 2/3 x^(3/2); at and below
    it they are exactly the ``airy_all`` values with s = 0.  Never overflows,
    which the current formulas rely on deep in the tunneling regime.
    DomainError on NaN.
    """
    x = _argument(x, "airy_scaled")
    flat = x.ravel()
    scaled = flat > _SCALED
    out = [np.empty_like(flat) for _ in range(4)]
    s = np.zeros_like(flat)
    for part, values in ((~scaled, _values), (scaled, special.airye)):
        if part.any():
            for o, v in zip(out, values(flat[part])):
                o[part] = v
    s[scaled] = (2.0 / 3.0) * flat[scaled]**1.5
    return tuple(_shaped(v, x.shape) for v in (*out, s))


def airy_bracket_log(x):
    """log of Ai'(x)^2 - x*Ai(x)^2, the emission bracket of the total currents.

    The bracket equals the integral of Ai^2 from x to infinity, hence is
    positive for every real x.  Above _SCALED the two terms cancel to O(1/zeta);
    the difference is then formed inside the asymptotic series where it is
    exact, keeping ~12 significant digits even at x ~ 1e3.
    """
    x = _argument(x, "airy_bracket_log")
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat > _SCALED
    if not series.all():
        xd = flat[~series]
        ai, aip, _, _ = _values(xd)
        out[~series] = np.log(aip**2 - xd * ai**2)
    if series.any():
        out[series] = _bracket_series_log(flat[series])
    return _shaped(out, x.shape)


def _bracket_series_log(x: np.ndarray) -> np.ndarray:
    """The emission bracket's log from its asymptotic series, at flat x > 7.5."""
    zeta = (2.0 / 3.0) * x**1.5
    su, sv = _truncated_sums(zeta, _ALTERNATING_ROWS)
    diff = _difference_sum(zeta)
    # Ai'^2 - x Ai^2 = exp(-2 zeta) * sqrt(x)/(4 pi) * (sv - su)(sv + su)
    return -2.0 * zeta + np.log(np.sqrt(x) / (4.0 * math.pi) * diff * (sv + su))
