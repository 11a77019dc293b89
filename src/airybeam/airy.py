"""Real-argument Airy functions Ai, Bi, their derivatives, and Ci = Bi + i*Ai.

Every function takes a float or a NumPy array of any shape and returns the
same shape; a float in gives NumPy float64 scalars out.  NumPy is the only
dependency.  Three branches:

* x <= -X_SWITCH: the oscillatory asymptotic expansions.  Detector
  geometries reach x ~ -1e7; phase fidelity degrades slowly there as
  eps * |x|^(3/2).
* -X_SWITCH < x <= _SCALED: a Taylor expansion about the nearest of 71
  anchors spaced 0.25 apart on [-9.5, 8].  The anchor values of Ai, Ai', Bi
  and Bi' are a frozen mpmath table (``tools/airy_anchors.py``); the higher
  derivatives follow from the Airy equation, y^(n+2) = x0 y^(n) + n y^(n-1),
  and form an (anchor, function, term) coefficient table once, at import.
  Within 0.125 of an anchor, 15 terms leave a truncation error below 1e-18
  of the local size sqrt(Ai^2 + Bi^2).
* x > _SCALED = 8, the one handover to the deep tunneling region for every
  evaluator: the asymptotic series of Ai e^s, Ai' e^s, Bi e^-s and Bi' e^-s,
  s = 2/3 x^(3/2), whose optimal truncation error is about e^(-2 s), below
  1e-13 from x = 8 up.  ``airy_scaled`` returns these mantissas with the
  exponent s (and s = 0 at and below 8, so callers that combine exponents
  in log space need no threshold of their own); ``airy_all`` multiplies the
  exponent back in.

``airy_bracket_scaled`` gives the log of the emission bracket Ai'^2 - x Ai^2
in the same form, (m, s) with log bracket = m - 2 s: from ``airy_scaled``'s
values at and below _SCALED, above it from the series of v_k - u_k, in
which the bracket's two terms, cancelling to O(1/s), subtract exactly.

The Taylor sums and the asymptotic series are both evaluated blockwise: up
to _BLOCK points at a time form one (points, terms) matrix.  One engine,
``_truncated_sums``, sums every asymptotic series from rows of precomputed
coefficients, truncated together and in order of k.  A scalar costs a few
dozen NumPy calls however many terms it needs, and memory stays bounded
for any number of points.

Arguments above X_MAX raise RangeError in ``airy_all`` (Bi overflows
there), and every function raises it where 2/3 |x|^(3/2) leaves double
range; a NaN anywhere in the input raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

__all__ = [
    "ComplexAiryPair",
    "airy_all",
    "airy_scaled",
    "airy_bracket_log",
    "airy_bracket_scaled",
    "X_MAX",
    "X_SCALED_MAX",
    "X_SWITCH",
]

_SQRT_PI = math.sqrt(math.pi)

X_MAX = 100.0          # beyond this exp(zeta) in Bi nears double overflow
X_SWITCH = 9.0         # Taylor / oscillatory-asymptotic handover at -X_SWITCH
_SCALED = 8.0          # exponent-scaled values and the bracket series above this
X_SCALED_MAX = 2.0**20
"""Callers that subtract exponents raise RangeError from here up.  The
exponent s = 2/3 x^(3/2) is about 7e8 at 2^20 and its ulp near 1e-7, so a
difference s_+ - s_- formed in log space (a Green function) would lose more
digits than any accuracy budget of the package allows."""
_S_FINITE_MAX = float(np.finfo(float).max) ** (2.0 / 3.0)  # 2/3 |x|^1.5 finite


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
# the sums for x > 0: alternating ones of u_k and v_k (Ai, Ai') and
# same-sign ones (Bi, Bi'); the bracket's are the alternating ones of u_k,
# v_k and v_k - u_k = u_k * 12k/(1 - 6k)
_POSITIVE_ROWS = np.array([_ALTERNATING * _U, _ALTERNATING * _V, _U, _V])
_BRACKET_ROWS = np.array([*_POSITIVE_ROWS[:2],
                          _ALTERNATING * _U * 12.0 * _K / (1.0 - 6.0 * _K)])

_ANCHORS = np.array([
    # Ai, Ai', Bi, Bi' at x = -9.5 + 0.25 k; generated by tools/airy_anchors.py
    (0.3191032477191282, -0.10809531881187123, 0.0377854324894665, 0.9847140700021197),  # -9.5
    (0.2052398087603554, -0.7550497682678933, 0.250031393210197, 0.6310848829135725),  # -9.25
    (-0.022133721547341403, -0.9756639809263316, 0.3249473234552449, -0.05740051384366925),  # -9.0
    (-0.2382300384596355, -0.6738561861206686, 0.22545479688945758, -0.6984248404822483),  # -8.75
    (-0.33029023763020887, -0.03231334828463914, 0.007754436447658404, -0.9629691651201748),  # -8.5
    (-0.25453632099656065, 0.6085182968874139, -0.21448052514923605, -0.737790825172636),  # -8.25
    (-0.0527050503563862, 0.9355609381983065, -0.33125158075113786, -0.1594504978129814),  # -8.0
    (0.17497790079676515, 0.8112327355065283, -0.28928347775979935, 0.47796698213339683),  # -7.75
    (0.3217757163806479, 0.3188095066985546, -0.1124634850764908, 0.8778022815457609),  # -7.5
    (0.32374057321118616, -0.30022899504735406, 0.11559126100955656, 0.8760287141075456),  # -7.25
    (0.18428083525050565, -0.7710081684101265, 0.293762071854414, 0.4982445900581135),  # -7.0
    (-0.03338479058876496, -0.9067040516921281, 0.34834099353641845, -0.07391677258832668),  # -6.75
    (-0.2380203019971158, -0.6749524925132022, 0.26101265763648396, -0.597170666291622),  # -6.5
    (-0.3496120516108905, -0.19108625952341715, 0.07081689932751649, -0.8717598503139108),  # -6.25
    (-0.3291451736298231, 0.3459354872813429, -0.14669837667055705, -0.812898785105067),  # -6.0
    (-0.18884209899944737, 0.7391656870866844, -0.31140956567771105, -0.4666682962707235),  # -5.75
    (0.017781541276574976, 0.8641972177713984, -0.367813453915712, 0.025111583073630928),  # -5.5
    (0.21900944784501322, 0.701566726175189, -0.30134724356074716, 0.48808253766570997),  # -5.25
    (0.35076100902411433, 0.32719281855444315, -0.13836913490160058, 0.7784117730018992),  # -5.0
    (0.37593203432914213, -0.12709960620642027, 0.0672256985438391, 0.8239934298887289),  # -4.75
    (0.2921527810559595, -0.5233625323157477, 0.2538726576969326, 0.6347447677736637),  # -4.5
    (0.12778292722826728, -0.759267412057374, 0.3711782022295195, 0.2855340220818127),  # -4.25
    (-0.07026553294928951, -0.7906285753685813, 0.3922347057069993, -0.1166705674383409),  # -4.0
    (-0.2516127030142227, -0.6324539662611763, 0.3171854292996667, -0.46780111644962985),  # -3.75
    (-0.37553382314043193, -0.34344343345404815, 0.16893983748105862, -0.6931162849072888),  # -3.5
    (-0.4190132668052308, -0.0024538481879481863, -0.016033574738987262, -0.759759309220364),  # -3.25
    (-0.37881429367765806, 0.3145837692165988, -0.19828962637492653, -0.6756112226852585),  # -3.0
    (-0.2684905459125971, 0.5513380742629775, -0.3443758653395255, -0.4783868993534789),  # -2.75
    (-0.11232506769296609, 0.6788527342647943, -0.4324224718407053, -0.2204201548746296),  # -2.5
    (0.06159865877700528, 0.6950162067015286, -0.4539206867501173, 0.0459044464849105),  # -2.25
    (0.22740742820168558, 0.618259020741691, -0.4123025879563985, 0.2787951669211695),  # -2.0
    (0.36548325221423156, 0.4786515716673063, -0.31950313860456897, 0.4524946238607341),  # -1.75
    (0.4642565777488694, 0.3091869672024104, -0.19178486115704121, 0.5579081030218973),  # -1.5
    (0.5200454774352992, 0.13907956335191776, -0.045867468727426905, 0.5998141935575834),  # -1.25
    (0.5355608832923521, -0.01016056711664521, 0.1039973894969446, 0.5923756264227924),  # -1.0
    (0.5177725751515836, -0.1259905473379542, 0.24777972988945587, 0.5544750652575957),  # -0.75
    (0.4757280916105396, -0.20408167033954738, 0.38035265975105387, 0.5059337136238472),  # -0.5
    (0.41872461427545293, -0.24638918992017597, 0.5013998734692334, 0.4651514883371537),  # -0.25
    (0.3550280538878172, -0.2588194037928068, 0.6149266274460007, 0.4482883573538264),  # 0.0
    (0.2911639543485452, -0.24906211200489714, 0.728746903936215, 0.4698611937679594),  # 0.25
    (0.23169360648083348, -0.2249105326646839, 0.8542770431031554, 0.5445725641405923),  # 0.5
    (0.17933630547864524, -0.19317520810437647, 1.0069309086332163, 0.6902997027368862),  # 0.75
    (0.13529241631288141, -0.1591474412967932, 1.2074235949528713, 0.9324359333927756),  # 1.0
    (0.09964454475691667, -0.12648662068538938, 1.484388275495106, 1.310203481283301),  # 1.25
    (0.07174949700810541, -0.09738201284230132, 1.878941503747895, 1.8862122548481655),  # 1.5
    (0.05056988080579487, -0.07285371376202839, 2.4522706944960597, 2.76158173036392),  # 1.75
    (0.03492413042327438, -0.05309038443365363, 3.2980949999782148, 4.10068204993289),  # 2.0
    (0.023654658557747447, -0.037758570992018514, 4.563205831248325, 6.172558124098831),  # 2.25
    (0.01572592338047049, -0.026250881035903232, 6.481660738460579, 9.421423317334302),  # 2.5
    (0.010269209855011988, -0.017864093772294476, 9.432379026465085, 14.588170353347971),  # 2.75
    (0.006591139357460719, -0.011912976705951319, 14.037328963730232, 22.92221496638217),  # 3.0
    (0.004160454618117256, -0.007792687926790721, 21.330904950747563, 36.554851492504234),  # 3.25
    (0.002584098786989635, -0.005004413967952583, 33.05550675461148, 59.164319581360985),  # 3.5
    (0.0015800717179210132, -0.003157514753239784, 52.183238481470354, 97.17314667763289),  # 3.75
    (0.0009515638512048018, -0.001958640950204179, 83.84707140846814, 161.9266835046134),  # 4.0
    (0.0005646398353425014, -0.0011952051345449142, 137.0213459913343, 273.69884347417764),  # 4.25
    (0.00033025032351430896, -0.0007178665675575089, 227.58808183559972, 469.13507732796637),  # 4.5
    (0.0001904614592681605, -0.0004245926894565621, 383.99305814882416, 815.226563360096),  # 4.75
    (0.00010834442813607442, -0.0002474138908684625, 657.7920441711711, 1435.8190802179824),  # 5.0
    (6.081011452242365e-05, -0.00014209461719726815, 1143.5264161199163, 2562.418095312227),  # 5.25
    (3.368531190859981e-05, -8.046339130556515e-05, 2016.5800386595313, 4632.553733139042),  # 5.5
    (1.8421246197730245e-05, -4.494062122298348e-05, 3606.0459066549993, 8482.15920372264),  # 5.75
    (9.947694360252889e-06, -2.4765200397034955e-05, 6536.446104809864, 15725.602621930477),  # 6.0
    (5.3058617487520814e-06, -1.3469113451450983e-05, 12006.22219746056, 29513.908333494786),  # 6.25
    (2.7958823432049136e-06, -7.231931466601793e-06, 22340.607718396997, 56062.49584252286),  # 6.5
    (1.4558127445788758e-06, -3.834455740949934e-06, 42100.37948672694, 107759.6311400062),  # 6.75
    (7.492128863997167e-07, -2.008150894738792e-06, 80327.79070943025, 209552.6708739713),  # 7.0
    (3.8115630183373774e-07, -1.0390462946280257e-06, 155141.4326275031, 412195.08824343816),  # 7.25
    (1.9172560675134309e-07, -5.312713959720545e-07, 303229.6151125334, 819987.8353587997),  # 7.5
    (9.537038961641585e-08, -2.6849288679532617e-07, 599656.6290060069, 1649425.4391610166),  # 7.75
    (4.6922076160992316e-08, -1.3414392979067865e-07, 1199586.00412446, 3354342.3127445388),  # 8.0
])
_ANCHOR_LO = -9.5
_ANCHOR_STEP = 0.25
_ANCHOR_X = _ANCHOR_LO + _ANCHOR_STEP * np.arange(len(_ANCHORS))
_TAYLOR_TERMS = 15


def _taylor_coefficients(anchors: np.ndarray, x0: np.ndarray, n: int) -> np.ndarray:
    """(anchor, function, term) Taylor coefficients of Ai, Ai', Bi, Bi'.

    ``anchors`` holds (Ai, Ai', Bi, Bi') at each x0.  The coefficients
    c_k = y^(k)(x0)/k! of y = Ai and Bi follow from y'' = x y, which gives
    c_(k+2) = (x0 c_k + c_(k-1)) / ((k+1)(k+2)); the derivative's are
    (k+1) c_(k+1).
    """
    c = np.zeros((len(anchors), 2, n + 1))
    c[:, :, 0] = anchors[:, [0, 2]]
    c[:, :, 1] = anchors[:, [1, 3]]
    for k in range(n - 1):
        before = c[:, :, k - 1] if k else 0.0
        c[:, :, k + 2] = (x0[:, None] * c[:, :, k] + before) / ((k + 1) * (k + 2))
    d = c[:, :, 1:] * np.arange(1, n + 1)
    return np.stack([c[:, 0, :n], d[:, 0], c[:, 1, :n], d[:, 1]], axis=1)


_TAYLOR = _taylor_coefficients(_ANCHORS, _ANCHOR_X, _TAYLOR_TERMS)


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
    """x as a float array; DomainError on NaN, RangeError where 2/3 |x|^1.5 overflows."""
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError(f"{name}: argument is NaN")
    if np.any(np.abs(x) > _S_FINITE_MAX):
        raise RangeError(f"{name}: 2/3 |x|^1.5 leaves double range above |x| = "
                         f"{_S_FINITE_MAX:.3g}, got x from {x.min()} to {x.max()}")
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


def _oscillatory(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Ai, Ai', Bi, Bi') from the oscillatory expansions at flat x <= -X_SWITCH."""
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


def _taylor(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Ai, Ai', Bi, Bi') at flat x within 0.125 of [-9.5, 8], each point
    from its nearest anchor."""
    out = np.empty((4, x.size))
    for b in _blocks(x.size):
        k = np.rint((x[b] - _ANCHOR_LO) / _ANCHOR_STEP).astype(np.intp)
        powers = np.vander(x[b] - _ANCHOR_X[k], _TAYLOR_TERMS, increasing=True)
        out[:, b] = np.einsum("pfn,pn->fp", _TAYLOR[k], powers)
    return tuple(out)


def _positive_scaled(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Ai e^s, Ai' e^s, Bi e^-s, Bi' e^-s, s), s = 2/3 x^(3/2), from the
    asymptotic series at flat x > _SCALED = 8."""
    s = (2.0 / 3.0) * x**1.5
    su, sv, sbu, sbv = _truncated_sums(s, _POSITIVE_ROWS)
    x4 = x**0.25
    return (su / (2.0 * _SQRT_PI * x4), -x4 * sv / (2.0 * _SQRT_PI),
            sbu / (_SQRT_PI * x4), x4 * sbv / _SQRT_PI, s)


def _piecewise(x: np.ndarray, parts, n: int) -> list[np.ndarray]:
    """n flat outputs, each (mask, branch) pair filling them where its mask
    holds with the n values branch(x[mask])."""
    out = [np.empty_like(x) for _ in range(n)]
    for mask, branch in parts:
        if mask.any():
            for o, v in zip(out, branch(x[mask])):
                o[mask] = v
    return out


def airy_all(x) -> ComplexAiryPair:
    """Evaluate Ai, Ai', Bi, Bi' (and Ci, Ci') at real arguments.

    The ``airy_scaled`` values with their exponent multiplied in.  Raises
    RangeError if any x > X_MAX, where Bi overflows, and DomainError on NaN.
    """
    x = _argument(x, "airy_all")
    if np.any(x > X_MAX):
        raise RangeError(f"airy_all: x = {x.max()} > {X_MAX}; Bi would overflow")
    ai_s, aip_s, bi_s, bip_s, s = airy_scaled(x)
    down, up = np.exp(-s), np.exp(s)
    return ComplexAiryPair(ai_s * down, aip_s * down, bi_s * up, bip_s * up)


def airy_scaled(x):
    """Ai, Ai', Bi, Bi' as mantissas with one exponent, at any real x.

    Returns (ai_s, aip_s, bi_s, bip_s, s) with Ai = ai_s*exp(-s),
    Ai' = aip_s*exp(-s), Bi = bi_s*exp(+s) and Bi' = bip_s*exp(+s).  Above
    _SCALED these come from the scaled asymptotic series with
    s = 2/3 x^(3/2); at and below it they are the Taylor or oscillatory
    values with s = 0.  ``airy_all`` is these values times their exponents,
    so both hand over at _SCALED.  Never overflows, which the current
    formulas rely on deep in the tunneling regime.  RangeError where
    2/3 |x|^(3/2) leaves double range (|x| > 3.2e205); DomainError on NaN.
    """
    x = _argument(x, "airy_scaled")
    flat = x.ravel()
    osc, scaled = flat <= -X_SWITCH, flat > _SCALED
    out = _piecewise(flat, ((osc, _unscaled(_oscillatory)),
                            (~osc & ~scaled, _unscaled(_taylor)),
                            (scaled, _positive_scaled)), 5)
    return tuple(_shaped(v, x.shape) for v in out)


def _unscaled(branch):
    """``branch`` with the exponent s = 0 appended to its four values."""
    return lambda v: (*branch(v), np.zeros_like(v))


def airy_bracket_scaled(x):
    """The emission bracket Ai'(x)^2 - x*Ai(x)^2 of the total currents, as
    its log split in two: (m, s) with log bracket = m - 2 s.

    Above _SCALED, s = 2/3 x^(3/2) and m comes from the asymptotic series,
    in which the bracket's two terms, which cancel to O(1/s), are subtracted
    exactly; at and below it, s = 0 and m is formed from ``airy_scaled``'s
    values.  A caller can so cancel -2 s against an exponent of its own in
    closed form.  The bracket equals the integral of Ai^2 from x to
    infinity, hence is positive for every real x.  DomainError on NaN.
    """
    x = _argument(x, "airy_bracket_scaled")
    flat = x.ravel()
    series = flat > _SCALED

    def direct(v):
        ai, aip = airy_scaled(v)[:2]
        return np.log(aip**2 - v * ai**2), np.zeros_like(v)
    out = _piecewise(flat, ((~series, direct), (series, _bracket_series)), 2)
    return tuple(_shaped(v, x.shape) for v in out)


def airy_bracket_log(x):
    """log of Ai'(x)^2 - x*Ai(x)^2: m - 2 s of ``airy_bracket_scaled``,
    with ~12 significant digits even at x ~ 1e3."""
    m, s = airy_bracket_scaled(_argument(x, "airy_bracket_log"))
    return m - 2.0 * s


def _bracket_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The emission bracket's (m, s) from its asymptotic series, at flat
    x > _SCALED."""
    s = (2.0 / 3.0) * x**1.5
    su, sv, diff = _truncated_sums(s, _BRACKET_ROWS)
    # Ai'^2 - x Ai^2 = exp(-2 s) * sqrt(x)/(4 pi) * (sv - su)(sv + su)
    return np.log(np.sqrt(x) / (4.0 * math.pi) * diff * (sv + su)), s
