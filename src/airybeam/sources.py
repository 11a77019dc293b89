"""Point and Gaussian quantum sources in a uniform force field.

A source sigma(r) added to the stationary Schrodinger equation emits the
scattering wave psi(r) = integral G(r,r';E) sigma(r') d3r'.  This module
provides the emitted wavefunctions, the current density j_z, the total
currents J(E) (exact, saddle-point/slicing, and quadrature reference), and
the sum-rule validation integral.

Gaussian-source quantities use the shifted dimensionless parameters

    alpha = beta*F*a,   zeta~ = zeta + 2 alpha^4,
    eps~  = eps + 4 alpha^4,  rho~^2 = xi^2 + nu_y^2 + zeta~^2,

under which the far field is exactly a point source displaced upstream by
2 alpha^4 (scaled) carrying the weight

    Lambda(eps~) = hbar*Omega*(2 sqrt(pi) a)^(3/2) * exp(2 alpha^2 (eps~ - 4 alpha^4/3)).

Every observable is assembled by one rule, ``_times_exp``, as pref * mant *
e^exponent with its weights combined in log space: for wide sources Lambda
overflows while every observable stays moderate, and in deep tunnelling
e^exponent alone underflows while the observable is still a double.

The closed forms take arrays: the components of ``r`` and the energy
broadcast against each other, and scalars in give scalars out.  The sum rule
and the near segment of the psi reference integrate with
``quadrature.gauss_kronrod``, which hands the integrand arrays of nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import airy
# Unused here, and ``airy_bracket_log`` has no runtime caller: these names
# stay bound because perfbench/tracing.py wraps them by name, and its
# per-call counter needs a scalar argument.
from .airy import airy_all, airy_bracket_log, airy_scaled  # noqa: F401
from .errors import ConvergenceError, DomainError, RangeError
from .green import _bracket_scaled, _g_time_scaled, green_closed
# bound as ``quad`` so that instrumentation can wrap it (perfbench/tracing.py)
from .quadrature import gauss_kronrod as quad
from .scaling import PhysicalSystem

__all__ = [
    "PointSource", "GaussianSource", "SourceModel", "GaussianScaled",
    "gaussian_scaled", "source_amplitude", "equivalent_point_strength",
    "psi_point", "current_density_point", "total_current_point",
    "psi_gauss_far", "psi_gauss_near", "psi_gauss_quadrature",
    "current_density_gauss", "total_current_gauss", "total_current_slicing",
    "sum_rule_check", "virtual_source_shift",
]

_FAR_FIELD_HARD = 3.0   # rho~ < 3 alpha: far-field formulas invalid
_FAR_FIELD_SOFT = 5.0   # 3..5 alpha: usable with a warning
# scaled distances and energies beyond this, and distances below its inverse,
# leave double range in rho^3 of j_z or in the powers of eps
_SCALED_DISTANCE_MAX = 1e100
_ALPHA_MAX = (_SCALED_DISTANCE_MAX / 2.0) ** 0.25  # keeps the shift 2 alpha^4 below it
_LOG_DBL_MIN = math.log(np.finfo(float).tiny)      # e^x is subnormal or 0 below it


@dataclass(frozen=True)
class PointSource:
    """Idealized delta-function source sigma(r) = C * delta(r)."""

    strength: complex = 1.0   # C; |C|^2 acts as an overall fit parameter


@dataclass(frozen=True)
class GaussianSource:
    """Isotropic Gaussian source sigma(r) = hbar*Omega*N0*exp(-r^2/(2 a^2)).

    N0 = a^(-3/2) pi^(-3/4) normalizes the underlying bound state to one,
    so the squared source integrates to (hbar*Omega)^2.
    """

    width: float      # a (m)
    coupling: float   # Omega (rad/s)

    def __post_init__(self):
        if not self.width > 0.0:
            raise DomainError(f"GaussianSource: width must be > 0, got {self.width}")
        if not self.coupling > 0.0:
            raise DomainError(f"GaussianSource: coupling must be > 0, got {self.coupling}")


SourceModel = PointSource | GaussianSource


@dataclass(frozen=True)
class GaussianScaled:
    """Dimensionless view of a Gaussian source at one energy (and point),
    the one scaling every Gaussian evaluator reads.

    epsilon is the unshifted -2 beta E, and log_weight is ln Lambda(eps~);
    the weight itself overflows for wide sources, so only the log is
    stored.  point, the scaled (xi, nu_y, zeta) of ``scale_point``, and
    zeta_tilde/rho_tilde are present when an evaluation point was supplied.
    Every field but alpha is an array when the energy or the point was.
    """

    alpha: float
    epsilon: float | np.ndarray
    epsilon_tilde: float | np.ndarray
    log_weight: float | np.ndarray
    point: tuple | None = None
    zeta_tilde: float | np.ndarray | None = None
    rho_tilde: float | np.ndarray | None = None


def _times_exp(what: str, mant, exponent, pref=1.0):
    """pref * mant * e^exponent: (pref * mant) * e^exponent where e^exponent is
    normal, mant * e^(ln pref + exponent) where it alone is subnormal or 0 (so
    pref never scales a flushed value); RangeError where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = pref * mant * np.exp(exponent)
        low = exponent < _LOG_DBL_MIN
        if np.any(low):                           # ln 0 = -inf for a pref that underflowed
            value = np.where(low, mant * np.exp(np.log(pref) + exponent), value)
    if not np.all(np.isfinite(value)):
        raise RangeError(f"{what}: exponent {np.max(exponent):.1f} with prefactor "
                         f"{pref:.3g} leaves double range")
    return value


def _coupling_squared(what: str, src: GaussianSource) -> float:
    """Omega^2; RangeError, naming Omega, where it leaves double range."""
    try:
        return src.coupling**2
    except OverflowError:
        raise RangeError(f"{what}: Omega^2 overflows double range at "
                         f"Omega = {src.coupling:g} rad/s") from None


def _require_scaled_distance(what: str, *coords) -> None:
    """RangeError, before rho or rho^3 overflows, for a coordinate too far out."""
    far = max(float(np.max(np.abs(c), initial=0.0)) for c in coords)
    if far > _SCALED_DISTANCE_MAX:
        raise RangeError(f"{what}: scaled distance {far:.3g} from the source is "
                         f"beyond {_SCALED_DISTANCE_MAX:.0e}, out of double range")


def _scaled_energy(what: str, sys: PhysicalSystem, energy) -> np.ndarray:
    """epsilon = -2 beta E; RangeError beyond _SCALED_DISTANCE_MAX, where its
    powers leave double range and the Airy phase 2/3 |eps|^(3/2) has no
    digit left below 2 pi."""
    eps = sys.scale_energy(energy)
    big = float(np.max(np.abs(eps), initial=0.0))
    if big > _SCALED_DISTANCE_MAX:
        raise RangeError(f"{what}: scaled energy {big:.3g} is beyond "
                         f"{_SCALED_DISTANCE_MAX:.0e}, out of double range")
    return eps


def _flat(*arrays) -> tuple[tuple, list[np.ndarray]]:
    """The common broadcast shape, and each array flattened to it."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    return arrays[0].shape, [a.ravel() for a in arrays]


def gaussian_scaled(
    sys: PhysicalSystem, src: GaussianSource, energy, r=None
) -> GaussianScaled:
    alpha = sys.beta_f * src.width
    if not alpha <= _ALPHA_MAX:
        raise RangeError(f"gaussian_scaled: alpha = beta F a = {alpha:.3g} is beyond "
                         f"{_ALPHA_MAX:.3g}, out of double range")
    eps = _scaled_energy("gaussian_scaled", sys, energy)
    eps_t = eps + 4.0 * alpha**4
    log_w = (_log_strength("gaussian_scaled", sys, src)
             + 2.0 * alpha**2 * (eps_t - 4.0 * alpha**4 / 3.0))
    if r is None:
        return GaussianScaled(alpha, eps[()], eps_t[()], log_w[()])
    xi, nu, zeta = point = sys.scale_point(r)
    zt = zeta + 2.0 * alpha**4
    _require_scaled_distance("gaussian_scaled", xi, nu, zt)
    rt = np.sqrt(xi**2 + nu**2 + zt**2)
    return GaussianScaled(alpha, eps[()], eps_t[()], log_w[()], point, zt[()], rt[()])


def _log_strength(what: str, sys: PhysicalSystem, src: GaussianSource) -> float:
    """ln hbar*Omega*(2 sqrt(pi) a)^(3/2), Lambda without its exponential."""
    hbar_omega = sys.hbar * src.coupling
    if not hbar_omega > 0.0:
        raise RangeError(f"{what}: hbar Omega underflows to 0 at "
                         f"Omega = {src.coupling:g} rad/s")
    return math.log(hbar_omega) + 1.5 * math.log(2.0 * math.sqrt(math.pi) * src.width)


def _gauss_exponent(alpha: float, eps, delta, s) -> np.ndarray:
    """4 alpha^2 (eps~ - 4 alpha^4/3) - 2 s of |Lambda|^2 Ai(a-)^2, s the Airy
    exponent at a- = eps~ + delta (eps unshifted), flat arrays.  Where
    s = 2/3 u^3 > 0, u = sqrt(a-), its two terms of size alpha^6 cancel, and
    it is formed from eps + delta as
    -(eps + delta)^2 (2 + t)/((1 + t)(3 alpha^2 + 1.5 u)) - 4 alpha^2 delta,
    t = 2 alpha^2/u: the point source's -4/3 (eps + delta)^(3/2) as t -> 0.
    J is delta = 0, and psi_far takes half of it."""
    a2 = alpha**2
    eps_t = eps + 4.0 * alpha**4
    out = 4.0 * a2 * (eps_t - 4.0 * alpha**4 / 3.0) - 2.0 * s
    far = s > 0.0
    root = np.sqrt(eps_t[far] + delta[far])
    t = 2.0 * a2 / root
    out[far] = (-(eps[far] + delta[far])**2 * (2.0 + t) / ((1.0 + t) * (3.0 * a2 + 1.5 * root))
                - 4.0 * a2 * delta[far])
    return out


def source_amplitude(sys: PhysicalSystem, src: SourceModel, r) -> float:
    """sigma(r) for a Gaussian source (the delta source has no pointwise value)."""
    if isinstance(src, PointSource):
        raise DomainError("a delta source has no pointwise amplitude")
    r2 = r[0] ** 2 + r[1] ** 2 + r[2] ** 2
    n0 = src.width**-1.5 * math.pi**-0.75
    return _times_exp("source_amplitude", n0, -r2 / (2.0 * src.width**2),
                      sys.hbar * src.coupling)[()]


def equivalent_point_strength(sys: PhysicalSystem, src: GaussianSource) -> float:
    """Point-source strength C = hbar*Omega*(2 sqrt(pi) a)^(3/2) of the a -> 0 limit."""
    what = "equivalent_point_strength"
    return _times_exp(what, 1.0, _log_strength(what, sys, src))[()]


def virtual_source_shift(sys: PhysicalSystem, src: GaussianSource) -> float:
    """Upstream displacement -m F a^4/(2 hbar^2) of the virtual point source (m)."""
    return -sys.mass * sys.force * src.width**4 / (2.0 * sys.hbar**2)


# ----------------------------------------------------------------------------
# point source
# ----------------------------------------------------------------------------

def psi_point(sys: PhysicalSystem, src: PointSource, r, energy):
    """Scattering wave C * G(r, 0; E) of the delta source."""
    x, y, z = (np.asarray(c) for c in r)
    if np.any((x == 0.0) & (y == 0.0) & (z == 0.0)):
        raise DomainError("psi_point: the wavefunction diverges at the source point")
    return (src.strength * green_closed(sys, r, (0.0, 0.0, 0.0), energy).value)[()]


def _airy_offset(lateral, rho, zeta) -> np.ndarray:
    """delta = rho - zeta of a- = eps + delta, flat arrays; downstream as lateral/(rho + zeta):
    a distant detector's rho - zeta would lose digits where Ai(a-) has its nulls."""
    delta = rho - zeta
    down = zeta > 0.0
    delta[down] = lateral[down] / (rho[down] + zeta[down])
    return delta


def _jz_shape(xi, nu, zeta, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimensionless current-density shape as (mantissa, s, delta), flat arrays:
    (1/rho^3) * { zeta Ai'(am)^2 + [zeta(zeta - eps) + rho^2] Ai(am)^2 } =
    mantissa * exp(-2 s) with am = eps + delta (``_airy_offset``), the Airy
    factors exponentially scaled from ``airy.airy_scaled``."""
    _require_scaled_distance("current density", xi, nu, zeta)
    lateral = xi * xi + nu * nu
    rho = np.sqrt(lateral + zeta * zeta)
    if np.any(rho == 0.0):
        raise DomainError("current density undefined at the source point")
    if np.any(rho < 1.0 / _SCALED_DISTANCE_MAX):
        raise RangeError(f"current density: scaled distance {rho.min():.3g} from the "
                         f"source is below {1.0 / _SCALED_DISTANCE_MAX:.0e}, where "
                         "rho^3 leaves double range")
    delta = _airy_offset(lateral, rho, zeta)
    coef = zeta * (zeta - eps) + rho * rho
    ai_s, aip_s, _, _, s = airy.airy_scaled(eps + delta)
    return (zeta * aip_s**2 + coef * ai_s**2) / rho**3, s, delta


def current_density_point(sys: PhysicalSystem, src: PointSource, r, energy):
    """Current density j_z (1/(m^2 s) times |C|^2 units) of the delta source."""
    shape, flat = _flat(*sys.scale_point(r),
                        _scaled_energy("current_density_point", sys, energy))
    mant, s, _ = _jz_shape(*flat)
    pref = abs(src.strength) ** 2 * sys.mass * sys.beta_f**3 / (2.0 * math.pi * sys.hbar**3)
    return _times_exp("current_density_point", mant, -2.0 * s, pref).reshape(shape)[()]


def total_current_point(sys: PhysicalSystem, src: PointSource, energy):
    """Total emitted current J(E) of the delta source; positive for every E.

    Below threshold (E < 0) this is the tunneling tail: the closed form is
    entire in E and simply decays, as the bracket e^(m - 2 s).
    """
    pref = 2.0 * abs(src.strength) ** 2 * sys.mass * sys.beta * sys.force / sys.hbar**3
    m, s = airy.airy_bracket_scaled(_scaled_energy("total_current_point", sys, energy))
    return _times_exp("total_current_point", 1.0, m - 2.0 * s, pref)[()]


# ----------------------------------------------------------------------------
# Gaussian source
# ----------------------------------------------------------------------------

def _require_far_field(g: GaussianScaled, what: str) -> None:
    """DomainError if any point is inside 3 alpha; one warning if any is
    inside 5 alpha."""
    rho = np.asarray(g.rho_tilde)
    closest = rho.min()

    def near(limit):
        count = np.count_nonzero(rho < limit * g.alpha)
        return (f"{what}: {count} of {rho.size} point(s) within {limit:g} alpha "
                f"= {limit * g.alpha:.3g} of the source, rho~ down to {closest:.3g}")

    if closest < _FAR_FIELD_HARD * g.alpha:
        raise DomainError(near(_FAR_FIELD_HARD)
                          + "; the far-field form is invalid inside the source core")
    if closest < _FAR_FIELD_SOFT * g.alpha:
        warnings.warn(near(_FAR_FIELD_SOFT) + "; far-field accuracy degrades",
                      stacklevel=3)


def psi_gauss_far(sys: PhysicalSystem, src: GaussianSource, r, energy):
    """Far-field wave: a virtual point source shifted upstream by 2 alpha^4.

    Exact consequence of the Gaussian r' integration; only the near-field
    (purely real) part is missing.  a+ = eps~ - 2 zeta~ - delta is formed as
    eps - 2 zeta - delta; RangeError from a+ = ``airy.X_SCALED_MAX`` up.
    """
    g = gaussian_scaled(sys, src, energy, r)
    _require_far_field(g, "psi_gauss_far")
    xi, nu, zeta = g.point
    shape, (lateral, zeta, zt, rt, eps_t, eps) = _flat(
        xi * xi + nu * nu, zeta, g.zeta_tilde, g.rho_tilde, g.epsilon_tilde, g.epsilon)
    delta = _airy_offset(lateral, rt, zt)
    ap = eps - 2.0 * zeta - delta
    if np.any(ap >= airy.X_SCALED_MAX):
        raise RangeError(f"psi_gauss_far: a+ must stay below X_SCALED_MAX = 2^20, got {ap.max()}")
    mant, sp, sm = _bracket_scaled(ap, eps_t + delta)
    exponent = (_log_strength("psi_gauss_far", sys, src) + math.log(sys.beta * sys.beta_f**3)
                + 0.5 * _gauss_exponent(g.alpha, eps, delta, sm) + sp)
    return _times_exp("psi_gauss_far", (2.0 / rt) * mant, exponent).reshape(shape)[()]


def psi_gauss_near(sys: PhysicalSystem, src: GaussianSource, r, energy):
    """Asymptotic near-field contribution; purely real, dies off as a Gaussian."""
    g = gaussian_scaled(sys, src, energy, r)
    log_si = math.log(2.0 * sys.beta * sys.beta_f**3 / math.pi**1.5)
    log_mag = (
        g.log_weight
        + log_si
        + np.log(math.sqrt(2.0) * g.alpha / g.rho_tilde**2)
        - g.rho_tilde**2 / (2.0 * g.alpha**2)
    )
    return _times_exp("psi_gauss_near", 1.0, log_mag)[()]


def psi_gauss_quadrature(
    sys: PhysicalSystem, src: GaussianSource, r, energy: float
) -> complex:
    """Reference wavefunction from the contour integral (validation path).

    The contour runs from -2i alpha^2 to +infinity in the complex scaled
    time u.  The imaginary-axis segment (u = -i s) has a purely real
    integrand; the real-axis remainder is the Green-function time integral
    with tilde-shifted arguments.
    """
    g = gaussian_scaled(sys, src, energy, r)
    a = float(g.zeta_tilde - g.epsilon_tilde)
    rho = float(g.rho_tilde)
    s_hi = 2.0 * g.alpha**2

    def f_near(s):
        arg = -rho * rho / s + a * s + s**3 / 12.0
        if np.any(arg > 700.0):
            raise RangeError(
                "psi_gauss_quadrature: integrand exponent out of double range; "
                "use psi_gauss_far/psi_gauss_near for this parameter regime"
            )
        return (math.pi * s) ** -1.5 * np.exp(arg)

    s_min = min(rho * rho / 45.0, 0.5 * s_hi)
    near, near_err = quad(f_near, s_min, s_hi, limit=200, epsabs=1e-13, epsrel=1e-11)
    far, far_err = _g_time_scaled(rho, a)
    if near_err + far_err > 1e-8:
        raise ConvergenceError(
            f"psi_gauss_quadrature: error estimate {near_err + far_err:.3e} "
            "above the 1e-8 budget (scaled units)",
            estimate=near_err + far_err,
        )
    log_si = math.log(sys.beta * sys.beta_f**3)
    return complex(_times_exp("psi_gauss_quadrature", 2.0 * near + far, g.log_weight + log_si))


def current_density_gauss(sys: PhysicalSystem, src: GaussianSource, r, energy):
    """Far-field current density: the point formula with tilde-shifted arguments."""
    g = gaussian_scaled(sys, src, energy, r)
    _require_far_field(g, "current_density_gauss")
    xi, nu, _ = g.point
    shape, (xi, nu, zt, eps_t, eps) = _flat(xi, nu, g.zeta_tilde, g.epsilon_tilde, g.epsilon)
    mant, s, delta = _jz_shape(xi, nu, zt, eps_t)
    # |Lambda|^2 e^(-2 s) m (beta F)^3 / (2 pi hbar^3), assembled in log space
    log_pref = (2.0 * _log_strength("current_density_gauss", sys, src)
                + math.log(sys.mass * sys.beta_f**3 / (2.0 * math.pi * sys.hbar**3)))
    return _times_exp("current_density_gauss", mant,
                      log_pref + _gauss_exponent(g.alpha, eps, delta, s)).reshape(shape)[()]


def _log_current_scale(sys: PhysicalSystem, src: GaussianSource, alpha: float) -> float:
    """ln K, K = 64 pi^(3/2) hbar Omega^2 alpha^3 beta: the prefactor of J
    and of its force-free limit."""
    return (math.log(64.0 * math.pi**1.5) + math.log(sys.hbar) + 2.0 * math.log(src.coupling)
            + 3.0 * math.log(alpha) + math.log(sys.beta))


def total_current_gauss(sys: PhysicalSystem, src: GaussianSource, energy):
    """Exact total current of the Gaussian source.

    J = K * exp(4 alpha^2 (eps~ - 4 alpha^4/3)) * [Ai'(eps~)^2 - eps~ Ai(eps~)^2],
    K = 64 pi^(3/2) hbar Omega^2 alpha^3 beta.

    The sign of the second bracket term follows eps = -2 beta E: it is the
    point formula's +2 beta E Ai^2 term in shifted variables.  Exact (not
    far-field): the near-field wave is real and drops out of the current.
    The exponent and the bracket's -2 s come from ``_gauss_exponent``.
    """
    g = gaussian_scaled(sys, src, energy)
    shape, (eps, eps_t) = _flat(g.epsilon, g.epsilon_tilde)
    m, s = airy.airy_bracket_scaled(eps_t)
    tail = m + _gauss_exponent(g.alpha, eps, np.zeros_like(eps), s)
    return _times_exp("total_current_gauss", 1.0,
                      _log_current_scale(sys, src, g.alpha) + tail).reshape(shape)[()]


def total_current_slicing(sys: PhysicalSystem, src: GaussianSource, energy):
    """Saddle-point (slicing) current: probes |psi_0|^2 on the plane E + F z = 0.

    J_sp = 2 sqrt(pi) hbar Omega^2 beta / alpha * exp(-eps^2/(4 alpha^2)).
    Reliable for wide sources (alpha >> |eps|); in the tunneling regime its
    derivation assumptions fail.
    """
    alpha = sys.beta_f * src.width
    eps = _scaled_energy("total_current_slicing", sys, energy)
    omega2 = _coupling_squared("total_current_slicing", src)
    pref = 2.0 * math.sqrt(math.pi) * sys.hbar * omega2 * sys.beta / alpha
    if not (alpha**2 > 0.0 and math.isfinite(pref)):
        raise RangeError(f"total_current_slicing: alpha = beta F a = {alpha:.3g} is so "
                         "small that alpha^2 or J_sp ~ 1/alpha leaves double range")
    with np.errstate(over="ignore"):          # |eps| >> alpha: an exponent of -inf
        exponent = -(eps**2) / (4.0 * alpha**2)
    return _times_exp("total_current_slicing", 1.0, exponent, pref)[()]


def sum_rule_check(sys: PhysicalSystem, src: SourceModel) -> tuple[float, float]:
    """Integrate J(E) over all energies and compare with (2 pi/hbar) ||sigma||^2.

    Returns (lhs, rhs) with rhs = 2 pi hbar Omega^2.  As eps~ -> -inf the
    bracket of ``total_current_gauss`` tends to sqrt(-eps~)/pi, so J tends
    to the force-free current J0 = K e^(4 alpha^2 (eps~ - 4 alpha^4/3))
    sqrt(-eps~)/pi on eps~ < 0 (K of ``_log_current_scale``), whose emission
    tail reaches |eps| ~ 1/(4 alpha^2) for narrow sources and whose integral
    is rhs e^(-16 alpha^6/3) in closed form.  Only J - J0 is integrated,
    with no tail search, over |eps| <= max(50, 12 alpha): 50 holds the
    remainder, which oscillates and decays on the Airy scale, and 12 alpha
    the slicing peak e^(-eps^2/(4 alpha^2)) to erfc(6) ~ 2e-17.  One
    ``quad`` per piece, split at eps~ = 0 where the window holds it; below
    it, over u = sqrt(-eps~), in which J0's edge is smooth.  For Rb at 401
    log-spaced widths from 1 nm to 10 cm, lhs/rhs is within 1.1e-7 of 1 (the
    window's cut, largest near 50 nm), and within 3e-10 from 0.2 um up.
    """
    if isinstance(src, PointSource):
        raise DomainError("sum_rule_check: the delta source has no square-integrable "
                          "norm, so the total-current sum rule does not apply to it")
    rhs = 2.0 * math.pi * sys.hbar * _coupling_squared("sum_rule_check", src)
    if not rhs > 0.0:
        raise RangeError(f"sum_rule_check: 2 pi hbar Omega^2 underflows to 0 at "
                         f"Omega = {src.coupling:g} rad/s")
    alpha = gaussian_scaled(sys, src, 0.0).alpha     # RangeError where alpha^4 overflows
    log_k = _log_current_scale(sys, src, alpha)
    split, edge = -4.0 * alpha**4, max(50.0, 12.0 * alpha)     # split: eps~ = 0

    def j(eps):
        return total_current_gauss(sys, src, sys.unscale_energy(eps))

    def remainder(u):                           # (J - J0) deps/du at eps~ = -u^2
        j0 = _times_exp("sum_rule_check", u / math.pi,
                        log_k - 4.0 * alpha**2 * (u * u + 4.0 * alpha**4 / 3.0))
        return 2.0 * u * (j(split - u * u) - j0)

    # E -> eps reverses orientation, J dE = (1/(2 beta)) J deps; each piece's
    # error estimate is within half a unit of the 8th decimal of lhs/rhs
    tol = {"limit": 400, "epsabs": 5e-9 * rhs * 2.0 * sys.beta, "epsrel": 0.0}
    rest = quad(j, max(split, -edge), edge, **tol)[0]
    if split > -edge:
        rest += quad(remainder, 0.0, math.sqrt(split + edge), **tol)[0]
    return rhs * math.exp(-16.0 * alpha**6 / 3.0) + rest / (2.0 * sys.beta), rhs
