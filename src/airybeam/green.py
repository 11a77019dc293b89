"""Energy-dependent retarded Green function of the uniform-field Hamiltonian.

Two routes to the same object:

* ``green_closed`` -- the closed Airy form

      G(r, r'; E) = (m / 2 hbar^2) (1/|r-r'|)
                    * [Ci(a+) Ai'(a-) - Ci'(a+) Ai(a-)],

  with a+- = -beta [2E + F(z+z') +- F|r-r'|] and Ci = Bi + i Ai.  This is
  the production path.

* ``green_oracle`` -- the causal Laplace transform of the uniform-field
  propagator in scaled time, integrated with ``airybeam.quadrature`` along a
  contour through the saddle of its phase.  Exists purely for validation
  (``airybeam.validation``).

Everything internal is dimensionless: G = beta*(beta F)^3 * g(scaled args).
The closed form takes arrays: the components of ``r`` and ``r_src`` and the
energy broadcast against each other, and scalars in give scalars out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import airy
# Unused here: the Airy layer is called as ``airy.airy_scaled``.  These names
# stay bound because perfbench/tracing.py wraps them by name, and its
# per-call counter needs a scalar argument.
from .airy import airy_all, airy_scaled  # noqa: F401
from .errors import ConvergenceError, DomainError
# bound as ``quad`` so that instrumentation can wrap it (perfbench/tracing.py)
from .quadrature import gauss_kronrod as quad
from .scaling import PhysicalSystem

__all__ = ["GreenValue", "green_closed", "green_oracle"]


@dataclass(frozen=True)
class GreenValue:
    """A Green-function value split as mantissa * exp(log_scale).

    ``scaled`` is the dimensionless value (units of beta*(beta F)^3 removed),
    ``si_factor`` the recorded conversion beta*(beta F)^3 back to SI
    (mass / (hbar^2 * length)), and ``value`` the SI number itself.  The
    split keeps deep-tunneling evaluations representable.  ``mantissa`` and
    ``log_scale`` are arrays when the evaluation points were.
    ``error_estimate`` is set by ``green_oracle`` only: the quadrature's
    absolute error estimate for ``scaled``, summed over the contour pieces.
    """

    mantissa: complex | np.ndarray
    log_scale: float | np.ndarray
    si_factor: float
    error_estimate: float | None = None

    @property
    def scaled(self) -> complex | np.ndarray:
        return self.mantissa * np.exp(self.log_scale)

    @property
    def value(self) -> complex | np.ndarray:
        return self.mantissa * np.exp(self.log_scale + math.log(self.si_factor))


def _relative_args(sys: PhysicalSystem, r, r_src, energy):
    """Scaled separation (rho_d), z-sum and energy for point pairs."""
    bf = sys.beta_f
    r = [np.asarray(c, dtype=float) for c in r]
    r_src = [np.asarray(c, dtype=float) for c in r_src]
    dx = (r[0] - r_src[0]) * bf
    dy = (r[1] - r_src[1]) * bf
    dz = (r[2] - r_src[2]) * bf
    rho_d = np.sqrt(dx * dx + dy * dy + dz * dz)
    zsum = (r[2] + r_src[2]) * bf
    return np.broadcast_arrays(rho_d, zsum, sys.scale_energy(energy))


def _bracket_scaled(ap, am) -> tuple[np.ndarray, np.ndarray]:
    """Ci(ap) Ai'(am) - Ci'(ap) Ai(am) as (mantissa, log_scale) arrays.

    ``ap <= am`` elementwise, both of one shape.  The Airy factors come
    exponentially scaled from ``airy.airy_scaled``, so the product with the
    caller's own exponential weights can be combined in log space.  The
    arithmetic runs on flat arrays, so a scalar gets the bits of an array
    element.
    """
    shape = np.shape(ap)
    pa_s, pap_s, pb_s, pbp_s, sp = airy.airy_scaled(np.ravel(ap))
    ma_s, map_s, _, _, sm = airy.airy_scaled(np.ravel(am))
    # Ci(ap) e^{-s_p} = bi_s + i ai_s e^{-2 s_p}
    damp = np.where(sp < 350.0, np.exp(-2.0 * np.minimum(sp, 350.0)), 0.0)
    ci_s = pb_s + 1j * (pa_s * damp)
    cip_s = pbp_s + 1j * (pap_s * damp)
    mant = ci_s * map_s - cip_s * ma_s
    return mant.reshape(shape), (sp - sm).reshape(shape)


def green_closed(sys: PhysicalSystem, r, r_src, energy) -> GreenValue:
    """Closed Airy form of the retarded Green function (production path)."""
    rho_d, zsum, eps = _relative_args(sys, r, r_src, energy)
    if np.any(rho_d == 0.0):
        raise DomainError(
            "green_closed: coincident points; the diagonal limit is "
            "total_current_point"
        )
    mant, log_scale = _bracket_scaled(eps - zsum - rho_d, eps - zsum + rho_d)
    si = sys.beta * sys.beta_f**3
    return GreenValue(mantissa=(2.0 / rho_d * mant)[()], log_scale=log_scale[()],
                      si_factor=si)


# ----------------------------------------------------------------------------
# quadrature oracle
# ----------------------------------------------------------------------------

_THETA_IN = math.pi / 6     # entry ray angle below the real axis
_THETA_TAIL = math.pi / 6   # tail ray angle (cubic term decays fastest here)
_QUAD_LIMIT = 400
_TAIL_GROWTHS = 16          # tail cut-off search: y = 5 * 1.6^k, k < 16 (y < 6e3)


def _phase(tau, rho: float, a: float):
    return 1j * (rho * rho / tau + a * tau - tau**3 / 12.0)


def _integrand(tau, rho: float, a: float):
    ph = _phase(tau, rho, a)
    if np.any(ph.real > 700.0):
        raise ConvergenceError(
            "time-integral contour magnitude out of double range; the "
            "quadrature path does not reach this parameter regime"
        )
    return -2j * (1j * math.pi * tau) ** -1.5 * np.exp(ph)


def _contour(rho: float, a: float) -> list[complex]:
    """Polygon from the origin to the start of the tail ray, through the saddle.

    The phase rho^2/tau + a tau - tau^3/12 is stationary where
    tau^4 - 4 a tau^2 + 4 rho^2 = 0.  With two real saddles (a >= rho) the
    path dips below the origin, where exp(i rho^2/tau) decays, and follows the
    real axis past both.  Otherwise it ends at the saddle in the lower
    half-plane: down the imaginary axis when a <= -rho, where the integrand
    is real, and to sqrt(2a - 2i sqrt(rho^2 - a^2)) in between.  A saddle
    above the dip's ray (a > rho/2) is reached by way of the dip, since near
    the real axis exp(i rho^2/tau) oscillates undamped.  Nothing cancels
    along these paths.
    """
    tau_c = min(max(0.2 * rho, 0.05), 2.0)
    dip = [0.0, tau_c * cmath.exp(-1j * _THETA_IN)]
    if a >= rho:
        return dip + [tau_c, max(2.0 * math.sqrt(a) + 6.0, 12.0)]
    if a > -rho:
        saddle = cmath.sqrt(complex(2.0 * a, -2.0 * math.sqrt(rho * rho - a * a)))
        return dip + [saddle] if cmath.phase(saddle) > -_THETA_IN else [0.0, saddle]
    return [0.0, -1j * math.sqrt(-2.0 * a + 2.0 * math.sqrt(a * a - rho * rho))]


def _g_time_scaled(rho: float, a: float) -> tuple[complex, float]:
    """Scaled Green function as the propagator transform; (value, error).

    Integrates -2i (i pi tau)^(-3/2) exp(i rho^2/tau + i a tau - i tau^3/12)
    along the polygon of ``_contour``, then down a ray at -pi/6 where the
    cubic phase term decays.  The integrand is analytic between this contour
    and the positive real axis, and the closing arcs vanish, so the
    deformation is exact.  No damping exp(-eta tau) enters: the retarded
    prescription E + i0+ is carried by the contour leaving into the lower
    half tau-plane, and the integrand decays on the tail ray with eta = 0,
    so the eta -> 0 limit of the damped transform is this undamped integral
    itself.  Each straight piece is one ``quad`` over its parameter in
    [0, 1].
    """
    path = _contour(rho, a)
    e_tail = cmath.exp(-1j * _THETA_TAIL)

    def log_mag(y):
        return _phase(path[-1] + y * e_tail, rho, a).real

    y_hi = 5.0
    base = max(log_mag(0.0), 0.0)
    for _ in range(_TAIL_GROWTHS):
        if log_mag(y_hi) <= base - 42.0:    # a NaN never counts as decayed
            break
        y_hi *= 1.6
    else:
        raise ConvergenceError(
            f"green oracle: the contour tail has not decayed by e^-42 at "
            f"y = {y_hi:.4g} (rho = {rho:.6g}, a = {a:.6g})"
        )
    path.append(path[-1] + y_hi * e_tail)

    total, total_err = 0j, 0.0
    for z0, z1 in zip(path[:-1], path[1:]):
        dz = z1 - z0
        val, err = quad(lambda s: _integrand(z0 + s * dz, rho, a) * dz,
                        0.0, 1.0, limit=_QUAD_LIMIT, epsabs=1e-13, epsrel=1e-11)
        total += val
        total_err += err
    return total, total_err


def green_oracle(sys: PhysicalSystem, r, r_src, energy: float) -> GreenValue:
    """Retarded Green function via the propagator transform (validation path).

    One ``_g_time_scaled`` contour integral; ConvergenceError when its error
    estimate exceeds 1e-8 in scaled units.
    """
    rho_d, zsum, eps = (float(v) for v in _relative_args(sys, r, r_src, energy))
    if rho_d == 0.0:
        raise DomainError("green_oracle: coincident points")
    a = -(eps - zsum)         # i a tau phase term, a = zeta_rel - eps_shifted
    g, err = _g_time_scaled(rho_d, a)
    if err > 1e-8:
        raise ConvergenceError(
            f"green_oracle: quadrature error estimate {err:.3e} above the "
            "1e-8 budget (scaled units)",
            estimate=err,
        )
    si = sys.beta * sys.beta_f**3
    return GreenValue(mantissa=g, log_scale=0.0, si_factor=si, error_estimate=err)
