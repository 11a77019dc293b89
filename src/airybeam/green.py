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
from .errors import ConvergenceError, DomainError, RangeError
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


def _bracket_scaled(ap, am) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ci(ap) Ai'(am) - Ci'(ap) Ai(am) as (mantissa, s_p, s_m) arrays, the
    bracket being mantissa * exp(s_p - s_m).

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
    return mant.reshape(shape), sp.reshape(shape), sm.reshape(shape)


def green_closed(sys: PhysicalSystem, r, r_src, energy) -> GreenValue:
    """Closed Airy form of the retarded Green function (production path);
    RangeError from a- = ``airy.X_SCALED_MAX`` up."""
    rho_d, zsum, eps = _relative_args(sys, r, r_src, energy)
    if np.any(rho_d == 0.0):
        raise DomainError(
            "green_closed: coincident points; the diagonal limit is "
            "total_current_point"
        )
    am = eps - zsum + rho_d
    if np.any(am >= airy.X_SCALED_MAX):
        raise RangeError(f"green_closed: a- must stay below X_SCALED_MAX = 2^20, got {am.max()}")
    mant, sp, sm = _bracket_scaled(eps - zsum - rho_d, am)
    si = sys.beta * sys.beta_f**3
    return GreenValue(mantissa=(2.0 / rho_d * mant)[()], log_scale=(sp - sm)[()],
                      si_factor=si)


# ----------------------------------------------------------------------------
# quadrature oracle
# ----------------------------------------------------------------------------

_THETA_IN = math.pi / 6     # entry ray angle below the real axis
_THETA_TAIL = math.pi / 6   # tail ray angle (cubic term decays fastest here)
_QUAD_LIMIT = 400
_SPIKE = 4.0                # first contour vertex at |tau| = _SPIKE * rho^2


def _phase(tau, rho: float, a: float):
    return 1j * (rho * rho / tau + a * tau - tau**3 / 12.0)


def _integrand(tau, rho: float, a: float):
    ph = _phase(tau, rho, a)
    if np.any(ph.real > 700.0):
        raise ConvergenceError("time-integral contour magnitude out of double range; the "
                               "quadrature path does not reach this parameter regime")
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

    Leaving the origin, |exp(i rho^2/tau)| rises from 0 within |tau| ~ rho^2
    and the integrand then falls off as |tau|^(-3/2): a spike of width
    ~ rho^2 that the adaptive rule cannot find on a piece many times longer
    at small rho.  So the first piece gets a vertex at |tau| = _SPIKE rho^2.
    """
    tau_c = min(max(0.2 * rho, 0.05), 2.0)
    dip = [0.0, tau_c * cmath.exp(-1j * _THETA_IN)]
    if a >= rho:
        path = dip + [tau_c, max(2.0 * math.sqrt(a) + 6.0, 12.0)]
    elif a <= -rho:
        path = [0.0, -1j * math.sqrt(-2.0 * a + 2.0 * math.sqrt(a * a - rho * rho))]
    else:
        saddle = cmath.sqrt(complex(2.0 * a, -2.0 * math.sqrt(rho * rho - a * a)))
        path = dip + [saddle] if cmath.phase(saddle) > -_THETA_IN else [0.0, saddle]
    spike = _SPIKE * rho * rho
    if spike < abs(path[1]):
        path.insert(1, path[1] / abs(path[1]) * spike)
    return path


def _g_time_scaled(rho: float, a: float) -> tuple[complex, float]:
    """Scaled Green function as the propagator transform; (value, error).

    Integrates -2i (i pi tau)^(-3/2) exp(i rho^2/tau + i a tau - i tau^3/12)
    along the polygon of ``_contour``, then down a ray tau = t0 + y e^(-i pi/6)
    where the cubic phase term decays.  The integrand is analytic between
    this contour and the positive real axis, and the closing arcs vanish, so
    the deformation is exact.  No damping exp(-eta tau) enters: the retarded
    prescription E + i0+ is carried by the contour leaving into the lower
    half tau-plane, and the integrand decays on the tail ray with eta = 0,
    so the eta -> 0 limit of the damped transform is this undamped integral
    itself.  Each straight piece is one ``quad`` over its parameter in [0, 1].

    The ray ends in closed form.  Its log magnitude is rho^2 Im tau/|tau|^2,
    <= 0 since every contour ends on or below the real axis, plus
    Re i(a tau - tau^3/12), a real cubic in y with leading coefficient -1/12.
    Past the cubic's largest root at base - 42 (base: the log magnitude at
    t0, at least 0) the integrand stays below e^(base - 42).
    """
    path = _contour(rho, a)
    t0, e = path[-1], cmath.exp(-1j * _THETA_TAIL)
    base = max(_phase(t0, rho, a).real, 0.0)
    cubic = (1j * np.array([-e**3 / 12.0, -e * e * t0 / 4.0, a * e - e * t0 * t0 / 4.0,
                            a * t0 - t0**3 / 12.0])).real - [0.0, 0.0, 0.0, base - 42.0]
    if not np.all(np.isfinite(cubic)):
        raise ConvergenceError(f"green oracle: phase not finite at the contour tail "
                               f"(rho = {rho:.6g}, a = {a:.6g})")
    y_hi = np.roots(cubic).real.max()
    if y_hi > 0.0:
        path.append(t0 + y_hi * e)

    pieces = [quad(lambda s, z0=z0, dz=z1 - z0: _integrand(z0 + s * dz, rho, a) * dz,
                   0.0, 1.0, limit=_QUAD_LIMIT, epsabs=1e-13, epsrel=1e-11)
              for z0, z1 in zip(path, path[1:])]
    return sum(val for val, _ in pieces), sum(err for _, err in pieces)


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
        raise ConvergenceError(f"green_oracle: quadrature error estimate {err:.3e} above the "
                               "1e-8 budget (scaled units)", estimate=err)
    si = sys.beta * sys.beta_f**3
    return GreenValue(mantissa=g, log_scale=0.0, si_factor=si, error_estimate=err)
