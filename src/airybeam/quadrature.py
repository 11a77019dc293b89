"""Adaptive Gauss-Kronrod quadrature of real or complex integrands that take arrays.

The 21-point Kronrod rule with its embedded 10-point Gauss rule (QUADPACK's
QK21 constants and error formula), so an error estimate here means what one
from ``scipy.integrate.quad`` means; for a complex integrand the formula is
applied to |K21 - G10| and the moduli of the values.  Each pass evaluates
the nodes of every subinterval still being refined in one call of the
integrand, then bisects each subinterval whose error is above its share of
the target, the share being proportional to its length.  NumPy only: the
package never imports ``scipy.integrate``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["gauss_kronrod"]

# Kronrod abscissae on [0, 1], descending; the odd positions (1, 3, ..., 9)
# are the 10-point Gauss abscissae.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208119234270, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the 21 nodes on [-1, 1], and both rules' weights at each of them
NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_gauss = np.zeros(11)
_gauss[1::2] = _WG
GAUSS = np.concatenate([_gauss[:-1], _gauss[::-1]])
_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _rule(f, lo, hi):
    """QK21 value and error estimate on each interval [lo[i], hi[i]]."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = centre[:, None] + half[:, None] * NODES
    fx = np.asarray(f(x.ravel()))
    fx = np.broadcast_to(fx.astype(np.result_type(fx, float)), (x.size,)).reshape(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):   # NaN raises later
        resk = fx @ KRONROD
        resabs = np.abs(fx) @ KRONROD * half
        resasc = np.abs(fx - 0.5 * resk[:, None]) @ KRONROD * half
        err = np.abs(resk - fx @ GAUSS) * half
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = np.where(resabs > _UFLOW / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return resk * half, np.maximum(floor, err), floor


def gauss_kronrod(f, a, b, *, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """(integral of f over [a, b], error estimate).

    ``f`` maps a 1-D array of abscissae to an array of real or complex
    values (or a scalar broadcast to them); the integral is a ``float`` or a
    ``complex`` to match.  Refinement stops once the summed error estimate is
    at most max(epsabs, epsrel * |integral|).  ConvergenceError if the
    integral is not finite, if the target is below the roundoff floor
    50 eps integral |f|, or if meeting it would take more than ``limit``
    subintervals; its ``estimate`` is the error reached.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"gauss_kronrod: limits must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    if a > b:
        val, err = gauss_kronrod(f, b, a, epsabs=epsabs, epsrel=epsrel, limit=limit)
        return -val, err
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    val, err, floor = _rule(f, lo, hi)
    while True:
        total, total_err = val.sum().item(), float(err.sum())
        if not (np.isfinite(total) and math.isfinite(total_err)):
            raise ConvergenceError(
                f"gauss_kronrod: the integrand integrates to {total} over "
                f"[{a:.6g}, {b:.6g}]")
        target = max(epsabs, epsrel * abs(total))
        if total_err <= target:
            return total, total_err
        if floor.sum() > target:        # bisection cannot lower the floor
            raise ConvergenceError(
                f"gauss_kronrod: the target {target:.3e} over [{a:.6g}, {b:.6g}] "
                f"is below the roundoff floor {floor.sum():.3e}",
                estimate=total_err)
        split = err > target * (hi - lo) / (b - a)
        split[np.argmax(err)] = True        # the shares' rounding never stalls
        if lo.size + np.count_nonzero(split) > limit:
            raise ConvergenceError(
                f"gauss_kronrod: error estimate {total_err:.3e} above the target "
                f"{target:.3e} over [{a:.6g}, {b:.6g}] with {lo.size} "
                f"subintervals (limit {limit})",
                estimate=total_err)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        keep = ~split
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err, floor = (np.concatenate([old[keep], new]) for old, new
                           in zip((val, err, floor), _rule(f, new_lo, new_hi)))
