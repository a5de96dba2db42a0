"""Special functions, adaptive quadrature and monotone root searches.

The exponential integral E1 is scipy's ``exp1``. Its overflow-safe product
e^x E1(x) takes scalars or arrays: the direct product up to x = 600, the
asymptotic series above. Quadrature delegates to QUADPACK's adaptive
Gauss-Kronrod scheme with semi-infinite intervals mapped through
t -> a + t/(1-t); only the laws that take a caller's scalar callable use it.
``solve_monotone`` bisects a given bracket; ``solve_above_floor`` finds that
bracket at the root's own scale for ``s_star``, ``threshold_for_load`` and
``CqiLaw.quantile``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import special as _sp

from .errors import BracketError, NumericError, ParameterError

__all__ = [
    "QuadratureResult",
    "exp_integral_e1",
    "f_exp_e1",
    "erfc_scaled",
    "quad_adaptive",
    "solve_monotone",
    "solve_above_floor",
]

# Near x = 700 E1(x) turns subnormal and e^x overflows, so above this argument
# e^x E1(x) comes from the asymptotic series sum_k (-1)^k k!/x^(k+1), summed
# to k = 8; its first omitted term is below 1e-19 relative there.
_ASYMPTOTIC_FROM = 600.0


def exp_integral_e1(x: float) -> float:
    """E1(x) = integral_1^inf e^(-t x)/t dt for x > 0."""
    if not x > 0:
        raise ParameterError(f"E1 requires x > 0, got {x}")
    return float(_sp.exp1(x))


def f_exp_e1(x):
    """Overflow-safe e^x E1(x) of a scalar or an array; a float for scalar input.

    Strictly decreasing from +inf to 0 on (0, inf); every x must be positive.
    """
    xa = np.asarray(x, dtype=float)
    if not (xa > 0).all():
        raise ParameterError(f"f(x) = e^x E1(x) requires x > 0, got {x}")
    near = np.minimum(xa, _ASYMPTOTIC_FROM)
    out = np.exp(near) * _sp.exp1(near)
    far = xa > _ASYMPTOTIC_FROM
    if far.any():
        y = 1.0 / xa[far]
        series = 1.0
        for k in range(8, 0, -1):
            series = 1.0 - k * y * series
        out = np.asarray(out)
        out[far] = y * series
    return float(out) if out.ndim == 0 else out


def erfc_scaled(x):
    """erfcx(x) = e^(x^2) erfc(x)."""
    return _sp.erfcx(x)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def quad_adaptive(f, a: float, b: float, tol: float = 1e-9,
                  limit: int = 200) -> QuadratureResult:
    """Adaptive quadrature of f on [a, b]; b may be +inf.

    Raises NumericError when the error estimate cannot be brought near tol.
    """
    if b == math.inf:
        def h(t):
            u = 1.0 - t
            if u <= 1e-14:
                return 0.0
            return f(a + t / u) / (u * u)

        return quad_adaptive(h, 0.0, 1.0, tol=tol, limit=limit)
    if not b >= a:
        raise ParameterError(f"need b >= a, got [{a}, {b}]")
    with np.errstate(all="ignore"):
        value, abserr, info = integrate.quad(
            f, a, b, epsabs=tol, epsrel=max(1e-12, tol), limit=limit, full_output=1)[:3]
    neval = int(info.get("neval", 0)) if isinstance(info, dict) else 0
    if abserr > 100.0 * max(tol, 1e-13 * abs(value)):
        raise NumericError(
            f"quadrature failed on [{a}, {b}]: estimate {value} with error {abserr} "
            f"after {neval} evaluations (tol {tol})")
    return QuadratureResult(float(value), float(abserr), neval)


def solve_monotone(f, target: float, lo: float, hi: float,
                   tol: float = 1e-10) -> float:
    """Bisection for f(x) = target with f monotone on [lo, hi].

    The interval must bracket the target; the returned x is within tol of the
    crossing.
    """
    if not hi > lo:
        raise ParameterError(f"need hi > lo, got [{lo}, {hi}]")
    flo = f(lo) - target
    fhi = f(hi) - target
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"target {target} not bracketed on [{lo}, {hi}] (f(lo)-t={flo:g}, f(hi)-t={fhi:g})")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid) - target
        if fm == 0.0:
            return mid
        if (fm > 0) == (fhi > 0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def solve_above_floor(f, target: float, floor: float, step: float) -> float:
    """The x >= floor where the non-decreasing f reaches the target.

    Brackets the offset x - floor between h/2 and h, growing or halving h by
    factors of two from ``step``, then bisects that bracket to 1e-12 of h, so
    a root close to the floor keeps its relative precision. Returns floor
    when f(floor) already reaches the target, and inf when f stays below it
    over the float range.
    """
    if not f(floor) < target:
        return floor
    h = step
    while h < math.inf and f(floor + h) < target:
        h *= 2.0
    if h == math.inf:  # past the float range
        return h
    while f(floor + 0.5 * h) >= target:
        h *= 0.5
    return floor + solve_monotone(lambda x: f(floor + x), target, 0.5 * h, h, tol=1e-12 * h)
