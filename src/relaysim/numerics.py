"""Special functions, Poisson and chi-square tails, adaptive quadrature and
monotone root searches.

The module imports only numpy when it loads. ``scipy.special`` is imported by
the first call of a helper that reads it (``exp_integral_e1``, ``f_exp_e1``,
``erfc_scaled``, the Poisson pmf, sf and ppf and ``chi2_sf``), and
``scipy.integrate`` by the first adaptive quadrature, which no law makes; a
Monte Carlo batch, field sampling and relay selection load neither. The
exponential integral E1 is ``exp1``. Its overflow-safe product e^x E1(x) takes
scalars or arrays: the direct product up to x = 600, the asymptotic series
above. The Poisson pmf, sf and ppf and the chi-square sf are the
``scipy.special`` expressions that ``scipy.stats`` evaluates, bit for bit for
k >= 0, mu >= 0 and 0 < q < 1, without the import time of ``scipy.stats``.
``vectorized`` is the package's one scalar/array rule. ``quad_adaptive`` runs
QUADPACK with [a, inf) mapped through t -> a + t/(1-t); it stays only for the
benchmark tracer, which rebinds it by name. ``solve_monotone`` bisects a given
bracket; ``solve_above_floor`` finds that bracket at the root's own scale for
``s_star``, ``threshold_for_load`` and ``CqiLaw.quantile``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, NumericError, ParameterError

__all__ = [
    "QuadratureResult",
    "exp_integral_e1",
    "f_exp_e1",
    "erfc_scaled",
    "poisson_pmf",
    "poisson_sf",
    "poisson_ppf",
    "chi2_sf",
    "quad_adaptive",
    "solve_monotone",
    "solve_above_floor",
]

# Near x = 700 E1(x) turns subnormal and e^x overflows, so above this argument
# e^x E1(x) comes from the asymptotic series sum_k (-1)^k k!/x^(k+1), summed
# to k = 8; its first omitted term is below 1e-19 relative there.
_ASYMPTOTIC_FROM = 600.0


class _SpecialOnFirstUse:
    """Stands in for ``scipy.special`` until a helper first reads it; that read
    imports the module and rebinds ``_sp`` to it, so later calls look up the
    module itself."""

    def __getattr__(self, name):
        global _sp
        from scipy import special

        _sp = special
        return getattr(special, name)


_sp = _SpecialOnFirstUse()


def vectorized(x, fn):
    """fn applied to x as a float array of at least one dimension; fn returns an
    array of its argument's shape. A float for scalar x, else an array of x's shape."""
    xa = np.asarray(x, dtype=float)
    out = fn(np.atleast_1d(xa).astype(float))  # a copy: fn may write into its argument
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def exp_integral_e1(x: float) -> float:
    """E1(x) = integral_1^inf e^(-t x)/t dt for x > 0."""
    if not x > 0:
        raise ParameterError(f"E1 requires x > 0, got {x}")
    return float(_sp.exp1(x))


def f_exp_e1(x):
    """Overflow-safe e^x E1(x) of a scalar or an array; a float for scalar input.

    Strictly decreasing from +inf to 0 on (0, inf); every x must be positive.
    """
    def fn(xa):
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
            out[far] = y * series
        return out

    return vectorized(x, fn)


def erfc_scaled(x):
    """erfcx(x) = e^(x^2) erfc(x)."""
    return _sp.erfcx(x)


def poisson_pmf(k, mu):
    """P(N = k) for N ~ Poisson(mu), integer k >= 0."""
    return np.exp(_sp.xlogy(k, mu) - _sp.gammaln(k + 1) - mu)


def poisson_sf(k, mu):
    """P(N > k) for N ~ Poisson(mu), integer k >= 0."""
    return _sp.pdtrc(k, mu)


def poisson_ppf(q, mu):
    """The least k with P(N <= k) >= q for N ~ Poisson(mu), 0 < q < 1."""
    v = np.ceil(_sp.pdtrik(q, mu))
    below = np.maximum(v - 1, 0)
    return np.where(_sp.pdtr(below, mu) >= q, below, v)


def chi2_sf(x, dof):
    """P(X > x) for X chi-square with dof degrees of freedom."""
    return _sp.chdtrc(dof, x)


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
    # imported on first use, so that the runs that never get here (every Monte
    # Carlo batch and named experiment) do not pay its import time
    from scipy import integrate

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
