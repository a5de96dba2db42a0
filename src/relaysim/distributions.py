"""Closed-form and quadrature-based CQI distributions and selection probabilities.

Conventions: ``intensity`` is the mean relay count per unit area, ``half_distance``
the geometry parameter d, and ``gamma`` a selection-metric value. Every cdf is 0
below its support minimum; laws driven by a finite-mean point count are
defective (total mass < 1), the missing mass being the no-relay event.

Every law takes a scalar or an array of metric values; NaN gives 0.

Numerical notes: arcsec(x) is evaluated as arccos(1/x) and arccsc(x) as
arcsin(1/x); scaled erfc avoids overflow in the sufficiency probability.
The mid-point and closest-to-destination laws integrate over psi, the
selected relay's distance from the policy's centre, with one fixed 64-node
Gauss-Legendre rule for all metric values at once. Each integral stops
sqrt(40/(pi intensity)) past its lower end psi0, where the nearest-neighbour
weight exp(-pi intensity psi^2) has fallen below e^-40 of its value at psi0.
The densities run over psi^2 = psi0^2 + u^2, which removes their
inverse-square-root endpoint. The cdfs have a square-root endpoint at psi0
and, as psi0 -> 0 (metric near d, or near 2d for closest-to-destination), a
feature of width psi0; the graded map psi = psi0 + a (cosh v - 1) with
a = max(psi0, 1e-6 span) smooths the first and spreads nodes over the second.
``CqiLaw.expect`` integrates on panels [a, b] mapped by gamma = a + s^2 (for the
square-root endpoint at d), with edges d, a1 = max(d, 2d - r), 2d and 2d + r,
r = sqrt(40/(pi intensity)): every policy's metric is at most 2d plus the
nearest relay's distance from the mid-point or destination. [d, a1] is split by
8 toward d, where the densities crowd at large intensity d^2, and [2d, 2d + r]
at 2d + d, 2d + 8d and 2d + 64d, as the rate falls like gamma^-4. Mid-point
optimality uses a tensor rule in psi = u^2 and in the angle x (2 - x) pi/2,
graded toward pi/2. The Gaussian-cluster law grades its angle harder,
(1 - (1 - x)^3) pi/2, for the reach's feature of width sqrt(2 (gamma - d)/d) at
pi/2 just above the floor. Only the isotropic master formula, which takes a
caller's scalar callable (kinks and steps allowed), stays on adaptive
quadrature: it is the reference for the exclusion, ring and Gaussian laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, UnsupportedOperationError
from .model import PathLoss
# perfbench traces quad_adaptive and solve_monotone by rebinding these module names
from .numerics import erfc_scaled, quad_adaptive, solve_above_floor, solve_monotone  # noqa: F401

__all__ = [
    "best_cqi_cdf", "best_cqi_pdf", "best_cqi_log_pdf", "best_cqi_mean",
    "disc_point_metric_cdf", "best_cqi_cdf_finite",
    "annulus_metric_ccdf",
    "midpoint_cqi_cdf", "midpoint_cqi_pdf",
    "closest_to_destination_cqi_cdf", "closest_to_destination_cqi_pdf",
    "prob_sufficient", "prob_midpoint_optimal", "midpoint_displacement_exponent",
    "received_snr_cdf", "received_snr_pdf",
    "best_received_snr_cdf", "best_received_snr_pdf",
    "isotropic_best_cqi_cdf", "isotropic_best_cqi_pdf",
    "exclusion_cqi_cdf", "ring_cqi_cdf", "gaussian_cqi_cdf",
    "unequal_snr_cqi_cdf", "unequal_snr_support_min",
    "CqiLaw", "best_cqi_law", "best_cqi_law_finite",
    "midpoint_cqi_law", "closest_to_destination_cqi_law", "unequal_snr_cqi_law",
    "policy_law",
    "nearest_neighbor_pdf", "nearest_neighbor_cdf",
]


# The fixed rule on [0, 1]; the nearest-neighbour weight exp(-pi lam psi^2)
# falls by e^-40 within _REACH / sqrt(lam).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS
_REACH = math.sqrt(40.0 / math.pi)
_BLOCK = 2048  # metric values per (values, nodes) work array


def _check_positive(**kwargs):
    for name, v in kwargs.items():
        if not v > 0:
            raise ParameterError(f"{name} must be positive, got {v}")


def _vectorized(gamma, fn):
    g = np.asarray(gamma, dtype=float)
    out = fn(np.atleast_1d(g).astype(float))
    return float(out[0]) if g.ndim == 0 else out.reshape(g.shape)


def _on_support(gamma, floor: float, fn, at_inf: float = 0.0):
    """fn on the finite metric values above floor; at_inf at +inf, else 0."""
    def masked(g):
        out = np.where(g == math.inf, at_inf, 0.0)
        on = (g > floor) & (g < math.inf)
        out[on] = fn(g[on])
        return out

    return _vectorized(gamma, masked)


def _lens_shape(x: np.ndarray) -> np.ndarray:
    # area of {metric <= gamma} equals 2 d^2 * _lens_shape(gamma/d); zero at x=1
    xs = np.maximum(x, 1.0)
    inv = 1.0 / xs
    with np.errstate(over="ignore"):  # factored to overflow to inf, never to inf - inf
        return xs * (xs * np.arccos(inv) - np.sqrt((1.0 - inv) * (1.0 + inv)))


def _lens_area(s: float, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Intersection areas of discs with center separation s and the given radii."""
    c1 = np.clip((s * s + r1 * r1 - r2 * r2) / (2.0 * s * r1), -1.0, 1.0)
    c2 = np.clip((s * s + r2 * r2 - r1 * r1) / (2.0 * s * r2), -1.0, 1.0)
    k = (r1 + r2 - s) * (s + r1 - r2) * (s - r1 + r2) * (s + r1 + r2)
    lens = r1 * r1 * np.arccos(c1) + r2 * r2 * np.arccos(c2) - 0.5 * np.sqrt(np.maximum(k, 0.0))
    return np.where(r1 + r2 <= s, 0.0, np.where(
        np.abs(r1 - r2) >= s, math.pi * np.minimum(r1, r2) ** 2, lens))


# ---------------------------------------------------------------------------
# best (optimum-policy) CQI over an unbounded homogeneous Poisson field

def best_cqi_cdf(gamma, intensity: float, half_distance: float):
    """cdf of the minimal selection metric; support starts at the half distance."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    d, lam = half_distance, intensity
    return _on_support(gamma, d, lambda g: -np.expm1(-2.0 * lam * d * d * _lens_shape(g / d)),
                       1.0)


def best_cqi_pdf(gamma, intensity: float, half_distance: float):
    _check_positive(intensity=intensity, half_distance=half_distance)
    d, lam = half_distance, intensity

    def fn(g):
        x = g / d
        return 4.0 * lam * g * np.arccos(1.0 / x) * np.exp(-2.0 * lam * d * d * _lens_shape(x))

    return _on_support(gamma, d, fn)


def best_cqi_log_pdf(gamma, intensity: float, half_distance: float):
    """Natural log of the best-CQI density; stays finite deep into the tail,
    where the density itself underflows doubles (exponent ~ -pi * intensity *
    gamma^2)."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    d, lam = half_distance, intensity

    def fn(g):
        out = np.full_like(g, -np.inf)
        on = (g > d) & np.isfinite(g)
        x = g[on] / d
        out[on] = (np.log(4.0 * lam * g[on] * np.arccos(1.0 / x))
                   - 2.0 * lam * d * d * _lens_shape(x))
        return out

    return _vectorized(gamma, fn)


def best_cqi_mean(intensity: float, half_distance: float) -> float:
    """Mean of the best CQI."""
    return best_cqi_law(intensity, half_distance).expect(lambda g: g)


# ---------------------------------------------------------------------------
# finite simulation window

def disc_point_metric_cdf(gamma, window_radius: float, half_distance: float):
    """cdf of the metric at a single point uniform on the disc of the given radius."""
    _check_positive(window_radius=window_radius, half_distance=half_distance)
    d, tau = half_distance, window_radius

    def fn(g):
        out = np.zeros_like(g)
        mid = (g >= d) & (g <= math.hypot(tau, d))
        x = g[mid]
        out[mid] = (2.0 / (math.pi * tau * tau)) * (
            x * x * np.arccos(np.minimum(d / x, 1.0)) - d * np.sqrt(np.maximum(x * x - d * d, 0.0)))
        rim = (g > math.hypot(tau, d)) & (g <= tau + d)
        x = g[rim]
        q = tau * tau + d * d - x * x  # negative on this branch
        root = np.sqrt(np.maximum(4.0 * d * d * tau * tau - q * q, 0.0))
        t1 = (2.0 * x * x / (math.pi * tau * tau)) * (
            np.arccos(np.clip(q / (-2.0 * d * tau), -1.0, 1.0))
            - np.arctan2(root, tau * tau - d * d + x * x))
        t2 = -(2.0 / math.pi) * np.arcsin(np.clip(q / (2.0 * d * tau), -1.0, 1.0))
        t3 = -np.sqrt(np.maximum(
            (tau - d + x) * (tau + d - x) * (d - tau + x) * (tau + d + x), 0.0)) / (math.pi * tau * tau)
        out[rim] = t1 + t2 + t3
        out[g > tau + d] = 1.0
        return out

    return _vectorized(gamma, fn)


def best_cqi_cdf_finite(gamma, intensity: float, half_distance: float,
                        window_radius: float):
    """Best-CQI cdf when relays are confined to a disc; defective by the
    no-relay mass exp(-intensity * pi * window_radius^2)."""
    _check_positive(intensity=intensity)
    lam, tau = intensity, window_radius

    def fn(g):
        base = np.atleast_1d(disc_point_metric_cdf(g, window_radius, half_distance))
        return -np.expm1(-lam * math.pi * tau * tau * base)

    return _vectorized(gamma, fn)


# ---------------------------------------------------------------------------
# metric of a uniform point on an annulus (feeds the optimality probability)

def annulus_metric_ccdf(t, inner_radius: float, outer_radius: float,
                        half_distance: float):
    """P(metric > t) for a point uniform on the annulus between the two radii.

    Requires outer_radius >= sqrt(inner^2 + 2 d inner) so the five-branch
    closed form applies.
    """
    d, psi, tau = half_distance, inner_radius, outer_radius
    _check_positive(outer_radius=outer_radius, half_distance=half_distance)
    if not psi >= 0:
        raise ParameterError(f"inner_radius must be non-negative, got {psi}")
    if tau < math.sqrt(psi * psi + 2.0 * d * psi):
        raise ParameterError(
            f"need outer_radius >= sqrt(inner^2 + 2 d inner) = "
            f"{math.sqrt(psi * psi + 2 * d * psi):g}, got {tau}")
    area2 = tau * tau - psi * psi

    def p_term(tv, y):
        rem = np.sqrt(np.maximum(tv * tv - y * y, 0.0))
        return (2.0 * y * rem + 2.0 * tv * tv * np.arctan2(y, rem)) / (math.pi * area2)

    def fn(tv):
        out = np.zeros_like(tv)
        out[tv < math.hypot(psi, d)] = 1.0
        near = (tv >= math.hypot(psi, d)) & (tv < psi + d)
        if near.any():
            x = tv[near]
            a = np.arccos(np.clip((x * x - psi * psi - d * d) / (2.0 * d * psi), -1.0, 1.0))
            out[near] = ((tau * tau - x * x) / area2
                         + (2.0 * a * (x * x - psi * psi) + d * d * np.sin(2.0 * a))
                         / (math.pi * area2)
                         + p_term(x, d) - p_term(x, d * np.sin(a)))
        mid = (tv >= psi + d) & (tv < math.hypot(tau, d))
        if mid.any():
            x = tv[mid]
            out[mid] = (tau * tau - x * x) / area2 + p_term(x, d)
        far = (tv >= math.hypot(tau, d)) & (tv < tau + d)
        if far.any():
            x = tv[far]
            b = np.arccos(np.clip((x * x - tau * tau - d * d) / (2.0 * d * tau), -1.0, 1.0))
            out[far] = ((2.0 * b * (tau * tau - x * x) - d * d * np.sin(2.0 * b))
                        / (math.pi * area2)
                        + p_term(x, d * np.sin(b)))
        return out

    return _vectorized(t, fn)


# ---------------------------------------------------------------------------
# benchmark policies: mid-point and closest-to-destination

def nearest_neighbor_pdf(psi, intensity: float):
    """Distance from the origin to the nearest point of the Poisson field."""
    p = np.asarray(psi, dtype=float)
    out = np.where(p >= 0, 2.0 * intensity * math.pi * p
                   * np.exp(-intensity * math.pi * p * p), 0.0)
    return float(out) if out.ndim == 0 else out


def nearest_neighbor_cdf(psi, intensity: float):
    p = np.asarray(psi, dtype=float)
    out = np.where(p >= 0, -np.expm1(-intensity * math.pi * p * p), 0.0)
    return float(out) if out.ndim == 0 else out


def _gauss_legendre(integrand, top, *rows):
    """Integral of integrand(t, *rows) over t in [0, top], one value per row;
    the integrand sees top and rows as columns against the (rows, nodes) grid."""
    if top.size > _BLOCK:
        return np.concatenate([
            _gauss_legendre(integrand, top[i:i + _BLOCK], *(r[i:i + _BLOCK] for r in rows))
            for i in range(0, top.size, _BLOCK)])
    vals = integrand(top[:, None] * _GL_NODES, *(r[:, None] for r in rows))
    return top * (vals * _GL_WEIGHTS).sum(axis=1)


def _sqrt_shift_integral(lam: float, lo, span, far):
    # integral of exp(-lam pi x)/sqrt((x - lo)(lo + far - x)) over [lo, lo + span]
    # via x = lo + u^2, which removes the lower-endpoint singularity
    def integrand(u, lo, far):
        uu = u * u
        return 2.0 * np.exp(-lam * math.pi * (lo + uu)) / np.sqrt(far - uu)

    top = np.minimum(np.sqrt(span), _REACH / math.sqrt(lam))
    return _gauss_legendre(integrand, top, lo, far)


def _nn_angle_cdf(g, lam: float, base, psi0, psi1, fraction):
    """base + integral over [psi0, psi1] of f_nn(psi) * fraction(psi, g), where
    fraction is the share of angles at distance psi from the policy's centre
    that keeps the metric at most g; nodes follow psi = psi0 + a (cosh v - 1)."""
    span = np.minimum(psi1 - psi0, _REACH / math.sqrt(lam))
    a = np.maximum(psi0, 1e-6 * span)

    def integrand(v, psi0, a, g):
        half = np.sinh(0.5 * v)
        psi = psi0 + 2.0 * a * half * half
        return nearest_neighbor_pdf(psi, lam) * fraction(psi, g) * a * np.sinh(v)

    # cosh(top) - 1 = span / a
    return base + _gauss_legendre(integrand, 2.0 * np.arcsinh(np.sqrt(span / (2.0 * a))),
                                  psi0, a, g)


def midpoint_cqi_cdf(gamma, intensity: float, half_distance: float):
    """cdf of the metric at the relay nearest to the mid-point."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    lam, d = intensity, half_distance

    def fraction(psi, g):
        return (2.0 / math.pi) * np.arcsin(np.clip(
            ((g - psi) * (g + psi) - d * d) / (2.0 * d * psi), -1.0, 1.0))

    return _on_support(gamma, d, lambda g: _nn_angle_cdf(
        g, lam, nearest_neighbor_cdf(g - d, lam), g - d, np.sqrt((g - d) * (g + d)),
        fraction), 1.0)


def midpoint_cqi_pdf(gamma, intensity: float, half_distance: float):
    _check_positive(intensity=intensity, half_distance=half_distance)
    lam, d = intensity, half_distance
    return _on_support(gamma, d, lambda g: 4.0 * lam * g * _sqrt_shift_integral(
        lam, (g - d) ** 2, 2.0 * d * (g - d), 4.0 * d * g))


def closest_to_destination_cqi_cdf(gamma, intensity: float, half_distance: float):
    """cdf of the metric at the relay nearest to the destination."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    lam, d = intensity, half_distance

    def fraction(psi, g):
        return (1.0 / math.pi) * np.arccos(np.clip(
            ((psi - g) * (psi + g) + 4.0 * d * d) / (4.0 * d * psi), -1.0, 1.0))

    return _on_support(gamma, d, lambda g: _nn_angle_cdf(
        g, lam, nearest_neighbor_cdf(g - 2.0 * d, lam), np.abs(g - 2.0 * d), g, fraction), 1.0)


def closest_to_destination_cqi_pdf(gamma, intensity: float, half_distance: float):
    _check_positive(intensity=intensity, half_distance=half_distance)
    lam, d = intensity, half_distance

    def fn(g):
        atom = np.arccos(np.minimum(1.0, d / g)) * np.exp(-lam * math.pi * g * g)
        return 2.0 * lam * g * (atom + _sqrt_shift_integral(
            lam, (g - 2.0 * d) ** 2, 4.0 * d * (g - d), 8.0 * d * g))

    return _on_support(gamma, d, fn)


# ---------------------------------------------------------------------------
# mid-point optimality

def prob_sufficient(intensity: float, half_distance: float) -> float:
    """Probability of the sufficiency certificate for mid-point optimality.

    Evaluated through the scaled complementary error function, so large
    intensity * d^2 cannot overflow.
    """
    _check_positive(intensity=intensity, half_distance=half_distance)
    return float(erfc_scaled(math.sqrt(intensity * math.pi) * half_distance))


def midpoint_displacement_exponent(psi, theta, half_distance: float):
    """Area-type exponent P(psi, theta) controlling how likely a relay beats
    the mid-point selection from norm psi and angle theta in [0, pi/2] (arrays broadcast)."""
    d = half_distance
    s2 = psi * psi + 2.0 * d * psi * np.cos(theta) + d * d

    def v_term(y):
        rem = np.sqrt(np.maximum(s2 - y * y, 0.0))
        return 2.0 * y * rem + 2.0 * s2 * np.arctan2(y, rem)

    return ((s2 - psi * psi) * (math.pi - 2.0 * theta)
            - d * d * np.sin(2.0 * theta)
            - v_term(d) + v_term(d * np.sin(theta)))


def nearest_to_midpoint_mean(intensity: float, half_distance: float, weight) -> float:
    """Mean of weight(psi, theta) over the norm and angle of the relay nearest the mid-point."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    top = math.sqrt(_REACH / math.sqrt(intensity))  # psi = u^2 up to r
    u, x = top * _GL_NODES, _GL_NODES[:, None]  # theta = x (2 - x) pi/2 crowds toward pi/2
    vals = weight(u * u, 0.5 * math.pi * x * (2.0 - x)) * nearest_neighbor_pdf(u * u, intensity)
    return top * float(_GL_WEIGHTS @ (vals * 4.0 * u * (1.0 - x)) @ _GL_WEIGHTS)


def prob_midpoint_optimal(intensity: float, half_distance: float) -> float:
    """Probability that the mid-point policy picks the overall best relay."""
    return nearest_to_midpoint_mean(intensity, half_distance, lambda psi, theta: np.exp(
        -intensity * midpoint_displacement_exponent(psi, theta, half_distance)))


# ---------------------------------------------------------------------------
# received SNR factor S = snr * G(CQI)

def received_snr_cdf(s, law: "CqiLaw", snr: float, path_loss: PathLoss):
    """cdf of the post-path-loss link SNR under the given CQI law."""
    _check_positive(snr=snr)

    def fn(sv):
        out = np.zeros_like(sv)
        rest = ~(sv <= 0)
        x = path_loss.gain_inverse(sv[rest] / snr)
        finite = np.isfinite(x)
        below = np.full_like(x, law.total_mass)
        below[finite] = law.cdf(x[finite])
        out[rest] = 1.0 - below
        return out

    return _vectorized(s, fn)


def received_snr_pdf(s, law: "CqiLaw", snr: float, path_loss: PathLoss):
    """Density of the link SNR; needs a smooth path loss and a law density."""
    _check_positive(snr=snr)
    if not path_loss.smooth:
        raise UnsupportedOperationError(
            f"received-SNR density undefined for non-smooth path loss '{path_loss.name}'")
    if law.pdf is None:
        raise UnsupportedOperationError(f"law '{law.name}' has no density")

    def fn(sv):
        out = np.zeros_like(sv)
        top = snr * path_loss.gain(law.support_min)
        inside = ~((sv <= 0) | (sv >= top))
        x = path_loss.gain_inverse(sv[inside] / snr)
        out[inside] = law.pdf(x) / (snr * np.abs(path_loss.gain_derivative(x)))
        return out

    return _vectorized(s, fn)


def best_received_snr_cdf(s, intensity, half_distance, snr, path_loss):
    return received_snr_cdf(s, best_cqi_law(intensity, half_distance), snr, path_loss)


def best_received_snr_pdf(s, intensity, half_distance, snr, path_loss):
    return received_snr_pdf(s, best_cqi_law(intensity, half_distance), snr, path_loss)


# ---------------------------------------------------------------------------
# isotropic (non-homogeneous) fields

_ISOTROPIC_TOL = 1e-9  # absolute tolerance of the master formula's quadrature


def _reach(g, d: float, theta):
    # radius of the centered ball swept at angle theta for metric level g,
    # sqrt(g^2 - (d sin theta)^2) - d cos theta rationalised: no cancellation
    # near g = d, and no g^2 to overflow
    ds = d * np.sin(theta)
    return (g - d) * ((g + d) / (np.sqrt(g - ds) * np.sqrt(g + ds) + d * np.cos(theta)))


def isotropic_best_cqi_cdf(gamma, mean_measure: Callable[[float], float],
                           half_distance: float):
    """Best-CQI cdf for a rotation-invariant Poisson field.

    ``mean_measure(r)`` is the expected point count in the centered ball of
    radius r (non-decreasing, 0 at 0).
    """
    _check_positive(half_distance=half_distance)
    d = half_distance

    def one(g: float) -> float:
        if g < d:
            return 0.0
        if not math.isfinite(g):
            g = 1e300

        def f(theta):
            return mean_measure(float(_reach(g, d, theta)))

        q = quad_adaptive(f, 0.0, math.pi / 2.0, tol=_ISOTROPIC_TOL)
        return -math.expm1(-(2.0 / math.pi) * q.value)

    return _vectorized(gamma, lambda gs: np.array([one(v) for v in gs]))


def isotropic_best_cqi_pdf(gamma, radial_intensity: Callable[[float], float],
                           half_distance: float,
                           mean_measure: Callable[[float], float] | None = None):
    """Best-CQI density for an isotropic field with continuous radial intensity.

    ``mean_measure`` may be passed when a closed form exists; otherwise it is
    recovered from the radial intensity by quadrature.
    """
    _check_positive(half_distance=half_distance)
    d = half_distance

    if mean_measure is None:
        def mean_measure(r):  # noqa: F811 - deliberate default
            if r <= 0:
                return 0.0
            q = quad_adaptive(lambda p: radial_intensity(p) * p, 0.0, r, tol=_ISOTROPIC_TOL)
            return 2.0 * math.pi * q.value

    def one(g: float) -> float:
        if g < d or not math.isfinite(g):
            return 0.0

        def front(theta):  # r + d cos(theta) = sqrt(g^2 - (d sin(theta))^2)
            r = float(_reach(g, d, theta))
            return g * (r / (r + d * math.cos(theta))) * radial_intensity(r)

        pre = quad_adaptive(front, 0.0, math.pi / 2.0, tol=_ISOTROPIC_TOL).value
        surv = 1.0 - isotropic_best_cqi_cdf(g, mean_measure, d)
        return 4.0 * pre * surv

    return _vectorized(gamma, lambda gs: np.array([one(v) for v in gs]))


def exclusion_cqi_cdf(gamma, intensity: float, exclusion_radius: float,
                      half_distance: float):
    """Best-CQI cdf with a central exclusion disc of the given radius."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    if not exclusion_radius >= 0:
        raise ParameterError("exclusion_radius must be non-negative")
    lam, r, d = intensity, exclusion_radius, half_distance
    if r == 0.0:
        return best_cqi_cdf(gamma, intensity, half_distance)

    def fn(g_all):
        g = np.minimum(g_all, r + d)  # the inner branch; it would overflow at huge g
        x = g / d
        cos_star = np.clip((g * g - d * d - r * r) / (2.0 * d * r), -1.0, 1.0)
        b = np.sqrt(np.maximum((d + r - g) * (d + r + g) * (g + d - r) * (g + r - d),
                               0.0)) / (2.0 * d * r)
        # arccsc((g/d)/b) = arcsin(b d / g); b <= g/d always holds here
        i_term = (x * x * (np.arccos(1.0 / x) + np.arcsin(np.minimum(1.0, b / x))
                           - np.arccos(cos_star))
                  + b * (np.sqrt(np.maximum(x * x - b * b, 0.0)) - cos_star)
                  - np.sqrt(x * x - 1.0))
        return -np.expm1(np.where(
            g_all > r + d, -2.0 * lam * d * d * _lens_shape(g_all / d) + lam * math.pi * r * r,
            -2.0 * lam * d * d * i_term + 2.0 * lam * r * r * np.arcsin(cos_star)))

    return _on_support(gamma, math.hypot(r, d), fn, 1.0)


def ring_cqi_cdf(gamma, intensity: float, ring_radius: float, half_distance: float):
    """Best-CQI cdf when relays live on a circle line; defective law."""
    _check_positive(intensity=intensity, ring_radius=ring_radius, half_distance=half_distance)
    lam, r, d = intensity, ring_radius, half_distance
    cap = -math.expm1(-2.0 * lam * math.pi * r)
    return _on_support(gamma, math.hypot(r, d), lambda g: np.where(
        g > r + d, cap, -np.expm1(-4.0 * lam * r * np.arcsin(np.clip(
            (g * g - d * d - r * r) / (2.0 * d * r), -1.0, 1.0)))), cap)


def gaussian_cqi_cdf(gamma, mean_count: float, spread: float, half_distance: float):
    """Best-CQI cdf for the Gaussian cluster; defective law with mass
    1 - exp(-mean_count)."""
    _check_positive(mean_count=mean_count, spread=spread, half_distance=half_distance)
    n, sig, d = mean_count, spread, half_distance

    def integrand(x, g):
        # the share of the mean count within the reach at the angle
        # theta = (1 - y^3) pi/2, y = 1 - x, which crowds toward pi/2
        y = 1.0 - x
        q = _reach(g, d, 0.5 * math.pi * (1.0 - y * y * y)) / (math.sqrt(2.0) * sig)
        return -np.expm1(-q * q) * 1.5 * math.pi * y * y

    def fn(g):
        with np.errstate(over="ignore"):  # q^2 overflows to inf at huge g
            inside = _gauss_legendre(integrand, np.ones_like(g), g)
        return -np.expm1(-(2.0 * n / math.pi) * inside)

    return _on_support(gamma, d, fn, -math.expm1(-n))


# ---------------------------------------------------------------------------
# unequal per-hop SNR

def unequal_snr_support_min(half_distance: float, scale_source: float,
                            scale_destination: float) -> float:
    _check_positive(half_distance=half_distance, scale_source=scale_source,
                    scale_destination=scale_destination)
    return (2.0 * half_distance * scale_source * scale_destination
            / (scale_source + scale_destination))


def unequal_snr_cqi_cdf(gamma, intensity: float, half_distance: float,
                        scale_source: float, scale_destination: float):
    """cdf of the minimal weighted metric with per-hop scales snr_i^(-1/alpha).

    The sub-level set of the weighted metric is the intersection of a disc
    around the source (radius gamma / scale_source) and one around the
    destination (radius gamma / scale_destination): the cdf is one minus the
    void probability of that lens.
    """
    _check_positive(intensity=intensity)
    bound = unequal_snr_support_min(half_distance, scale_source, scale_destination)
    lam, d = intensity, half_distance
    return _on_support(gamma, bound, lambda g: -np.expm1(
        -lam * _lens_area(2.0 * d, g / scale_source, g / scale_destination)), 1.0)


# ---------------------------------------------------------------------------
# bundled cdf/pdf evaluators

@dataclass(frozen=True)
class CqiLaw:
    """A named CQI distribution: cdf, optional pdf, support bound, total mass and,
    with a pdf, the panel edges ``expect`` integrates over."""

    name: str
    cdf: Callable
    pdf: Callable | None
    support_min: float
    total_mass: float = 1.0
    edges: tuple = ()

    def expect(self, fn, hi: float = math.inf) -> float:
        """Integral of fn(gamma) pdf(gamma) up to hi on the fixed rule; fn takes arrays."""
        if self.pdf is None or not self.edges:
            raise ParameterError(f"law '{self.name}' has no density to integrate against")
        edges = np.minimum(self.edges, hi)

        def integrand(s, lo):
            g = lo + s * s
            return fn(g) * self.pdf(g) * 2.0 * s

        return float(_gauss_legendre(integrand, np.sqrt(np.diff(edges)), edges[:-1]).sum())

    def quantile(self, p: float) -> float:
        """Smallest x with cdf(x) >= p; +inf beyond the law's total mass."""
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"quantile level must be in [0, 1], got {p}")
        if p >= self.total_mass:
            return math.inf
        return solve_above_floor(self.cdf, p, self.support_min, max(self.support_min, 1.0))


def _panel_edges(intensity: float, d: float) -> tuple:
    _check_positive(intensity=intensity, half_distance=d)
    r = _REACH / math.sqrt(intensity)
    a, k = max(d, 2.0 * d - r), 8.0 ** np.arange(3)
    return tuple(np.unique(np.concatenate([[d, a, 2.0 * d, 2.0 * d + r], d + (a - d) / (8.0 * k),
                                           2.0 * d + np.minimum(r, d * k)])))


def best_cqi_law(intensity: float, half_distance: float) -> CqiLaw:
    return CqiLaw(
        "best-cqi",
        lambda g: best_cqi_cdf(g, intensity, half_distance),
        lambda g: best_cqi_pdf(g, intensity, half_distance),
        support_min=half_distance,
        edges=_panel_edges(intensity, half_distance),
    )


def best_cqi_law_finite(intensity: float, half_distance: float,
                        window_radius: float) -> CqiLaw:
    mass = -math.expm1(-intensity * math.pi * window_radius ** 2)
    return CqiLaw(
        f"best-cqi-window({window_radius:g})",
        lambda g: best_cqi_cdf_finite(g, intensity, half_distance, window_radius),
        None,
        support_min=half_distance,
        total_mass=mass,
    )


def midpoint_cqi_law(intensity: float, half_distance: float) -> CqiLaw:
    return CqiLaw(
        "midpoint-cqi",
        lambda g: midpoint_cqi_cdf(g, intensity, half_distance),
        lambda g: midpoint_cqi_pdf(g, intensity, half_distance),
        support_min=half_distance,
        edges=_panel_edges(intensity, half_distance),
    )


def closest_to_destination_cqi_law(intensity: float, half_distance: float) -> CqiLaw:
    return CqiLaw(
        "closest-to-destination-cqi",
        lambda g: closest_to_destination_cqi_cdf(g, intensity, half_distance),
        lambda g: closest_to_destination_cqi_pdf(g, intensity, half_distance),
        support_min=half_distance,
        edges=_panel_edges(intensity, half_distance),
    )


def policy_law(policy: str, intensity: float, half_distance: float) -> CqiLaw:
    """CQI law of the relay a location-based policy selects, by policy name."""
    factory = {"optimum": best_cqi_law, "mid-point": midpoint_cqi_law,
               "closest-to-destination": closest_to_destination_cqi_law}.get(policy)
    if factory is None:
        raise ParameterError(f"no analytic law for policy {policy!r}")
    return factory(intensity, half_distance)


def unequal_snr_cqi_law(intensity: float, half_distance: float,
                        scale_source: float, scale_destination: float) -> CqiLaw:
    return CqiLaw(
        "best-cqi-unequal-snr",
        lambda g: unequal_snr_cqi_cdf(g, intensity, half_distance,
                                      scale_source, scale_destination),
        None,
        support_min=unequal_snr_support_min(half_distance, scale_source, scale_destination),
    )
