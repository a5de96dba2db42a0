"""Closed-form and quadrature-based CQI distributions and selection probabilities.

Conventions: ``intensity`` is the mean relay count per unit area, ``half_distance``
the geometry parameter d, and ``gamma`` a selection-metric value. Every cdf is 0
below its support minimum; laws driven by a finite-mean point count are
defective (total mass < 1), the missing mass being the no-relay event.

Every law takes a scalar or an array of metric values; NaN gives 0.

Numerical notes: scaled erfc avoids overflow in the sufficiency probability.
Each planar area is written once. ``_lens_area`` is the lens of two discs, two
segments with half-angles from atan2 (x - sin x from its series below 1): the
best-CQI law and its density read it at equal radii, the unequal-SNR law at
unequal ones. ``_lens_outside_disc`` is the equal-radius lens outside a centred
disc: the mid-point displacement exponent up to the disc's rim, the lens less the
disc beyond it. The exclusion law reads it, and so does the annulus law up to
hypot(tau, d), past which ``_strip_area`` gives the sliver outside the outer disc;
``_strip_area`` also serves the mid-point exponent. The window law is the annulus
law at inner radius 0, and the exclusion law at radius 0 is the best-CQI law.
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

from .errors import NumericError, ParameterError, UnsupportedOperationError
from .model import NetworkGeometry, PathLoss, diff_metric_minimum
# perfbench traces quad_adaptive and solve_monotone by rebinding these module names
from .numerics import (erfc_scaled, quad_adaptive, solve_above_floor,  # noqa: F401
                       solve_monotone, vectorized)

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
    "POLICY_LAWS", "policy_law",
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


def _on_support(gamma, floor: float, fn, at_inf: float = 0.0):
    """fn on the finite metric values above floor; at_inf at +inf, else 0."""
    def masked(g):
        out = np.where(g == math.inf, at_inf, 0.0)
        on = (g > floor) & (g < math.inf)
        out[on] = fn(g[on])
        return out

    return vectorized(gamma, masked)


def _segment(r, alpha):
    """Area r^2 (2 alpha - sin 2 alpha)/2 of the circular segment of half-angle alpha;
    below 1, x - sin x is summed from its series instead of cancelling."""
    x = 2.0 * alpha
    xx = x * x
    series = np.ones_like(x)
    for k in range(11, 1, -1):  # Horner over the terms (2k)(2k + 1), k = 2 .. 11
        series = 1.0 - xx / (2 * k * (2 * k + 1)) * series
    return 0.5 * r * r * np.where(x < 1.0, x * xx / 6.0 * series, x - np.sin(x))


def _lens_area(s: float, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Intersection areas of discs with center separation s and the given radii: two
    segments with half-angles atan2(2 s h, s^2 + r_i^2 - r_j^2), h the half-chord."""
    total, skew = r1 + r2, r1 - r2  # r1 - r2 first: s + r1 - r2 loses s when r1 >> s
    # k and r^2 overflow to inf, and the area with them; inf * 0 arises only in the
    # disjoint and contained branches, which the last line masks
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum((total - s) * (s + skew) * (s - skew) * (total + s), 0.0))
        lens = (_segment(r1, np.arctan2(root, s * s + skew * total))
                + _segment(r2, np.arctan2(root, s * s - skew * total)))
        return np.where(total <= s, 0.0, np.where(
            np.abs(skew) >= s, math.pi * np.minimum(r1, r2) ** 2, lens))


def _strip_area(r2, y):
    """Area of the disc of squared radius r2 inside the strip |t| <= y, for y >= 0."""
    rem = np.sqrt(np.maximum(r2 - y * y, 0.0))
    return 2.0 * y * rem + 2.0 * r2 * np.arctan2(y, rem)


def _crossing_cosine(g, psi: float, d: float):
    """Cosine, clipped to [-1, 1], of the angle at which the circle of radius psi
    meets the circle of radius g about a point d from its centre, measured from the
    direction away from that point. About the mid-point, with the source d away,
    the second circle bounds {metric <= g}."""
    return np.clip(((g - psi) * (g + psi) - d * d) / (2.0 * d * psi), -1.0, 1.0)


def _lens_half_angle(g, d: float):
    """arccos(d/g), the half-angle of the equal lens at each of its centres, from
    atan2 so that it does not cancel near g = d."""
    return np.arctan2(np.sqrt(g - d) * np.sqrt(g + d), d)


def _lens_outside_disc(g, psi: float, d: float):
    """Area of {metric <= g} outside the centred disc of radius psi, for g >= hypot(psi, d):
    up to the rim psi + d, the mid-point displacement exponent at the angle where the
    lens boundary meets the circle; beyond it, the whole lens less the disc."""
    out = _lens_area(2.0 * d, g, g) - math.pi * psi * psi
    near = g < psi + d
    out[near] = midpoint_displacement_exponent(
        psi, np.arccos(_crossing_cosine(g[near], psi, d)), d)
    return out


# ---------------------------------------------------------------------------
# best (optimum-policy) CQI over an unbounded homogeneous Poisson field

def best_cqi_cdf(gamma, intensity: float, half_distance: float):
    """cdf of the minimal selection metric; support starts at the half distance."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    d, lam = half_distance, intensity
    return _on_support(gamma, d, lambda g: -np.expm1(-lam * _lens_area(2.0 * d, g, g)), 1.0)


def best_cqi_pdf(gamma, intensity: float, half_distance: float):
    _check_positive(intensity=intensity, half_distance=half_distance)
    d, lam = half_distance, intensity

    def fn(g):
        return (4.0 * lam * g * _lens_half_angle(g, d)
                * np.exp(-lam * _lens_area(2.0 * d, g, g)))

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
        x = g[on]
        out[on] = (np.log(4.0 * lam * x * _lens_half_angle(x, d))
                   - lam * _lens_area(2.0 * d, x, x))
        return out

    return vectorized(gamma, fn)


def best_cqi_mean(intensity: float, half_distance: float) -> float:
    """Mean of the best CQI."""
    return best_cqi_law(intensity, half_distance).expect(lambda g: g)


# ---------------------------------------------------------------------------
# metric of a uniform point on a disc or an annulus (the finite window, and the
# optimality probability)

def _annulus_metric_split(tv, psi: float, tau: float, d: float):
    """(P(metric <= t), P(metric > t)) for a point uniform on the annulus between
    the radii psi and tau. Each branch computes one side without cancelling and
    takes the other as one minus it: the region of the lens outside the hole up to
    hypot(tau, d), and the sliver outside the disc beyond it."""
    area2 = tau * tau - psi * psi

    def p_term(x, y):
        return _strip_area(x * x, y) / (math.pi * area2)

    below, above = np.zeros_like(tv), np.zeros_like(tv)
    above[tv < math.hypot(psi, d)] = 1.0
    below[tv >= tau + d] = 1.0
    inner = (tv >= math.hypot(psi, d)) & (tv < math.hypot(tau, d))
    below[inner] = _lens_outside_disc(tv[inner], psi, d) / (math.pi * area2)
    far = (tv >= math.hypot(tau, d)) & (tv < tau + d)
    x = tv[far]
    b = np.arccos(_crossing_cosine(x, tau, d))
    above[far] = ((2.0 * b * (tau * tau - x * x) - d * d * np.sin(2.0 * b)) / (math.pi * area2)
                  + p_term(x, d * np.sin(b)))
    below[far] = 1.0 - above[far]
    above[inner] = 1.0 - below[inner]
    return below, above


def disc_point_metric_cdf(gamma, window_radius: float, half_distance: float):
    """cdf of the metric at a single point uniform on the disc of the given radius:
    the annulus law at inner radius 0."""
    _check_positive(window_radius=window_radius, half_distance=half_distance)
    return _on_support(gamma, half_distance, lambda g: _annulus_metric_split(
        g, 0.0, window_radius, half_distance)[0], 1.0)


def best_cqi_cdf_finite(gamma, intensity: float, half_distance: float,
                        window_radius: float):
    """Best-CQI cdf when relays are confined to a disc; defective by the
    no-relay mass exp(-intensity * pi * window_radius^2)."""
    _check_positive(intensity=intensity)
    exponent = intensity * math.pi * window_radius * window_radius
    return vectorized(gamma, lambda g: -np.expm1(
        -exponent * disc_point_metric_cdf(g, window_radius, half_distance)))


def annulus_metric_ccdf(t, inner_radius: float, outer_radius: float,
                        half_distance: float):
    """P(metric > t) for a point uniform on the annulus between the two radii.

    Requires outer_radius >= sqrt(inner^2 + 2 d inner) so the closed form applies.
    """
    d, psi, tau = half_distance, inner_radius, outer_radius
    _check_positive(outer_radius=outer_radius, half_distance=half_distance)
    if not psi >= 0:
        raise ParameterError(f"inner_radius must be non-negative, got {psi}")
    if tau < math.sqrt(psi * psi + 2.0 * d * psi):
        raise ParameterError(
            f"need outer_radius >= sqrt(inner^2 + 2 d inner) = "
            f"{math.sqrt(psi * psi + 2 * d * psi):g}, got {tau}")
    return vectorized(t, lambda tv: _annulus_metric_split(tv, psi, tau, d)[1])


# ---------------------------------------------------------------------------
# benchmark policies: mid-point and closest-to-destination

def nearest_neighbor_pdf(psi, intensity: float):
    """Distance from the origin to the nearest point of the Poisson field."""
    return vectorized(psi, lambda p: np.where(
        p >= 0, 2.0 * intensity * math.pi * p * np.exp(-intensity * math.pi * p * p), 0.0))


def nearest_neighbor_cdf(psi, intensity: float):
    return vectorized(psi, lambda p: np.where(
        p >= 0, -np.expm1(-intensity * math.pi * p * p), 0.0))


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
        return (2.0 / math.pi) * np.arcsin(_crossing_cosine(g, psi, d))

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

    def fraction(psi, g):  # the source lies 2d from the destination
        return (1.0 / math.pi) * np.arccos(-_crossing_cosine(g, psi, 2.0 * d))

    return _on_support(gamma, d, lambda g: _nn_angle_cdf(
        g, lam, nearest_neighbor_cdf(g - 2.0 * d, lam), np.abs(g - 2.0 * d), g, fraction), 1.0)


def closest_to_destination_cqi_pdf(gamma, intensity: float, half_distance: float):
    _check_positive(intensity=intensity, half_distance=half_distance)
    lam, d = intensity, half_distance

    def fn(g):
        atom = _lens_half_angle(g, d) * np.exp(-lam * math.pi * g * g)
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
    the mid-point selection from norm psi and angle theta in [0, pi/2] (arrays broadcast):
    the area of {metric <= s} outside the centred disc of radius psi, where
    s^2 = psi^2 + 2 d psi cos(theta) + d^2 is the metric at that point."""
    d = half_distance
    s2 = psi * psi + 2.0 * d * psi * np.cos(theta) + d * d
    return ((s2 - psi * psi) * (math.pi - 2.0 * theta)
            - d * d * np.sin(2.0 * theta)
            - _strip_area(s2, d) + _strip_area(s2, d * np.sin(theta)))


def nearest_to_midpoint_mean(intensity: float, half_distance: float, weight) -> float:
    """Mean of weight(psi, theta) over the norm and angle of the relay nearest the mid-point."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    top = math.sqrt(_REACH / math.sqrt(intensity))  # psi = u^2 up to r
    u, x = top * _GL_NODES, _GL_NODES[:, None]  # theta = x (2 - x) pi/2 crowds toward pi/2
    vals = weight(u * u, 0.5 * math.pi * x * (2.0 - x)) * nearest_neighbor_pdf(u * u, intensity)
    return top * float(_GL_WEIGHTS @ (vals * 4.0 * u * (1.0 - x)) @ _GL_WEIGHTS)


def prob_midpoint_optimal(intensity: float, half_distance: float) -> float:
    """Probability that the mid-point policy picks the overall best relay.

    At large intensity the cancellation in ``midpoint_displacement_exponent``
    drives the value out of [0, 1] (near 1e16 at d = 1); that raises
    ``NumericError``.
    """
    p = nearest_to_midpoint_mean(intensity, half_distance, lambda psi, theta: np.exp(
        -intensity * midpoint_displacement_exponent(psi, theta, half_distance)))
    if not 0.0 <= p <= 1.0:
        raise NumericError(f"prob_midpoint_optimal({intensity!r}, {half_distance!r}) = {p!r} "
                           "is not a probability: the displacement area cancels")
    return p


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

    return vectorized(s, fn)


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

    return vectorized(s, fn)


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

    return vectorized(gamma, lambda gs: np.array([one(v) for v in gs]))


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

    return vectorized(gamma, lambda gs: np.array([one(v) for v in gs]))


def exclusion_cqi_cdf(gamma, intensity: float, exclusion_radius: float,
                      half_distance: float):
    """Best-CQI cdf with a central exclusion disc of the given radius."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    if not exclusion_radius >= 0:
        raise ParameterError("exclusion_radius must be non-negative")
    lam, r, d = intensity, exclusion_radius, half_distance
    return _on_support(gamma, math.hypot(r, d),
                       lambda g: -np.expm1(-lam * _lens_outside_disc(g, r, d)), 1.0)


def ring_cqi_cdf(gamma, intensity: float, ring_radius: float, half_distance: float):
    """Best-CQI cdf when relays live on a circle line; defective law."""
    _check_positive(intensity=intensity, ring_radius=ring_radius, half_distance=half_distance)
    lam, r, d = intensity, ring_radius, half_distance
    cap = -math.expm1(-2.0 * lam * math.pi * r)
    return _on_support(gamma, math.hypot(r, d), lambda g: np.where(
        g > r + d, cap, -np.expm1(-4.0 * lam * r * np.arcsin(_crossing_cosine(g, r, d)))),
        cap)


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
    return diff_metric_minimum(NetworkGeometry(half_distance), scale_source, scale_destination)


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
    def cdf(g):
        return best_cqi_cdf_finite(g, intensity, half_distance, window_radius)

    return CqiLaw(f"best-cqi-window({window_radius:g})", cdf, None,
                  support_min=half_distance, total_mass=cdf(math.inf))


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


# the policies with an analytic CQI law, by name, in the order the experiments report them
POLICY_LAWS = {"optimum": best_cqi_law, "mid-point": midpoint_cqi_law,
               "closest-to-destination": closest_to_destination_cqi_law}


def policy_law(policy: str, intensity: float, half_distance: float) -> CqiLaw:
    """CQI law of the relay a location-based policy selects, by policy name."""
    if policy not in POLICY_LAWS:
        raise ParameterError(f"no analytic law for policy {policy!r}")
    return POLICY_LAWS[policy](intensity, half_distance)


def unequal_snr_cqi_law(intensity: float, half_distance: float,
                        scale_source: float, scale_destination: float) -> CqiLaw:
    return CqiLaw(
        "best-cqi-unequal-snr",
        lambda g: unequal_snr_cqi_cdf(g, intensity, half_distance,
                                      scale_source, scale_destination),
        None,
        support_min=unequal_snr_support_min(half_distance, scale_source, scale_destination),
    )
