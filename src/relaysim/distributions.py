"""Closed-form and quadrature-based CQI distributions and selection probabilities.

Conventions: ``intensity`` is the mean relay count per unit area, ``half_distance``
the geometry parameter d, and ``gamma`` a selection-metric value. Every cdf is 0
below its support minimum; laws driven by a finite-mean point count are
defective (total mass < 1), the missing mass being the no-relay event.

Every law is a ``CqiLaw`` built by its family's constructor, the one place that
states the family's parameter checks, support floor, total mass and kinks; ``LAWS``
maps each family's name to that constructor. The public ``*_cdf``/``*_pdf``
functions hold the formulas and read floor and mass off their law, whose
evaluators call them back by name. Every law takes a scalar or an array of metric
values and is NaN at NaN; below its floor a law is 0, and at +inf a cdf is its
total mass and a density 0.

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
graded toward pi/2. The isotropic master formula integrates a caller's mean
measure at the reach over the angle, one panel between the angles where the reach
crosses each kink radius, graded toward each panel's end b by b - (b - a) y^3 for
the reach's feature of width sqrt(2 (gamma - d)/d) at pi/2 just above the floor.
The Gaussian-cluster law is that formula; no law calls adaptive quadrature.
"""
from __future__ import annotations

import functools
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
    "CqiLaw", "best_cqi_law", "best_cqi_law_finite", "disc_point_law", "annulus_point_law",
    "midpoint_cqi_law", "closest_to_destination_cqi_law", "unequal_snr_cqi_law",
    "exclusion_cqi_law", "ring_cqi_law", "gaussian_cqi_law",
    "LAWS", "POLICY_LAWS", "policy_law",
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


def _check_finite(**kwargs):
    for name, v in kwargs.items():
        if not v < math.inf:
            raise ParameterError(f"{name} must be finite, got {v}")


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
    d, lam = half_distance, intensity
    return best_cqi_law(lam, d).on_support(
        gamma, lambda g: -np.expm1(-lam * _lens_area(2.0 * d, g, g)))


def best_cqi_pdf(gamma, intensity: float, half_distance: float):
    d, lam = half_distance, intensity

    def fn(g):
        return (4.0 * lam * g * _lens_half_angle(g, d)
                * np.exp(-lam * _lens_area(2.0 * d, g, g)))

    return best_cqi_law(lam, d).on_support(gamma, fn, at_inf=0.0)


def best_cqi_log_pdf(gamma, intensity: float, half_distance: float):
    """Natural log of the best-CQI density; stays finite deep into the tail,
    where the density itself underflows doubles (exponent ~ -pi * intensity *
    gamma^2)."""
    d, lam = half_distance, intensity

    def fn(g):
        return np.log(4.0 * lam * g * _lens_half_angle(g, d)) - lam * _lens_area(2.0 * d, g, g)

    return best_cqi_law(lam, d).on_support(gamma, fn, below=-math.inf, at_inf=-math.inf)


def best_cqi_mean(intensity: float, half_distance: float) -> float:
    """Mean of the best CQI."""
    return best_cqi_law(intensity, half_distance).expect(lambda g: g)


# ---------------------------------------------------------------------------
# metric of a uniform point on a disc or an annulus (the finite window, and the
# optimality probability)

def _annulus_metric_split(tv, psi: float, tau: float, d: float):
    """(P(metric <= t), P(metric > t)) for a point uniform on the annulus between
    the radii psi and tau, at metric values t above its floor hypot(psi, d). Each
    branch computes one side without cancelling and takes the other as one minus
    it: the region of the lens outside the hole up to hypot(tau, d), and the sliver
    outside the disc beyond it."""
    area2 = tau * tau - psi * psi

    def p_term(x, y):
        return _strip_area(x * x, y) / (math.pi * area2)

    below, above = np.zeros_like(tv), np.zeros_like(tv)
    below[tv >= tau + d] = 1.0
    inner = tv < math.hypot(tau, d)
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
    return disc_point_law(window_radius, half_distance).on_support(
        gamma, lambda g: _annulus_metric_split(g, 0.0, window_radius, half_distance)[0])


def best_cqi_cdf_finite(gamma, intensity: float, half_distance: float,
                        window_radius: float):
    """Best-CQI cdf when relays are confined to a disc; defective by the
    no-relay mass exp(-intensity * pi * window_radius^2)."""
    exponent = intensity * math.pi * window_radius * window_radius
    return best_cqi_law_finite(intensity, half_distance, window_radius).on_support(
        gamma, lambda g: -np.expm1(
            -exponent * _annulus_metric_split(g, 0.0, window_radius, half_distance)[0]))


def annulus_metric_ccdf(t, inner_radius: float, outer_radius: float,
                        half_distance: float):
    """P(metric > t) for a point uniform on the annulus between the two radii; see
    ``annulus_point_law`` for the radii it takes."""
    law = annulus_point_law(inner_radius, outer_radius, half_distance)
    return law.on_support(t, lambda tv: _annulus_metric_split(
        tv, inner_radius, outer_radius, half_distance)[1],
        below=1.0, at_inf=1.0 - law.total_mass)


# ---------------------------------------------------------------------------
# benchmark policies: mid-point and closest-to-destination

def nearest_neighbor_pdf(psi, intensity: float):
    """Distance from the origin to the nearest point of the Poisson field."""
    def pdf(p):
        p[np.isinf(p)] = 0.0  # the density is 0 at 0 and at +-inf, where p e^(-p^2) is inf * 0
        a = intensity * math.pi
        return np.where(p < 0, 0.0, 2.0 * a * p * np.exp(-a * p * p))
    return vectorized(psi, pdf)


def nearest_neighbor_cdf(psi, intensity: float):
    return vectorized(psi, lambda p: np.where(p < 0, 0.0, -np.expm1(-intensity * math.pi * p * p)))


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
    lam, d = intensity, half_distance

    def fraction(psi, g):
        return (2.0 / math.pi) * np.arcsin(_crossing_cosine(g, psi, d))

    return midpoint_cqi_law(lam, d).on_support(gamma, lambda g: _nn_angle_cdf(
        g, lam, nearest_neighbor_cdf(g - d, lam), g - d, np.sqrt((g - d) * (g + d)),
        fraction))


def midpoint_cqi_pdf(gamma, intensity: float, half_distance: float):
    lam, d = intensity, half_distance
    return midpoint_cqi_law(lam, d).on_support(gamma, lambda g: 4.0 * lam * g * (
        _sqrt_shift_integral(lam, (g - d) ** 2, 2.0 * d * (g - d), 4.0 * d * g)), at_inf=0.0)


def closest_to_destination_cqi_cdf(gamma, intensity: float, half_distance: float):
    """cdf of the metric at the relay nearest to the destination."""
    lam, d = intensity, half_distance

    def fraction(psi, g):  # the source lies 2d from the destination
        return (1.0 / math.pi) * np.arccos(-_crossing_cosine(g, psi, 2.0 * d))

    return closest_to_destination_cqi_law(lam, d).on_support(gamma, lambda g: _nn_angle_cdf(
        g, lam, nearest_neighbor_cdf(g - 2.0 * d, lam), np.abs(g - 2.0 * d), g, fraction))


def closest_to_destination_cqi_pdf(gamma, intensity: float, half_distance: float):
    lam, d = intensity, half_distance

    def fn(g):
        atom = _lens_half_angle(g, d) * np.exp(-lam * math.pi * g * g)
        return 2.0 * lam * g * (atom + _sqrt_shift_integral(
            lam, (g - 2.0 * d) ** 2, 4.0 * d * (g - d), 8.0 * d * g))

    return closest_to_destination_cqi_law(lam, d).on_support(gamma, fn, at_inf=0.0)


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
        out = np.where(np.isnan(sv), math.nan, 0.0)
        rest = sv > 0
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
        out = np.where(np.isnan(sv), math.nan, 0.0)
        if snr == math.inf:  # every link SNR is infinite: no density at a finite level
            return out
        top = snr * path_loss.gain(law.support_min)
        inside = (sv > 0) & (sv < top)
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

def _reach(g, d: float, theta):
    # radius of the centered ball swept at angle theta for metric level g,
    # sqrt(g^2 - (d sin theta)^2) - d cos theta rationalised: no cancellation
    # near g = d, and no g^2 to overflow
    ds = d * np.sin(theta)
    return (g - d) * ((g + d) / (np.sqrt(g - ds) * np.sqrt(g + ds) + d * np.cos(theta)))


def _angle_integral(fn, g, d: float, kinks=()):
    """Integral of fn(reach, theta) over theta in [0, pi/2] at metric values g > d: one
    panel between each pair of angles where the reach crosses a kink radius, each
    mapped by theta = b - (b - a) y^3 onto the fixed rule."""
    # the reach grows with theta, and meets the radius k where its cosine crosses
    cuts = [np.arccos(np.clip(_crossing_cosine(g, k, d), 0.0, 1.0)) for k in sorted(kinks)]
    edges = [np.zeros_like(g), *cuts, np.full_like(g, 0.5 * math.pi)]

    def integrand(x, g, a, b):
        y = 1.0 - x
        theta = b - (b - a) * (y * y * y)
        return fn(_reach(g, d, theta), theta) * (3.0 * (b - a) * y * y)

    with np.errstate(over="ignore"):  # a measure may overflow to inf at a huge reach
        return sum(_gauss_legendre(integrand, np.ones_like(g), g, a, b)
                   for a, b in zip(edges[:-1], edges[1:]))


def isotropic_best_cqi_cdf(gamma, mean_measure: Callable, half_distance: float,
                           kinks: tuple = ()):
    """Best-CQI cdf for a rotation-invariant Poisson field.

    ``mean_measure(r)`` is the expected point count in the centered ball of radius r
    (non-decreasing, 0 at 0), evaluated on arrays of radii, +inf included; ``kinks``
    are the radii where it is not smooth (a rim, a step).
    """
    named = {f"kinks[{i}]": k for i, k in enumerate(kinks)}
    _check_positive(half_distance=half_distance, **named)
    _check_finite(**named)
    d = half_distance
    law = CqiLaw("isotropic-best-cqi", None, None, support_min=d,
                 total_mass=float(-np.expm1(-mean_measure(np.full(1, math.inf))[0])))
    return law.on_support(gamma, lambda g: -np.expm1(-(2.0 / math.pi) * _angle_integral(
        lambda r, _: mean_measure(r), g, d, kinks)))


def isotropic_best_cqi_pdf(gamma, radial_intensity: Callable, half_distance: float,
                           mean_measure: Callable | None = None, kinks: tuple = ()):
    """Best-CQI density for an isotropic field; ``radial_intensity`` takes arrays of
    radii, and ``mean_measure`` and ``kinks`` are as for the cdf. Without a mean
    measure it is recovered on the fixed rule, one panel between kinks."""
    named = {f"kinks[{i}]": k for i, k in enumerate(kinks)}
    _check_positive(half_distance=half_distance, **named)
    _check_finite(**named)
    d = half_distance

    if mean_measure is None:
        def mean_measure(r):  # noqa: F811 - deliberate default
            flat = r.ravel()
            rims = [np.zeros_like(flat), *(np.minimum(flat, k) for k in sorted(kinks)), flat]
            return 2.0 * math.pi * sum(_gauss_legendre(
                lambda t, lo: (lo + t) * radial_intensity(lo + t), hi - lo, lo)
                for lo, hi in zip(rims[:-1], rims[1:])).reshape(r.shape)

    def fn(g):  # r + d cos(theta) = sqrt(g^2 - (d sin(theta))^2)
        front = _angle_integral(
            lambda r, theta: r / (r + d * np.cos(theta)) * radial_intensity(r), g, d, kinks)
        inside = _angle_integral(lambda r, _: mean_measure(r), g, d, kinks)
        return 4.0 * g * front * np.exp(-(2.0 / math.pi) * inside)

    return CqiLaw("isotropic-best-cqi", None, None, support_min=d).on_support(
        gamma, fn, at_inf=0.0)


def exclusion_cqi_cdf(gamma, intensity: float, exclusion_radius: float,
                      half_distance: float):
    """Best-CQI cdf with a central exclusion disc of the given radius."""
    lam, r, d = intensity, exclusion_radius, half_distance
    return exclusion_cqi_law(lam, r, d).on_support(
        gamma, lambda g: -np.expm1(-lam * _lens_outside_disc(g, r, d)))


def ring_cqi_cdf(gamma, intensity: float, ring_radius: float, half_distance: float):
    """Best-CQI cdf when relays live on a circle line; defective law."""
    lam, r, d = intensity, ring_radius, half_distance
    law = ring_cqi_law(lam, r, d)
    (rim,) = law.kinks  # past it the whole ring is within reach
    return law.on_support(gamma, lambda g: np.where(
        g > rim, law.total_mass, -np.expm1(-4.0 * lam * r * np.arcsin(_crossing_cosine(g, r, d)))))


def gaussian_cqi_cdf(gamma, mean_count: float, spread: float, half_distance: float):
    """Best-CQI cdf for the Gaussian cluster, whose mean measure is
    n (1 - exp(-r^2/(2 sigma^2))); defective law with mass 1 - exp(-mean_count)."""
    n, sig, d = mean_count, spread, half_distance
    return gaussian_cqi_law(n, sig, d).on_support(gamma, lambda g: isotropic_best_cqi_cdf(
        g, lambda r: -n * np.expm1(-r * r / (2.0 * sig * sig)), d))


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
    lam, d, s1, s2 = intensity, half_distance, scale_source, scale_destination
    return unequal_snr_cqi_law(lam, d, s1, s2).on_support(
        gamma, lambda g: -np.expm1(-lam * _lens_area(2.0 * d, g / s1, g / s2)))


# ---------------------------------------------------------------------------
# the laws: one constructor per family

@dataclass(frozen=True)
class CqiLaw:
    """A named CQI distribution: cdf, optional pdf, support bound, total mass, with a
    pdf the panel edges ``expect`` integrates over, and the rims and kinks of the cdf."""

    name: str
    cdf: Callable
    pdf: Callable | None
    support_min: float
    total_mass: float = 1.0
    edges: tuple = ()
    kinks: tuple = ()

    def on_support(self, gamma, fn, below: float = 0.0, at_inf: float | None = None):
        """fn on the finite metric values above the floor, NaN at NaN, ``below`` at and
        under the floor, and ``at_inf`` (the total mass unless given) at +inf."""
        top = self.total_mass if at_inf is None else at_inf

        def masked(g):
            out = np.where(g == math.inf, top, np.where(np.isnan(g), math.nan, below))
            on = (g > self.support_min) & (g < math.inf)
            out[on] = fn(g[on])
            return out

        return vectorized(gamma, masked)

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


# The evaluators of each law below look its public functions up by name when they
# are called, so perfbench counts every evaluation under the public name.

@functools.lru_cache(maxsize=64)  # memoised: every policy cdf or pdf call builds its law
def _panel_edges(intensity: float, d: float) -> tuple:
    r = _REACH / math.sqrt(intensity)
    a, k = max(d, 2.0 * d - r), 8.0 ** np.arange(3)
    return tuple(np.unique(np.concatenate([[d, a, 2.0 * d, 2.0 * d + r], d + (a - d) / (8.0 * k),
                                           2.0 * d + np.minimum(r, d * k)])))


def _policy_law(name: str, intensity: float, half_distance: float, cdf, pdf,
                kinks: tuple = ()) -> CqiLaw:
    """Law of a policy's relay: floor d and no missing mass; cdf and pdf take
    (gamma, intensity, half_distance)."""
    _check_positive(intensity=intensity, half_distance=half_distance)
    return CqiLaw(name, lambda g: cdf(g, intensity, half_distance),
                  lambda g: pdf(g, intensity, half_distance), support_min=half_distance,
                  edges=_panel_edges(intensity, half_distance), kinks=kinks)


def best_cqi_law(intensity: float, half_distance: float) -> CqiLaw:
    return _policy_law("best-cqi", intensity, half_distance,
                       lambda *a: best_cqi_cdf(*a), lambda *a: best_cqi_pdf(*a))


def midpoint_cqi_law(intensity: float, half_distance: float) -> CqiLaw:
    return _policy_law("midpoint-cqi", intensity, half_distance,
                       lambda *a: midpoint_cqi_cdf(*a), lambda *a: midpoint_cqi_pdf(*a))


def closest_to_destination_cqi_law(intensity: float, half_distance: float) -> CqiLaw:
    # at 2d the nearest relay's distance from the destination, |gamma - 2d|, is 0
    return _policy_law("closest-to-destination-cqi", intensity, half_distance,
                       lambda *a: closest_to_destination_cqi_cdf(*a),
                       lambda *a: closest_to_destination_cqi_pdf(*a), (2.0 * half_distance,))


def disc_point_law(window_radius: float, half_distance: float) -> CqiLaw:
    """Law of the metric at one point uniform on the disc of the given radius."""
    tau, d = window_radius, half_distance
    _check_positive(window_radius=tau, half_distance=d)
    _check_finite(window_radius=tau)
    return CqiLaw("disc-point", lambda g: disc_point_metric_cdf(g, tau, d), None,
                  support_min=d, kinks=(math.hypot(tau, d), tau + d))


def best_cqi_law_finite(intensity: float, half_distance: float,
                        window_radius: float) -> CqiLaw:
    """Best-CQI law when relays are confined to a disc: the disc point law's floor and
    kinks, and the mass of a non-empty disc (np.expm1, as in the cdf, which reaches
    it at the rim)."""
    _check_positive(intensity=intensity)
    disc = disc_point_law(window_radius, half_distance)
    return CqiLaw(f"best-cqi-window({window_radius:g})",
                  lambda g: best_cqi_cdf_finite(g, intensity, half_distance, window_radius), None,
                  support_min=disc.support_min, kinks=disc.kinks, total_mass=float(
                      -np.expm1(-intensity * math.pi * window_radius * window_radius)))


def annulus_point_law(inner_radius: float, outer_radius: float,
                      half_distance: float) -> CqiLaw:
    """Law of the metric at one point uniform on the annulus between the two radii.

    Requires outer_radius >= sqrt(inner^2 + 2 d inner) so the closed form applies.
    """
    d, psi, tau = half_distance, inner_radius, outer_radius
    _check_positive(outer_radius=tau, half_distance=d)
    _check_finite(outer_radius=tau)
    if not psi >= 0:
        raise ParameterError(f"inner_radius must be non-negative, got {psi}")
    if tau < math.sqrt(psi * psi + 2.0 * d * psi):
        raise ParameterError(
            f"need outer_radius >= sqrt(inner^2 + 2 d inner) = "
            f"{math.sqrt(psi * psi + 2 * d * psi):g}, got {tau}")

    def cdf(g):
        return law.on_support(g, lambda x: _annulus_metric_split(x, psi, tau, d)[0])

    law = CqiLaw("annulus-point", cdf, None, support_min=math.hypot(psi, d),
                 kinks=(psi + d, math.hypot(tau, d), tau + d))
    return law


def exclusion_cqi_law(intensity: float, exclusion_radius: float,
                      half_distance: float) -> CqiLaw:
    """Best-CQI law with a central exclusion disc; the lens meets the hole up to its rim."""
    lam, r, d = intensity, exclusion_radius, half_distance
    _check_positive(intensity=lam, half_distance=d)
    if not r >= 0:
        raise ParameterError(f"exclusion_radius must be non-negative, got {r}")
    _check_finite(exclusion_radius=r)
    return CqiLaw("exclusion-cqi", lambda g: exclusion_cqi_cdf(g, lam, r, d), None,
                  support_min=math.hypot(r, d), kinks=(r + d,))


def ring_cqi_law(intensity: float, ring_radius: float, half_distance: float) -> CqiLaw:
    """Best-CQI law for relays on a circle line, defective by the empty-ring mass."""
    lam, r, d = intensity, ring_radius, half_distance
    _check_positive(intensity=lam, ring_radius=r, half_distance=d)
    return CqiLaw("ring-cqi", lambda g: ring_cqi_cdf(g, lam, r, d), None,
                  support_min=math.hypot(r, d), total_mass=-math.expm1(-2.0 * lam * math.pi * r),
                  kinks=(r + d,))


def gaussian_cqi_law(mean_count: float, spread: float, half_distance: float) -> CqiLaw:
    """Best-CQI law for the Gaussian cluster, defective by the empty-cluster mass."""
    n, sig, d = mean_count, spread, half_distance
    _check_positive(mean_count=n, spread=sig, half_distance=d)
    return CqiLaw("gaussian-cqi", lambda g: gaussian_cqi_cdf(g, n, sig, d), None,
                  support_min=d, total_mass=-math.expm1(-n))


def unequal_snr_cqi_law(intensity: float, half_distance: float,
                        scale_source: float, scale_destination: float) -> CqiLaw:
    """Best-CQI law with per-hop scales; past its kink one disc holds the other."""
    lam, d, s1, s2 = intensity, half_distance, scale_source, scale_destination
    _check_positive(intensity=lam)
    return CqiLaw("best-cqi-unequal-snr", lambda g: unequal_snr_cqi_cdf(g, lam, d, s1, s2), None,
                  support_min=unequal_snr_support_min(d, s1, s2),
                  kinks=(2.0 * d * s1 * s2 / abs(s1 - s2),) if s1 != s2 else ())


# every CQI law by family name, the three policies' laws first under their policy names
LAWS = {
    "optimum": best_cqi_law, "mid-point": midpoint_cqi_law,
    "closest-to-destination": closest_to_destination_cqi_law,
    "window": best_cqi_law_finite, "disc-point": disc_point_law, "annulus": annulus_point_law,
    "exclusion": exclusion_cqi_law, "ring": ring_cqi_law, "gaussian-cluster": gaussian_cqi_law,
    "unequal-snr": unequal_snr_cqi_law,
}

# the policies with an analytic CQI law, by name, in the order the experiments report them
POLICY_LAWS = {policy: LAWS[policy]
               for policy in ("optimum", "mid-point", "closest-to-destination")}


def policy_law(policy: str, intensity: float, half_distance: float) -> CqiLaw:
    """CQI law of the relay a location-based policy selects, by policy name."""
    if policy not in POLICY_LAWS:
        raise ParameterError(f"no analytic law for policy {policy!r}")
    return POLICY_LAWS[policy](intensity, half_distance)
