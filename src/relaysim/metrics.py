"""Rate and outage metrics, with and without selective feedback.

Every rate goes through one array function of the link SNR s: the
half-duplex rate 1/2 log2(1 + s) without fading, and its average over
unit-mean exponential (Rayleigh) fading, e^(1/s) E1(1/s) / (2 ln 2). Outage
inverts that function once per target rate. Every average is one array call
on the fixed Gauss-Legendre rule of ``distributions``, with no adaptive steps.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import distributions as dist
from .errors import ParameterError
from .model import Fading, PathLoss
# perfbench traces quad_adaptive and solve_monotone by rebinding these module names
from .numerics import (f_exp_e1, quad_adaptive, solve_above_floor,  # noqa: F401
                       solve_monotone, vectorized)

__all__ = [
    "RateResult", "OutageRegime",
    "conditional_rate", "average_rate", "average_rate_optimum",
    "s_star", "outage", "outage_for_law",
    "mean_feedback_load", "threshold_for_load",
    "average_rate_feedback", "outage_feedback",
    "optimality_rate_gap", "midpoint_rate_upper_bound",
    "full_duplex_rate", "outage_decay_slope",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class RateResult:
    """Non-negative rates in bits/s/Hz (a float or an array) and the fading assumed."""

    value: float | np.ndarray
    fading: Fading

    def __float__(self) -> float:
        return float(self.value)


class OutageRegime(Enum):
    FEEDBACK_LIMITED = "feedback-limited"
    RATE_LIMITED = "rate-limited"
    ALWAYS_OUTAGE = "always-outage"


def _rate_from_link_snr(link_snr, fading: Fading):
    """Half-duplex rate at each link SNR; 0 where the SNR is not positive, inf
    where it is infinite."""
    def rate(s):
        on = s > 0  # off it, the stand-ins 0 and 1 keep log2 and E1 arguments valid
        if fading is Fading.NONE:
            return 0.5 * np.log2(1.0 + np.where(on, s, 0.0))
        finite = on & (s < math.inf)  # e^x E1(x) -> inf as x = 1/s -> 0
        return np.where(finite, f_exp_e1(1.0 / np.where(finite, s, 1.0)) / (2.0 * _LN2),
                        np.where(on, math.inf, 0.0))

    return vectorized(link_snr, rate)


def _link_snr_for_rate(target_rate: float, fading: Fading) -> float:
    """The link SNR at which the rate equals ``target_rate``."""
    if not target_rate >= 0:
        raise ParameterError(f"target_rate must be non-negative, got {target_rate}")
    if fading is Fading.NONE:  # 2^(2 rho) overflows from rho = 512
        return 2.0 ** (2.0 * target_rate) - 1.0 if target_rate < 512.0 else math.inf
    return s_star(target_rate)


def conditional_rate(gamma, snr: float, path_loss: PathLoss,
                     fading: Fading) -> RateResult:
    """Rate given the selected relay's metric value.

    ``gamma`` is a scalar or an array of metric values; ``value`` is then a
    float or an array of the same shape. A non-finite metric (no relay
    selected) gives rate 0.
    """
    g = np.asarray(gamma, dtype=float)
    link = np.where(np.isfinite(g), snr * path_loss.gain(g), 0.0)
    return RateResult(_rate_from_link_snr(link, fading), fading)


def average_rate(law: dist.CqiLaw, snr: float, path_loss: PathLoss,
                 fading: Fading) -> RateResult:
    """Rate averaged over relay positions under the given CQI law."""
    return _rate_integral(law, math.inf, snr, path_loss, fading)


def _rate_integral(law, hi, snr, path_loss, fading) -> RateResult:
    """Integral of the rate against the law's density up to hi."""
    return RateResult(law.expect(
        lambda g: _rate_from_link_snr(snr * path_loss.gain(g), fading), hi), fading)


def average_rate_optimum(intensity: float, half_distance: float, snr: float,
                         path_loss: PathLoss, fading: Fading) -> RateResult:
    return average_rate(dist.best_cqi_law(intensity, half_distance),
                        snr, path_loss, fading)


def s_star(target_rate: float) -> float:
    """Link-SNR level whose Rayleigh-averaged rate equals the target."""
    if not target_rate >= 0:
        raise ParameterError(f"target_rate must be non-negative, got {target_rate}")
    rate = functools.partial(_rate_from_link_snr, fading=Fading.RAYLEIGH)  # 0 at s = 0
    return solve_above_floor(rate, target_rate, 0.0, 1.0)


def outage_for_law(law: dist.CqiLaw, target_rate: float, snr: float,
                   path_loss: PathLoss, fading: Fading) -> float:
    """P(rate <= target) for a policy whose CQI follows ``law``."""
    top = snr * path_loss.gain(law.support_min)
    level = _link_snr_for_rate(target_rate, fading)
    if level >= top:
        return 1.0
    return float(dist.received_snr_cdf(level, law, snr, path_loss))


def outage(target_rate: float, intensity: float, half_distance: float,
           snr: float, path_loss: PathLoss, fading: Fading) -> float:
    """Minimal outage probability (optimum relay selection, all feedback)."""
    return outage_for_law(dist.best_cqi_law(intensity, half_distance),
                          target_rate, snr, path_loss, fading)


# ---------------------------------------------------------------------------
# selective threshold feedback

def _check_half_distance(d):
    if not d > 0:  # the threshold search steps by d
        raise ParameterError(f"half_distance must be positive, got {d}")


def mean_feedback_load(threshold: float, intensity: float, half_distance: float) -> float:
    """Mean number of relays whose metric clears the feedback threshold.

    The count itself is Poisson with this mean: intensity times the area of the
    lens of the discs of radius ``threshold`` about the source and the destination.
    """
    if not threshold >= 0:
        raise ParameterError(f"threshold must be non-negative, got {threshold}")
    _check_half_distance(half_distance)
    d, t = half_distance, threshold
    if t <= d:
        return 0.0
    if t == math.inf:  # every relay reports
        return math.inf
    return intensity * float(dist._lens_area(2.0 * d, t, t))


def threshold_for_load(load: float, intensity: float, half_distance: float) -> float:
    """Threshold whose mean feedback load equals ``load`` (monotone inverse)."""
    if not load >= 0:
        raise ParameterError(f"load must be non-negative, got {load}")
    _check_half_distance(half_distance)
    if load == math.inf:  # the load is finite at every finite threshold
        return math.inf
    return solve_above_floor(lambda t: mean_feedback_load(t, intensity, half_distance),
                             load, half_distance, half_distance)


def average_rate_feedback(threshold: float, intensity: float, half_distance: float,
                          snr: float, path_loss: PathLoss, fading: Fading) -> RateResult:
    """Average rate of threshold feedback; zero rate when nobody reports."""
    if not threshold >= half_distance:
        raise ParameterError(
            f"threshold {threshold} below the metric floor {half_distance}")
    return _rate_integral(dist.best_cqi_law(intensity, half_distance), threshold,
                          snr, path_loss, fading)


def outage_feedback(threshold: float, target_rate: float, intensity: float,
                    half_distance: float, snr: float, path_loss: PathLoss,
                    fading: Fading) -> tuple[float, OutageRegime]:
    """Outage of threshold feedback plus the operating regime it falls in.

    Feedback-limited: the threshold is so tight that any reporter clears the
    target, so outage is the no-reporter probability (fading-independent).
    Rate-limited: outage matches the all-feedback case and no longer depends
    on the threshold. Ties resolve to the branch listed first.
    """
    if not threshold >= half_distance:
        raise ParameterError(
            f"threshold {threshold} below the metric floor {half_distance}")
    law = dist.best_cqi_law(intensity, half_distance)
    level = _link_snr_for_rate(target_rate, fading)
    at_threshold = snr * path_loss.gain(threshold)
    at_floor = snr * path_loss.gain(half_distance)
    if level <= at_threshold:
        mu = mean_feedback_load(threshold, intensity, half_distance)
        return math.exp(-mu), OutageRegime.FEEDBACK_LIMITED
    if level < at_floor:
        return (float(dist.received_snr_cdf(level, law, snr, path_loss)),
                OutageRegime.RATE_LIMITED)
    return 1.0, OutageRegime.ALWAYS_OUTAGE


# ---------------------------------------------------------------------------
# analytical upper bound on the optimum rate via the mid-point policy

def optimality_rate_gap(intensity: float, half_distance: float, snr: float,
                        path_loss: PathLoss, fading: Fading) -> float:
    """Bound on the rate the mid-point policy can lose to the optimum one.

    Averages, over the nearest relay's position, the chance that a better
    relay exists times the rate spread between the hyperplane bound and the
    actual metric at the nearest relay.
    """
    d = half_distance

    def weight(psi, theta):
        s = np.sqrt(psi * psi + 2.0 * d * psi * np.cos(theta) + d * d)
        spread = (_rate_from_link_snr(snr * path_loss.gain(np.hypot(psi, d)), fading)
                  - _rate_from_link_snr(snr * path_loss.gain(s), fading))
        return -np.expm1(-intensity * dist.midpoint_displacement_exponent(psi, theta, d)) * spread

    return dist.nearest_to_midpoint_mean(intensity, d, weight)


def midpoint_rate_upper_bound(intensity: float, half_distance: float, snr: float,
                              path_loss: PathLoss, fading: Fading) -> RateResult:
    """Mid-point average rate plus the optimality gap: upper-bounds the optimum rate."""
    base = average_rate(dist.midpoint_cqi_law(intensity, half_distance),
                        snr, path_loss, fading)
    gap = optimality_rate_gap(intensity, half_distance, snr, path_loss, fading)
    return RateResult(base.value + gap, fading)


def full_duplex_rate(rate: RateResult) -> RateResult:
    """Full-duplex scaling of a half-duplex rate (severely shadowed direct link)."""
    return RateResult(2.0 * rate.value, rate.fading)


def outage_decay_slope(policy: str, target_rate: float, half_distance: float,
                       snr: float, path_loss: PathLoss, fading: Fading,
                       intensities=None) -> float:
    """Diagnostic: least-squares slope of log10(outage) vs intensity.

    The log-outage curves are only near-linear, so the fitted value depends on
    the window; the default fits intensities 1..4. Reported, never gated.
    """
    if intensities is None:
        intensities = np.linspace(1.0, 4.0, 13)
    lams = np.asarray(intensities, dtype=float)
    laws = [dist.policy_law(policy, lam, half_distance) for lam in lams]
    logs = np.array([math.log10(outage_for_law(law, target_rate, snr, path_loss, fading))
                     for law in laws])
    slope, _ = np.polyfit(lams, logs, 1)
    return float(-slope)
