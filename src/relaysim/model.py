"""Core network model: geometry, path loss, fading and link budget.

Distances are unitless. The source sits at (-d, 0) and the destination at
(d, 0), where d is the half source-destination distance; the mid-point is
the origin. The channel quality indicator (CQI) of a candidate relay at x
is ``max(|x - source|, |x - destination|)`` - smaller is better.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParameterError, UnsupportedOperationError
from .numerics import vectorized

__all__ = [
    "Point2",
    "NetworkGeometry",
    "PathLoss",
    "Fading",
    "LinkBudget",
    "leg_distances",
    "selection_metric",
    "selection_metric_diff",
    "diff_metric_minimum",
    "snr_from_db",
]


class Point2(NamedTuple):
    """A point in the plane (normalized distance units)."""

    x: float
    y: float

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class NetworkGeometry:
    """Source/destination placement, parametrized by the half distance d > 0."""

    half_distance: float

    def __post_init__(self):
        if not (self.half_distance > 0 and math.isfinite(self.half_distance)):
            raise ParameterError(f"half_distance must be positive, got {self.half_distance}")

    @property
    def source(self) -> Point2:
        return Point2(-self.half_distance, 0.0)

    @property
    def destination(self) -> Point2:
        return Point2(self.half_distance, 0.0)

    @property
    def midpoint(self) -> Point2:
        return Point2(0.0, 0.0)


def leg_distances(x, y, half_distance: float):
    """Distances from the point(s) (x, y) to the source and to the destination."""
    return np.hypot(x + half_distance, y), np.hypot(x - half_distance, y)


def selection_metric(points, geometry: NetworkGeometry):
    """CQI of one point or an (n, 2) batch: max of distances to the endpoints.

    Always >= d. Exact arithmetic gives equality only at the mid-point; in
    float64 it also holds within about sqrt(eps)*d of it, where the excess
    over d falls below the resolution of the result.
    """
    p = np.asarray(points, dtype=float)
    out = np.maximum(*leg_distances(p[..., 0], p[..., 1], geometry.half_distance))
    return float(out) if out.ndim == 0 else out


def selection_metric_diff(points, geometry: NetworkGeometry, budget: "LinkBudget",
                          path_loss_exponent: float):
    """Selection metric for unequal per-hop SNRs.

    Each leg distance is weighted by the effective scale snr_i**(-1/alpha)
    before taking the max, so relays gravitate toward the noisier hop.
    """
    s1, s2 = budget.effective_scales(path_loss_exponent)
    p = np.asarray(points, dtype=float)
    ds, dd = leg_distances(p[..., 0], p[..., 1], geometry.half_distance)
    out = np.maximum(s1 * ds, s2 * dd)
    return float(out) if out.ndim == 0 else out


def diff_metric_minimum(geometry: NetworkGeometry, scale_source: float,
                        scale_destination: float) -> float:
    """Global infimum of the weighted metric over the plane.

    Attained on the source-destination segment where the two weighted leg
    distances balance.
    """
    d = geometry.half_distance
    return 2.0 * d * scale_source * scale_destination / (scale_source + scale_destination)


def snr_from_db(db: float) -> float:
    """Linear SNR from a dB value; inf past the float range (from about 3083 dB)."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


class Fading(Enum):
    NONE = "none"
    RAYLEIGH = "rayleigh"


@dataclass(frozen=True)
class LinkBudget:
    """SNR configuration for the two hops plus the target rate (bits/s/Hz).

    ``snr_relay``/``snr_destination`` default to the common ``snr``; they only
    differ in the heterogeneous-SNR variant.
    """

    snr: float
    snr_relay: float | None = None
    snr_destination: float | None = None
    target_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "snr_relay",
                           self.snr if self.snr_relay is None else self.snr_relay)
        object.__setattr__(self, "snr_destination",
                           self.snr if self.snr_destination is None else self.snr_destination)
        for name in ("snr", "snr_relay", "snr_destination"):
            v = getattr(self, name)
            if not v > 0:
                raise ParameterError(f"{name} must be positive, got {v}")
        if not self.target_rate >= 0:
            raise ParameterError(f"target_rate must be non-negative, got {self.target_rate}")

    def effective_scales(self, path_loss_exponent: float) -> tuple[float, float]:
        """Per-hop distance weights snr_i**(-1/alpha) used by the weighted metric.

        A weight past the float range (a tiny SNR at a small alpha) is a
        ParameterError naming the hop's SNR and alpha.
        """
        if not path_loss_exponent > 0:
            raise ParameterError("path_loss_exponent must be positive")
        a = -1.0 / path_loss_exponent
        try:
            return math.pow(self.snr_relay, a), math.pow(self.snr_destination, a)
        except OverflowError:
            # the smaller SNR has the larger weight
            name = "snr_relay" if self.snr_relay <= self.snr_destination else "snr_destination"
            raise ParameterError(
                f"{name} = {getattr(self, name):g} at path_loss_exponent = "
                f"{path_loss_exponent:g} gives a per-hop weight past the float range") from None


@dataclass(frozen=True)
class PathLoss:
    """Non-increasing, non-negative path gain G decaying to zero.

    ``gain_inverse`` is the generalized inverse inf{x >= 0 : G(x) <= s}; it
    satisfies G(G^-1(s)) <= s on the range of G and returns +inf when no x
    qualifies. ``gain_derivative`` is only available for the smooth variants.
    Each is given as a map of float arrays and called under ``vectorized``.
    Two path losses are equal when their names and ``params`` are: the
    constructor's exact parameters (the name rounds them), or by default the
    maps themselves.
    """

    name: str
    gain: Callable = field(repr=False, compare=False)
    gain_inverse: Callable = field(repr=False, compare=False)
    _derivative: Callable | None = field(default=None, repr=False, compare=False)
    params: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.params is None:
            object.__setattr__(self, "params", (self.gain, self.gain_inverse, self._derivative))
        for attr in ("gain", "gain_inverse", "_derivative"):
            fn = getattr(self, attr)
            if fn is not None:
                object.__setattr__(self, attr, functools.partial(vectorized, fn=fn))

    @property
    def smooth(self) -> bool:
        return self._derivative is not None

    def gain_derivative(self, x):
        if self._derivative is None:
            raise UnsupportedOperationError(
                f"path loss '{self.name}' has no continuous derivative")
        return self._derivative(x)

    @staticmethod
    def power_law(exponent: float) -> "PathLoss":
        """G(x) = x**-alpha."""
        if not exponent > 0:
            raise ParameterError("exponent must be positive")
        a = float(exponent)

        def gain(x):
            with np.errstate(divide="ignore"):
                return np.where(x > 0, x ** -a, np.inf)

        def inverse(s):
            with np.errstate(divide="ignore"):
                return np.where(s > 0, s ** (-1.0 / a), np.inf)

        return PathLoss(f"power-law(alpha={a:g})", gain, inverse,
                        lambda x: -a * x ** (-a - 1.0), params=(a,))

    @staticmethod
    def shifted_power_law(exponent: float) -> "PathLoss":
        """G(x) = 1 / (1 + x**alpha); bounded at the origin."""
        if not exponent > 0:
            raise ParameterError("exponent must be positive")
        a = float(exponent)

        def inverse(s):
            with np.errstate(divide="ignore"):
                return np.where(s >= 1.0, 0.0,
                                np.where(s > 0, ((1.0 - s) / s) ** (1.0 / a), np.inf))

        return PathLoss(f"shifted-power-law(alpha={a:g})", lambda x: 1.0 / (1.0 + x ** a),
                        inverse, lambda x: -a * x ** (a - 1.0) / (1.0 + x ** a) ** 2,
                        params=(a,))

    @staticmethod
    def tabulated(distances, gains) -> "PathLoss":
        """Piecewise-linear G from a monotone table; validated at load time.

        Outside the table G is clamped to the end values, so the generalized
        inverse returns +inf for levels below the last table entry.
        """
        xs = np.asarray(distances, dtype=float)
        gs = np.asarray(gains, dtype=float)
        if xs.ndim != 1 or xs.shape != gs.shape or xs.size < 2:
            raise ParameterError("need matching 1-d tables with at least two rows")
        if not np.all(np.diff(xs) > 0):
            raise ParameterError("distances must be strictly increasing")
        if not np.all(gs >= 0):
            raise ParameterError("gains must be non-negative")
        if np.any(np.diff(gs) > 0):
            raise ParameterError("gains must be non-increasing")
        if xs[0] < 0:
            raise ParameterError("distances must be non-negative")

        def gain(x):
            return np.interp(x, xs, gs)

        def inverse(s):
            # the first row with G <= s ends the segment the crossing lies on
            j = np.clip(np.searchsorted(-gs, -s), 1, xs.size - 1)
            x0, g0, x1 = xs[j - 1], gs[j - 1], xs[j]
            with np.errstate(divide="ignore", invalid="ignore"):  # off the table's range
                x = np.minimum(x0 + (x1 - x0) * ((g0 - s) / (g0 - gs[j])), x1)
            x = np.where(s >= gs[0], 0.0, np.where(s < gs[-1], np.inf, x))
            # rounding can leave G(x) a few ulps above s; G(x1) = gs[j] <= s exactly
            while (high := (gain(x) > s) & (x < math.inf)).any():
                x[high] = np.nextafter(x[high], math.inf)
            return x

        return PathLoss("tabulated", gain, inverse, params=(tuple(xs), tuple(gs)))
