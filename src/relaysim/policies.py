"""Relay selection policies over a sampled field.

All policies see relay positions only (no instantaneous fading). The recorded
``gamma`` is the selection metric at the chosen relay - also for heuristics
like mid-point selection, where it feeds the benchmark rate/outage curves.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import EmptyFieldError, ParameterError
from .model import LinkBudget, NetworkGeometry, Point2, leg_distances
from .pointprocess import RelayField

__all__ = ["PolicyKind", "PolicyOutcome", "select", "sufficient_condition_holds"]


class PolicyKind(Enum):
    OPTIMUM = "optimum"
    MID_POINT = "mid-point"
    CLOSEST_TO_DESTINATION = "closest-to-destination"
    CLOSEST_TO_SOURCE = "closest-to-source"
    THRESHOLD_FEEDBACK = "threshold-feedback"
    OPTIMUM_DIFF_SNR = "optimum-diff-snr"


@dataclass(frozen=True)
class PolicyOutcome:
    """Selected relay (if any), its metric value, and feedback bookkeeping.

    ``n_feedback`` counts the relays whose CQI reaches the source: the whole
    field for all-feedback policies, the reporters for threshold feedback.
    ``second_nearest_norm`` is the distance of the second-closest relay to the
    mid-point when the field has one (used by the sufficiency check).
    """

    selected: Point2 | None
    gamma: float | None
    n_feedback: int
    second_nearest_norm: float | None = None


class _Geometry(NamedTuple):
    """What every policy reads of one field at one half-distance."""

    points: np.ndarray
    ds: np.ndarray  # distances to the source
    dd: np.ndarray  # distances to the destination
    metric: np.ndarray  # max(ds, dd)
    norm: np.ndarray  # distances to the mid-point
    second: float | None  # the second-smallest norm, when there are two relays


def _geometry(field, d: float) -> _Geometry:
    """The geometry of a RelayField or an (n, 2) array at half-distance ``d``; a
    RelayField (read-only points) keeps it in ``derived``, so it is computed once."""
    derived = field.derived if isinstance(field, RelayField) else {}
    if d not in derived:
        points = np.asarray(field.points if hasattr(field, "points") else field, dtype=float)
        if points.ndim != 2 or (points.size and points.shape[1] != 2):
            raise ParameterError("field must be an (n, 2) array of positions")
        ds, dd = leg_distances(points[:, 0], points[:, 1], d)
        norm = np.hypot(points[:, 0], points[:, 1])
        second = float(np.partition(norm, 1)[1]) if points.shape[0] >= 2 else None
        derived[d] = _Geometry(points, ds, dd, np.maximum(ds, dd), norm, second)
    return derived[d]


def select(field, kind: PolicyKind, geometry: NetworkGeometry,
           budget: LinkBudget | None = None, threshold: float | None = None,
           path_loss_exponent: float | None = None) -> PolicyOutcome:
    """Run one policy on one field.

    Non-feedback policies require a non-empty field; threshold feedback with
    no reporter returns an absent selection instead (the source stays silent).
    Metric ties go to the lowest field index.
    """
    points, ds, dd, metric, norm, second = _geometry(field, geometry.half_distance)
    n = points.shape[0]

    if kind is PolicyKind.THRESHOLD_FEEDBACK:
        if threshold is None or not threshold >= 0:
            raise ParameterError("threshold feedback needs a threshold >= 0")
        if n == 0:
            return PolicyOutcome(None, None, 0, None)
    elif n == 0:
        raise EmptyFieldError(f"policy {kind.value} needs at least one relay")

    if kind is PolicyKind.OPTIMUM:
        i = int(metric.argmin())
    elif kind is PolicyKind.MID_POINT:
        i = int(norm.argmin())
    elif kind is PolicyKind.CLOSEST_TO_DESTINATION:
        i = int(dd.argmin())
    elif kind is PolicyKind.CLOSEST_TO_SOURCE:
        i = int(ds.argmin())
    elif kind is PolicyKind.THRESHOLD_FEEDBACK:
        reporters = metric <= threshold
        n_fb = int(reporters.sum())
        if n_fb == 0:
            return PolicyOutcome(None, None, 0, second)
        i = int(metric.argmin())  # the best relay always reports
        return PolicyOutcome(Point2(*points[i]), float(metric[i]), n_fb, second)
    elif kind is PolicyKind.OPTIMUM_DIFF_SNR:
        if budget is None or path_loss_exponent is None:
            raise ParameterError("diff-SNR selection needs a budget and path-loss exponent")
        s1, s2 = budget.effective_scales(path_loss_exponent)
        i = int(np.maximum(s1 * ds, s2 * dd).argmin())
        return PolicyOutcome(Point2(*points[i]),
                             float(max(s1 * ds[i], s2 * dd[i])), n, second)
    else:
        raise ParameterError(f"unknown policy {kind!r}")

    return PolicyOutcome(Point2(*points[i]), float(metric[i]), n, second)


def sufficient_condition_holds(field, geometry: NetworkGeometry) -> bool:
    """Check the mid-point optimality certificate on one field.

    True when the metric at the relay closest to the mid-point does not exceed
    the hyperplane bound built from the second-closest relay's norm. A single
    relay is trivially optimal.
    """
    d = geometry.half_distance
    g = _geometry(field, d)
    if g.points.shape[0] == 0:
        raise EmptyFieldError("sufficiency check needs at least one relay")
    if g.second is None:
        return True
    return bool(g.metric[g.norm.argmin()] <= np.hypot(d, g.second))
