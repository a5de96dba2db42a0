"""Hot per-field reductions over batches of relay fields.

One numpy segmented reduction, ``_reduce``, behind two front-ends that
compute the squared distances of the points it reduces:

``field_stats(xs, ys, offsets, half_distance, ...)``
    general form for explicit coordinates; every point is reduced.

``disc_batch_stats(u_radius, u_angle, offsets, window_radius, half_distance, ...)``
    homogeneous-disc batches straight from the sampler's radial and angular
    uniforms, with dist^2 = r^2 + d^2 +- 2 d r cos(angle). This arithmetic
    fixes the bytes of ``run_trials`` output; going through xy would round
    differently.

The disc front-end reduces only the relays that can matter. Every point gets
its squared norm, ``base = r^2 + d^2`` and ``c = 2 d r``; the cosine, the
distances and every argmin are evaluated on a candidate subset. IEEE
rounding is monotone and |cos| <= 1, so the computed squared distances ds,
dd to the source and the destination are at least ``base - c``, and their
maximum sq lies between ``base`` and ``base + c``. The nearest relay's
``base + c`` is thus at least every minimum a field reports, and a relay
whose ``base - c`` exceeds it is strictly above each one: dropping it
changes no minimum, and no tie, so the lowest index still wins and every
bit equals that of evaluating all points. Feedback needs no evaluation
outside the band T^2 in [base, base + c): below it a relay always reports,
above it never. A NaN bound (an overflowing window) keeps the point.

Input layout: all fields concatenated into flat 1-D arrays, trial t owning
the slice ``offsets[t]:offsets[t+1]``. Argmin ties break toward the lowest
in-field index; a NaN minimum takes the field's first index. Empty trials
yield inf metrics, index -1 and zero feedback.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["FieldStats", "field_stats", "disc_batch_stats", "kernel_backend"]

_MAX = float(np.finfo(np.float64).max)  # coordinates must be finite

# the float statistics in the order _reduce computes them
_VALUES = ("gamma_opt", "psi_mid", "gamma_c2d", "gamma_csrc", "gamma_diff", "gamma_mid")


class FieldStats(dict):
    """Per-trial reductions, keyed by name; a plain dict with attribute access."""

    __getattr__ = dict.__getitem__


def kernel_backend() -> str:
    """Name of the kernel implementation, for run reports."""
    return "numpy"


def _checked(a, b, offsets, threshold, low, high):
    """Validated float64 inputs in [low, high], int64 offsets, squared threshold."""
    if not threshold >= 0:
        raise ParameterError(f"threshold must be non-negative, got {threshold}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError(f"coordinates must be 1-D arrays of equal shape, "
                             f"got {a.shape} and {b.shape}")
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != a.size:
        raise ParameterError(f"offsets must run from 0 to {a.size}")
    if (np.diff(offsets) < 0).any():
        raise ParameterError("offsets must be non-decreasing")
    # a NaN minimum or maximum fails both comparisons
    if a.size and not all(low <= v.min() and v.max() <= high for v in (a, b)):
        raise ParameterError(f"inputs must lie in [{low:g}, {high:g}], NaN excluded")
    thr = float(threshold)
    return a, b, offsets, thr * thr


def _empty(n_trials):
    """Statistics of n_trials empty fields."""
    out = FieldStats(zip(_VALUES, np.full((len(_VALUES), n_trials), np.inf)))
    out.update(psi_second=np.full(n_trials, np.inf),
               idx_opt=np.full(n_trials, -1, dtype=np.int64),
               idx_mid=np.full(n_trials, -1, dtype=np.int64),
               n_feedback=np.zeros(n_trials, dtype=np.int64))
    return out


def _reduce(ds_sq, dd_sq, cand, norm_sq, valid, starts, n_feedback, thr_sq,
            scale_source, scale_destination):
    """Segmented minima and argmins over the candidate points ``cand``.

    ``cand`` lists in increasing order, for each non-empty trial, every point
    that can attain one of its minima; ``ds_sq`` and ``dd_sq`` are their
    squared distances to the source and the destination. ``norm_sq`` holds
    every point's squared norm and is overwritten. ``n_feedback`` counts the
    reporters of each non-empty trial outside ``cand``.
    """
    out = _empty(valid.size)
    k = cand.size
    cstarts = np.searchsorted(cand, starts)
    rows = np.empty((5, k))
    sq = np.maximum(ds_sq, dd_sq, out=rows[0])
    np.take(norm_sq, cand, out=rows[1])
    rows[2], rows[3] = dd_sq, ds_sq
    np.maximum(scale_source * scale_source * ds_sq,
               scale_destination * scale_destination * dd_sq, out=rows[4])
    low = np.minimum.reduceat(rows, cstarts, axis=1)
    # the repeated minima are freed before np.where allocates its result
    above = rows[:4] > np.repeat(low[:4], np.diff(cstarts, append=k), axis=1)
    first = np.minimum.reduceat(np.where(above, k, np.arange(k)), cstarts, axis=1)
    values = np.sqrt(np.vstack((low[:2], sq[first[2:]], low[4:], sq[first[1:2]])))
    for name, v in zip(_VALUES, values):
        out[name][valid] = v
    idx = cand[first[:2]]
    out["idx_opt"][valid], out["idx_mid"][valid] = idx
    norm_sq[idx[1]] = np.inf
    out["psi_second"][valid] = np.sqrt(np.minimum.reduceat(norm_sq, starts))
    out["n_feedback"][valid] = n_feedback + np.add.reduceat(sq <= thr_sq, cstarts,
                                                            dtype=np.int64)
    return out


def _segments(offsets):
    """Mask of the non-empty trials, their first points and their sizes."""
    counts = np.diff(offsets)
    valid = counts > 0
    return valid, offsets[:-1][valid], counts[valid]


def field_stats(xs, ys, offsets, half_distance, threshold=np.inf,
                scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of relays at finite explicit coordinates ``(xs, ys)``."""
    xs, ys, offsets, thr_sq = _checked(xs, ys, offsets, threshold, -_MAX, _MAX)
    if xs.size == 0:
        return _empty(offsets.size - 1)
    d = float(half_distance)
    y2 = ys * ys
    valid, starts, _ = _segments(offsets)
    return _reduce((xs + d) ** 2 + y2, (xs - d) ** 2 + y2, np.arange(xs.size),
                   xs * xs + y2, valid, starts, 0, thr_sq, scale_source, scale_destination)


def disc_batch_stats(u_radius, u_angle, offsets, window_radius, half_distance,
                     threshold=np.inf, scale_source=1.0,
                     scale_destination=1.0) -> FieldStats:
    """Reduce each field of a disc batch given as inverse-cdf polar uniforms
    in [0, 1]; the pruning bounds assume them finite."""
    u1, u2, offsets, thr_sq = _checked(u_radius, u_angle, offsets, threshold, 0.0, 1.0)
    if u1.size == 0:
        return _empty(offsets.size - 1)
    tau = float(window_radius)
    d = float(half_distance)
    norm_sq = (tau * tau) * u1
    c = (2.0 * d) * np.sqrt(norm_sq)
    base = norm_sq + d * d
    valid, starts, counts = _segments(offsets)
    near = np.minimum.reduceat(norm_sq, starts)
    bound = (near + d * d) + (2.0 * d) * np.sqrt(near)  # base + c of the nearest relay
    always = base + c <= thr_sq  # sq <= base + c, unless base - c is NaN or -inf
    # a dropped relay can attain no minimum and needs no angle for its feedback
    drop = (base - c > np.repeat(bound, counts)) & (always | (base > thr_sq))
    cand = np.flatnonzero(~drop)
    cross = c[cand] * np.cos((2.0 * math.pi) * u2[cand])
    base_c = base[cand]
    return _reduce(base_c + cross, base_c - cross, cand, norm_sq, valid, starts,
                   np.add.reduceat(always & drop, starts, dtype=np.int64), thr_sq,
                   scale_source, scale_destination)
