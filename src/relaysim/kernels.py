"""Hot per-field reductions over batches of relay fields.

One numpy segmented reduction, ``_reduce``, behind two front-ends that
compute the squared distances of the points it reduces:

``field_stats(xs, ys, offsets, half_distance, ...)``
    general form for explicit coordinates; every point is reduced.

``disc_batch_stats(norm_sq, u_angle, offsets, half_distance, ...)``
    polar relays, each a squared norm r^2 in [0, inf] and an angle uniform u
    in [0, 1], with dist^2 = r^2 + d^2 +- 2 d r cos(2 pi u). This arithmetic
    fixes the bytes of ``run_trials`` output; xy would round differently.

``disc_feedback_counts(norm_sq, u_angle, offsets, half_distance, threshold)``
    the feedback count of ``disc_batch_stats`` alone, from the one counter
    both polar paths share.

The polar front-end reduces only the relays that can attain a minimum. Every
point gets ``base = r^2 + d^2`` and ``c = 2 d r``; the cosine, the distances
and every argmin are evaluated on a candidate subset. IEEE rounding is
monotone and |cos| <= 1, so the computed squared distances ds, dd to the
source and the destination are at least ``base - c``, and their maximum sq
lies between ``base`` and ``base + c``. The nearest relay's ``base + c`` is
thus at least every minimum a field reports, and a relay whose ``base - c``
exceeds it is strictly above each one: dropping it changes no minimum, and
no tie, so the lowest index still wins and every bit equals that of
evaluating all points. A NaN bound (an infinite r^2) keeps the point, and
each field's first relay, the argmin of a NaN minimum, is always kept.

Feedback (sq <= T^2) is counted in r^2 itself. Each step from r^2 to
``base + c`` and to ``base`` -- sqrt, + d d, (2 d) times -- rounds
monotonically, so in the kernel's own arithmetic "c is finite and
base + c <= T^2" holds on a prefix of [0, inf] and "base > T^2" on a suffix.
Two cut points per (d, T^2), found once by bisection over the bit patterns
of the doubles in [0, inf] and cached, split a field exactly: a relay with
r^2 <= na has sq <= base + c <= T^2 and always reports; one with r^2 > nb
has sq >= base > T^2 (or NaN) and never does. Only the band na < r^2 <= nb
gets a cosine, evaluated as in the full reduction.

Input layout: all fields concatenated into flat 1-D arrays, trial t owning
the slice ``offsets[t]:offsets[t+1]``. Argmin ties break toward the lowest
in-field index; a NaN minimum takes the field's first index. Empty trials
yield inf metrics, index -1 and zero feedback. No input array is written.
"""
from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import ParameterError

__all__ = ["FieldStats", "field_stats", "disc_batch_stats", "disc_feedback_counts",
           "kernel_backend"]

_MAX = float(np.finfo(np.float64).max)
_POLAR = ((0.0, math.inf), (0.0, 1.0))  # r^2 and the angle uniform
_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]  # doubles in [0, inf] as int64

# the float statistics in the order _reduce computes them
_VALUES = ("gamma_opt", "psi_mid", "gamma_c2d", "gamma_csrc", "gamma_diff", "gamma_mid")


class FieldStats(dict):
    """Per-trial reductions, keyed by name; a plain dict with attribute access."""

    __getattr__ = dict.__getitem__


def kernel_backend() -> str:
    """Name of the kernel implementation, for run reports."""
    return "numpy"


def _checked(a, b, offsets, threshold, bounds=((-_MAX, _MAX),) * 2):
    """Validated float64 inputs, each within its (low, high) of ``bounds``
    (finite by default), int64 offsets and the squared threshold."""
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
    for v, (low, high) in zip((a, b), bounds):
        # a NaN minimum or maximum fails both comparisons
        if v.size and not (low <= v.min() and v.max() <= high):
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


def _reduce(ds_sq, dd_sq, cand, norm_sq, valid, starts, scale_source, scale_destination):
    """Segmented minima and argmins over the candidate points ``cand``.

    ``cand`` lists in increasing order, for each non-empty trial, every point
    that can attain one of its minima; ``ds_sq`` and ``dd_sq`` are their
    squared distances to the source and the destination. ``norm_sq`` holds
    every point's squared norm and is overwritten. ``n_feedback`` is left 0.
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
    return out


def _segments(offsets):
    """Mask of the non-empty trials, their first points and their sizes."""
    counts = np.diff(offsets)
    valid = counts > 0
    return valid, offsets[:-1][valid], counts[valid]


def _per_trial(flags, offsets):
    """Number of true ``flags`` in each trial."""
    out = np.zeros(offsets.size - 1, dtype=np.int64)
    valid, starts, _ = _segments(offsets)
    out[valid] = np.add.reduceat(flags, starts, dtype=np.int64)
    return out


def field_stats(xs, ys, offsets, half_distance, threshold=np.inf,
                scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of relays at finite explicit coordinates ``(xs, ys)``."""
    xs, ys, offsets, thr_sq = _checked(xs, ys, offsets, threshold)
    if xs.size == 0:
        return _empty(offsets.size - 1)
    d = float(half_distance)
    y2 = ys * ys
    ds_sq, dd_sq = (xs + d) ** 2 + y2, (xs - d) ** 2 + y2
    valid, starts, _ = _segments(offsets)
    out = _reduce(ds_sq, dd_sq, np.arange(xs.size), xs * xs + y2, valid, starts,
                  scale_source, scale_destination)
    out["n_feedback"] = _per_trial(np.maximum(ds_sq, dd_sq) <= thr_sq, offsets)
    return out


def _legs(norm_sq, d, sqrt=np.sqrt):
    """``c = 2 d r`` and ``base = r^2 + d^2`` from r^2, in the order every disc
    path rounds them; ``sqrt`` is ``math.sqrt`` for a Python float."""
    return (2.0 * d) * sqrt(norm_sq), norm_sq + d * d


def _distances(c, base, u_angle):
    """Squared distances to the source and the destination, base +- c cos."""
    cross = c * np.cos((2.0 * math.pi) * u_angle)
    return base + cross, base - cross


def _last(holds):
    """Largest double x in [0, inf] for which ``holds(x)``, or -1.0 when none
    does; ``holds`` must be true on a prefix of [0, inf]."""
    if not holds(0.0):
        return -1.0
    lo, hi = 0, _INF_BITS + 1  # holds at lo; hi, the first NaN, is never tried
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(_from_bits(mid)):
            lo = mid
        else:
            hi = mid
    return _from_bits(lo)


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@functools.lru_cache(maxsize=512)
def _feedback_cuts(d, thr_sq):
    """(na, nb): the last r^2 whose relay always reports, and the last whose
    relay may report (see the module docstring)."""
    def always(norm_sq):
        c, base = _legs(norm_sq, d, math.sqrt)
        return c < math.inf and base + c <= thr_sq

    def maybe(norm_sq):
        return not _legs(norm_sq, d, math.sqrt)[1] > thr_sq

    return _last(always), _last(maybe)


def _feedback(norm_sq, u_angle, offsets, d, thr_sq):
    """Relays with sq <= thr_sq in each trial; the cosine only on the band."""
    na, nb = _feedback_cuts(d, thr_sq)
    report = norm_sq <= na
    if report.all():
        return np.diff(offsets)
    band = np.flatnonzero((norm_sq <= nb) & ~report)
    if band.size:
        ds_sq, dd_sq = _distances(*_legs(norm_sq[band], d), u_angle[band])
        report[band] = np.maximum(ds_sq, dd_sq) <= thr_sq
    return _per_trial(report, offsets)


def disc_feedback_counts(norm_sq, u_angle, offsets, half_distance, threshold) -> np.ndarray:
    """``disc_batch_stats(...).n_feedback`` of the same inputs, bit for bit,
    without the other statistics."""
    norm_sq, u_angle, offsets, thr_sq = _checked(norm_sq, u_angle, offsets, threshold, _POLAR)
    return _feedback(norm_sq, u_angle, offsets, float(half_distance), thr_sq)


def disc_batch_stats(norm_sq, u_angle, offsets, half_distance, threshold=np.inf,
                     scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of a polar batch: every relay's squared norm in
    [0, inf] and its angle uniform in [0, 1]."""
    norm_sq, u_angle, offsets, thr_sq = _checked(norm_sq, u_angle, offsets, threshold, _POLAR)
    if norm_sq.size == 0:
        return _empty(offsets.size - 1)
    d = float(half_distance)
    c, base = _legs(norm_sq, d)
    valid, starts, counts = _segments(offsets)
    c_near, base_near = _legs(np.minimum.reduceat(norm_sq, starts), d)
    # a relay above the nearest relay's base + c can attain no minimum
    keep = ~(base - c > np.repeat(base_near + c_near, counts))
    keep[starts] = True  # where a minimum is NaN, the field's first relay is its argmin
    cand = np.flatnonzero(keep)
    ds_sq, dd_sq = _distances(c[cand], base[cand], u_angle[cand])
    out = _reduce(ds_sq, dd_sq, cand, norm_sq.copy(), valid, starts, scale_source,
                  scale_destination)
    out["n_feedback"] = _feedback(norm_sq, u_angle, offsets, d, thr_sq)
    return out
