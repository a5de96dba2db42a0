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

``disc_feedback_counts(u_radius, u_angle, offsets, window_radius, half_distance, threshold)``
    the feedback count of ``disc_batch_stats`` alone, from the one counter
    both disc paths share.

The disc front-end reduces only the relays that can attain a minimum. Every
point gets its squared norm, ``base = r^2 + d^2`` and ``c = 2 d r``; the
cosine, the distances and every argmin are evaluated on a candidate subset.
IEEE rounding is monotone and |cos| <= 1, so the computed squared distances
ds, dd to the source and the destination are at least ``base - c``, and
their maximum sq lies between ``base`` and ``base + c``. The nearest relay's
``base + c`` is thus at least every minimum a field reports, and a relay
whose ``base - c`` exceeds it is strictly above each one: dropping it
changes no minimum, and no tie, so the lowest index still wins and every
bit equals that of evaluating all points. A NaN bound (an overflowing
window) keeps the point.

Feedback (sq <= T^2) is counted in the radial uniform u. Each step from u
to ``base + c`` and to ``base`` -- (tau tau) u, sqrt, + d d, (2 d) times --
rounds monotonically, so in the kernel's own arithmetic "c is finite and
base + c <= T^2" holds on a prefix of [0, 1] and "base > T^2" on a suffix.
Two cut points per (tau, d, T^2), found once by bisection over the bit
patterns of the doubles in [0, 1] and cached, split a field exactly: a relay
with u <= ua has sq <= base + c <= T^2 and always reports; one with u > ub
has sq >= base > T^2 (or NaN) and never does. Only the band ua < u <= ub
gets a cosine, evaluated as in the full reduction. NaN arises only at
u = 0 of an overflowing window (inf times 0): the first predicate fails
there, as at every u > 0 where c = inf, and "base > T^2" fails there too,
so that point falls in the band and is evaluated.

Input layout: all fields concatenated into flat 1-D arrays, trial t owning
the slice ``offsets[t]:offsets[t+1]``. Argmin ties break toward the lowest
in-field index; a NaN minimum takes the field's first index. Empty trials
yield inf metrics, index -1 and zero feedback.
"""
from __future__ import annotations

import functools
import math
import struct

import numpy as np

from .errors import ParameterError

__all__ = ["FieldStats", "field_stats", "disc_batch_stats", "disc_feedback_counts",
           "kernel_backend"]

_MAX = float(np.finfo(np.float64).max)  # coordinates must be finite
_ONE_BITS = struct.unpack("<q", struct.pack("<d", 1.0))[0]  # doubles in [0, 1] as int64

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
    xs, ys, offsets, thr_sq = _checked(xs, ys, offsets, threshold, -_MAX, _MAX)
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
    """Largest double u in [0, 1] for which ``holds(u)``, or -1.0 when none
    does; ``holds`` must be true on a prefix of [0, 1]."""
    if not holds(0.0):
        return -1.0
    if holds(1.0):
        return 1.0
    lo, hi = 0, _ONE_BITS  # holds at lo, fails at hi
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
def _feedback_cuts(tau, d, thr_sq):
    """(ua, ub): the last radial uniform whose relay always reports, and the
    last whose relay may report (see the module docstring)."""
    def legs(u):
        return _legs((tau * tau) * u, d, math.sqrt)

    def always(u):
        c, base = legs(u)
        return c < math.inf and base + c <= thr_sq

    def maybe(u):
        return not legs(u)[1] > thr_sq

    return _last(always), _last(maybe)


def _feedback(u1, u2, offsets, tau, d, thr_sq):
    """Relays with sq <= thr_sq in each trial; the cosine only on the band."""
    ua, ub = _feedback_cuts(tau, d, thr_sq)
    if ua >= 1.0:
        return np.diff(offsets)
    report = u1 <= ua
    band = np.flatnonzero((u1 <= ub) & ~report)
    if band.size:
        ds_sq, dd_sq = _distances(*_legs((tau * tau) * u1[band], d), u2[band])
        report[band] = np.maximum(ds_sq, dd_sq) <= thr_sq
    return _per_trial(report, offsets)


def disc_feedback_counts(u_radius, u_angle, offsets, window_radius, half_distance,
                         threshold) -> np.ndarray:
    """``disc_batch_stats(...).n_feedback`` of the same inputs, bit for bit,
    without the other statistics."""
    u1, u2, offsets, thr_sq = _checked(u_radius, u_angle, offsets, threshold, 0.0, 1.0)
    return _feedback(u1, u2, offsets, float(window_radius), float(half_distance), thr_sq)


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
    c, base = _legs(norm_sq, d)
    valid, starts, counts = _segments(offsets)
    c_near, base_near = _legs(np.minimum.reduceat(norm_sq, starts), d)
    # a relay above the nearest relay's base + c can attain no minimum
    cand = np.flatnonzero(~(base - c > np.repeat(base_near + c_near, counts)))
    ds_sq, dd_sq = _distances(c[cand], base[cand], u2[cand])
    out = _reduce(ds_sq, dd_sq, cand, norm_sq, valid, starts, scale_source, scale_destination)
    out["n_feedback"] = _feedback(u1, u2, offsets, tau, d, thr_sq)
    return out
