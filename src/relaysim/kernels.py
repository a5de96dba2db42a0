"""Hot per-field reductions over batches of relay fields.

One numpy segmented reduction, ``_reduce``, behind two front-ends that
compute the squared distances of the points it reduces:

``field_stats(xs, ys, offsets, half_distance, ...)``
    general form for explicit coordinates; every point is reduced.

``disc_batch_stats(norm_sq, u_angle, offsets, half_distance, ...)``
    polar relays, each a squared norm r^2 in [0, inf] and an angle uniform u
    in [0, 1], with dist^2 = r^2 + d^2 +- 2 d r cos(2 pi u). This arithmetic
    fixes the bytes of ``run_trials`` output; xy would round differently.

``disc_feedback_counts(radial_words, angle_words, offsets, radius, half_distance, threshold)``
    the feedback count of ``disc_batch_stats`` alone, for the relays that
    ``DiscHomogeneous(., radius)`` makes of these 64-bit Philox words: r^2 is
    ``disc_norm_sq(radius, word_uniforms(w))`` and the angle uniform
    ``word_uniforms(w)`` (see ``pointprocess``).

The polar front-end reduces only the relays that can attain a minimum. With
``base = r^2 + d^2`` and ``c = 2 d r``, IEEE rounding is monotone and
|cos| <= 1, so the computed squared distances ds, dd to the source and the
destination are at least ``base - c``, and their maximum sq lies between
``base`` and ``base + c``. The nearest relay's ``B = base + c`` is thus at least
every minimum a field reports, and a relay whose ``base - c`` exceeds it is
strictly above each one: dropping it changes no minimum, and no tie, so the
lowest index still wins and every bit equals that of evaluating all points.

The prune applies this bound in r^2, before any leg or cosine: a field keeps
the relays with r^2 <= ``(sqrt(B) + d)^2 (1 + 2^-40)``. Beyond that reach
(r - d)^2 exceeds B by about 2^-40 (r + d)^2 / 9, since B >= d^2 puts r - d
above (r + d) / 3 there; the computed ``base - c`` falls short of (r - d)^2 by
a few ulps of (r + d)^2 at most, so the r^2 test keeps every relay the
``base - c`` test keeps. This needs a normal d^2; below it, and where the
reach overflows, the reach is inf and the field keeps every relay. An
infinite r^2 (its ``base - c`` is NaN) and each field's first relay, the
argmin of a NaN minimum, are always kept. Only the kept relays get legs, a
cosine and the reduction.

Feedback (sq <= T^2) is counted in r^2 itself. Each step from r^2 to
``base + c`` and to ``base`` -- sqrt, + d d, (2 d) times -- rounds
monotonically, so in the kernel's own arithmetic "c is finite and
base + c <= T^2" holds on a prefix of [0, inf] and "base > T^2" on a suffix.
Two cut points per (d, T^2), found once by bisection over the bit patterns
of the doubles in [0, inf] and cached, split a field exactly: a relay with
r^2 <= na has sq <= base + c <= T^2 and always reports; one with r^2 > nb
has sq >= base > T^2 (or NaN) and never does. Only the band na < r^2 <= nb
gets a cosine, evaluated as in the full reduction by one helper both counters
call.

The word counter moves the cuts onto the words. Both k 2^-53 and R^2 u round
monotonically, so r^2 <= na holds exactly for k = w >> 11 up to the last k in
[0, 2^53) whose r^2 is at most na (found by bisection, cached), that is for
the words w <= (k << 11) | 0x7FF; -1 when no k is. nb gives the band's upper
word the same way. Each relay is classified by one uint64 comparison with
each cut, and only the band's words become doubles.

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
from .pointprocess import disc_norm_sq, word_uniforms

__all__ = ["FieldStats", "field_stats", "disc_batch_stats", "disc_feedback_counts",
           "kernel_backend"]

_MAX = float(np.finfo(np.float64).max)
_POLAR = ((0.0, math.inf), (0.0, 1.0))  # r^2 and the angle uniform
_TINY = float(np.finfo(np.float64).tiny)
_REACH_MARGIN = 2.0 ** -40  # relative widening of the prune's r^2 reach
_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]  # doubles in [0, inf] as int64

# the float statistics in the order _reduce computes them
_VALUES = ("gamma_opt", "psi_mid", "gamma_c2d", "gamma_csrc", "gamma_diff", "gamma_mid")


class FieldStats(dict):
    """Per-trial reductions, keyed by name; a plain dict with attribute access."""

    __getattr__ = dict.__getitem__


def kernel_backend() -> str:
    """Name of the kernel implementation, for run reports."""
    return "numpy"


def _checked(a, b, offsets, half_distance, threshold, bounds=((-_MAX, _MAX),) * 2):
    """Validated inputs: a and b as float64 arrays, each within its (low, high)
    of ``bounds`` (finite by default), or with ``bounds=None`` as uint64 words
    of any value; int64 offsets; the half distance in [0, inf]; and the squared
    threshold."""
    for name, v in (("half_distance", half_distance), ("threshold", threshold)):
        if not v >= 0:  # the prune's bound assumes d >= 0; d = inf keeps every relay
            raise ParameterError(f"{name} must be non-negative, got {v}")
    if bounds is None:
        a, b = np.asarray(a), np.asarray(b)
        if not a.dtype == b.dtype == np.uint64:
            raise ParameterError(f"Philox words must be uint64, got {a.dtype} and {b.dtype}")
    else:
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
    for v, (low, high) in zip((a, b), bounds or ()):
        # a NaN minimum or maximum fails both comparisons
        if v.size and not (low <= v.min() and v.max() <= high):
            raise ParameterError(f"inputs must lie in [{low:g}, {high:g}], NaN excluded")
    thr = float(threshold)
    return a, b, offsets, float(half_distance), thr * thr


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
    xs, ys, offsets, d, thr_sq = _checked(xs, ys, offsets, half_distance, threshold)
    if xs.size == 0:
        return _empty(offsets.size - 1)
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


def _last(holds, n):
    """Largest i in [0, n) with ``holds(i)``, or -1 when none; ``holds`` must be
    true on a prefix of [0, n)."""
    lo, hi = -1, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _last_norm(holds):
    """Largest double x in [0, inf] for which ``holds(x)``, or -1.0 when none
    does; ``holds`` must be true on a prefix of [0, inf]."""
    bits = _last(lambda b: holds(_from_bits(b)), _INF_BITS + 1)  # NaN bits are never tried
    return _from_bits(bits) if bits >= 0 else -1.0


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

    return _last_norm(always), _last_norm(maybe)


@functools.lru_cache(maxsize=512)
def _word_cuts(radius, d, thr_sq):
    """(wa, wb): the last radial word whose relay always reports, and the last
    whose relay may report, or -1 for none (see the module docstring)."""
    def cut(norm_sq):
        k = _last(lambda k: disc_norm_sq(radius, word_uniforms(k << 11)) <= norm_sq, 1 << 53)
        return k << 11 | 0x7FF if k >= 0 else -1

    return tuple(cut(n) for n in _feedback_cuts(d, thr_sq))


def _tally(report, band, norm_sq, u_angle, offsets, d, thr_sq):
    """Reporting relays per trial: those in ``report`` and the ``band`` relays,
    at squared norms ``norm_sq`` and angle uniforms ``u_angle``, with sq <= thr_sq."""
    if band.size:
        ds_sq, dd_sq = _distances(*_legs(norm_sq, d), u_angle)
        report[band] = np.maximum(ds_sq, dd_sq) <= thr_sq
    elif report.all():
        return np.diff(offsets)
    return _per_trial(report, offsets)


def _feedback(norm_sq, u_angle, offsets, d, thr_sq):
    """Relays with sq <= thr_sq in each trial; the cosine only on the band."""
    na, nb = _feedback_cuts(d, thr_sq)
    report = norm_sq <= na
    band = np.flatnonzero((norm_sq <= nb) ^ report)  # na <= nb: report implies r^2 <= nb
    return _tally(report, band, norm_sq[band], u_angle[band], offsets, d, thr_sq)


def disc_feedback_counts(radial_words, angle_words, offsets, radius, half_distance,
                         threshold) -> np.ndarray:
    """``disc_batch_stats(disc_norm_sq(radius, word_uniforms(radial_words)),
    word_uniforms(angle_words), ...).n_feedback`` bit for bit, without the other
    statistics, converting only the band relays' words."""
    radial, angle, offsets, d, thr_sq = _checked(radial_words, angle_words, offsets,
                                                 half_distance, threshold, None)
    if not (radius > 0 and _TINY <= radius * radius < math.inf):
        raise ParameterError(f"radius must be positive with a normal finite square, got {radius}")
    wa, wb = _word_cuts(float(radius), d, thr_sq)
    report = radial <= wa
    band = np.flatnonzero((radial <= wb) ^ report)  # wa <= wb
    return _tally(report, band, disc_norm_sq(radius, word_uniforms(radial[band])),
                  word_uniforms(angle[band]), offsets, d, thr_sq)


def _norm_reach(bound, d):
    """Per-field r^2 beyond which base - c exceeds ``bound`` (see the module
    docstring); inf where d^2 is not a normal double or the reach overflows."""
    if not d * d >= _TINY:
        return np.full(bound.size, np.inf)
    with np.errstate(over="ignore"):
        reach = np.sqrt(bound) + d
        reach *= reach
        reach *= 1.0 + _REACH_MARGIN
    return reach


def disc_batch_stats(norm_sq, u_angle, offsets, half_distance, threshold=np.inf,
                     scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of a polar batch: every relay's squared norm in
    [0, inf] and its angle uniform in [0, 1]."""
    norm_sq, u_angle, offsets, d, thr_sq = _checked(norm_sq, u_angle, offsets, half_distance,
                                                    threshold, _POLAR)
    if norm_sq.size == 0:
        return _empty(offsets.size - 1)
    valid, starts, counts = _segments(offsets)
    c_near, base_near = _legs(np.minimum.reduceat(norm_sq, starts), d)
    # a relay beyond the nearest relay's reach can attain no minimum; a NaN reach (d = inf)
    # keeps every relay
    keep = ~(norm_sq > np.repeat(_norm_reach(base_near + c_near, d), counts))
    keep |= norm_sq == np.inf  # base - c is NaN
    keep[starts] = True  # where a minimum is NaN, the field's first relay is its argmin
    cand = np.flatnonzero(keep)
    ds_sq, dd_sq = _distances(*_legs(norm_sq[cand], d), u_angle[cand])
    out = _reduce(ds_sq, dd_sq, cand, norm_sq.copy(), valid, starts, scale_source,
                  scale_destination)
    out["n_feedback"] = _feedback(norm_sq, u_angle, offsets, d, thr_sq)
    return out
