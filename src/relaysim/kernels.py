"""Hot per-field reductions over batches of relay fields.

One numpy segmented reduction, ``_reduce``, behind two front-ends that
compute the squared distances of the points it reduces:

``field_stats(xs, ys, offsets, half_distance, ...)``
    general form for explicit coordinates; every point is reduced, in blocks
    of whole fields.

``disc_batch_stats(radial_words, angle_words, offsets, radius, half_distance, ...)``
    the relays that ``DiscHomogeneous(., radius)`` makes of 64-bit Philox
    words: r^2 is ``disc_norm_sq(radius, word_uniforms(w))`` of a radial word
    and the angle uniform u is ``word_uniforms(w)`` of an angle word (see
    ``pointprocess``), with dist^2 = r^2 + d^2 +- 2 d r cos(2 pi u). This
    arithmetic fixes the bytes of ``run_trials`` output; xy would round
    differently.

``disc_feedback_counts(radial_words, angle_words, offsets, radius, half_distance, threshold)``
    the feedback count of ``disc_batch_stats`` alone.

Both k 2^-53 (k = w >> 11) and R^2 u round monotonically, so the word -> r^2
map is monotone: a field's least radial word gives its least r^2, its second
least word the second least r^2, and a bound r^2 <= b holds exactly for the
words up to a cut, (k << 11) | 0x7FF for the last k in [0, 2^53) whose r^2 is
at most b (``_last_word``). The disc kernels compare words with such cuts
and turn only the words that pass into doubles.

The polar front-end reduces only the relays that can attain a minimum. With
``base = r^2 + d^2`` and ``c = 2 d r``, IEEE rounding is monotone and
|cos| <= 1, so the computed squared distances ds, dd to the source and the
destination are at least ``base - c``, and their maximum sq lies between
``base`` and ``base + c``. The nearest relay's ``B = base + c`` is thus at least
every minimum a field reports, and a relay whose ``base - c`` exceeds it is
strictly above each one: dropping it changes no minimum, and no tie, so the
lowest index still wins and every bit equals that of evaluating all points.

The prune applies this bound in r^2, as a word cut, before any conversion, leg
or cosine: a field keeps the relays with r^2 <= ``(sqrt(B) + d)^2 (1 + 2^-40)``,
the words up to that reach's cut. Beyond that reach (r - d)^2 exceeds B by
about 2^-40 (r + d)^2 / 9, since B >= d^2 puts r - d above (r + d) / 3 there;
the computed ``base - c`` falls short of (r - d)^2 by a few ulps of (r + d)^2
at most, so the r^2 test keeps every relay the ``base - c`` test keeps. This
needs a normal d^2; below it, where the reach overflows and at d = inf (a NaN
reach), the cut is the top word and the field keeps every relay. Each field's
first relay, the argmin of a NaN minimum, is always kept. Only the kept
relays become r^2 and angle uniforms and get legs, a cosine and the reduction.

Feedback (sq <= T^2) is counted on the words too. Each step from r^2 to
``base + c`` and to ``base`` -- sqrt, + d d, (2 d) times -- rounds
monotonically, so in the kernel's own arithmetic "c is finite and
base + c <= T^2" holds on a prefix of [0, inf] and "base > T^2" on a suffix.
Two cut points per (d, T^2), found once by bisection over the bit patterns
of the doubles in [0, inf], and their word cuts wa <= wb, cached per
(radius, d, T^2), split a field exactly: a relay with a radial word w <= wa
has sq <= base + c <= T^2 and always reports; one with w > wb has
sq >= base > T^2 (or NaN) and never does (-1 is the cut below every word).
Only the band wa < w <= wb becomes doubles and gets a cosine. Where wa is
the top word (no threshold) every relay reports, and the count is the
field's size.

``field_stats`` goes through its fields in blocks of at most ``_BLOCK`` whole
fields holding at most ``_BLOCK`` points (a larger field is a block of its
own), along ``_chunks``, the walk ``montecarlo`` takes its chunks by. Each
block is reduced alone and written into its slice of the ``n_trials``-long
outputs, allocated once, so its temporaries are bounded by the block (or the
largest field) for any number of points, and no block changes a bit of the
result: every statistic is a per-field minimum or count.

Input layout: all fields concatenated into flat 1-D arrays, trial t owning
the slice ``offsets[t]:offsets[t+1]``; the offsets are integers, not bools.
Argmin ties break toward the lowest in-field index; a NaN minimum takes the
field's first index. ``idx_opt`` and ``idx_mid`` index the batch's points.
Empty trials yield inf metrics, index -1 and zero feedback. No input array is
written, and explicit coordinates are read where they lie, strided or not.
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
_TINY = float(np.finfo(np.float64).tiny)
_REACH_MARGIN = 2.0 ** -40  # relative widening of the prune's r^2 reach
_INF_BITS = struct.unpack("<q", struct.pack("<d", math.inf))[0]  # doubles in [0, inf] as int64
_TOP_WORD = (1 << 64) - 1
_STEPS = np.arange(1, 4, dtype=np.uint64)  # the k that _last_word tries above its start
# Points, and trials, per block of field_stats, whose reduction takes about
# 150 B a point and 200 B a trial of temporaries. On one perfbench
# field-policies pass (2000 fields, 76k points; 2 vCPUs) tracemalloc peaks at
# 1.2 MB at 2^13, 2.3 MB at 2^14 and 9.9 MB in one block, and the workload's
# peak RSS reads 48.4, 49.7 and 52.6 MB at 2^13, 2^14 and 2^15, against 60.0 MB
# when the pass was one reduction of copied columns. A block costs about
# 0.2 ms: that pass takes 4.2 ms at 2^13 and 2.5 ms in one block, while 1M
# points in 25k fields take 38 ms at 2^13, 66 ms at 2^15 and 67 ms in one block.
_BLOCK = 1 << 13

# the float statistics in the order _reduce computes them
_VALUES = ("gamma_opt", "psi_mid", "gamma_c2d", "gamma_csrc", "gamma_diff", "gamma_mid")


class FieldStats(dict):
    """Per-trial reductions, keyed by name; a plain dict with attribute access."""

    __getattr__ = dict.__getitem__


def kernel_backend() -> str:
    """Name of the kernel implementation, for run reports."""
    return "numpy"


def _checked(a, b, offsets, half_distance, threshold, radius=None):
    """Validated inputs: a and b as finite float64 arrays, strided or not, or,
    given a disc ``radius`` with a normal finite square, as uint64 words of any
    value; int64 offsets; the half distance in [0, inf]; and the squared threshold."""
    for name, v in (("half_distance", half_distance), ("threshold", threshold)):
        if not v >= 0:  # the prune's bound assumes d >= 0; d = inf keeps every relay
            raise ParameterError(f"{name} must be non-negative, got {v}")
    if radius is None:
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    else:
        if not (radius > 0 and _TINY <= radius * radius < math.inf):
            raise ParameterError(f"radius must be positive with a normal finite square, "
                                 f"got {radius}")
        a, b = np.asarray(a), np.asarray(b)
        if not a.dtype == b.dtype == np.uint64:
            raise ParameterError(f"Philox words must be uint64, got {a.dtype} and {b.dtype}")
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError(f"coordinates must be 1-D arrays of equal shape, "
                             f"got {a.shape} and {b.shape}")
    offsets = _offsets(offsets, a.size)
    if radius is None:
        for v in (a, b):
            # a NaN minimum or maximum fails both comparisons
            if v.size and not (-_MAX <= v.min() and v.max() <= _MAX):
                raise ParameterError("coordinates must be finite")
    thr = float(threshold)
    return a, b, offsets, float(half_distance), thr * thr


def _offsets(offsets, n_points):
    """``offsets`` as int64: whole numbers, not bools, running from 0 to
    ``n_points`` without decreasing."""
    raw = np.asarray(offsets)
    if raw.ndim != 1 or raw.size == 0:
        raise ParameterError(f"offsets must run from 0 to {n_points}")
    whole = raw.dtype.kind in "iu" or raw.dtype.kind == "f" and bool(
        ((np.floor(raw) == raw) & (np.abs(raw) < 2.0 ** 63)).all())
    # a bool is no point count, and a list's bools do not show in its dtype
    if not whole or not isinstance(offsets, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in offsets):
        raise ParameterError("offsets must be integers, not bools or fractions")
    offsets = raw.astype(np.int64, copy=False)
    if offsets[0] != 0 or offsets[-1] != n_points:
        raise ParameterError(f"offsets must run from 0 to {n_points}")
    if (np.diff(offsets) < 0).any():
        raise ParameterError("offsets must be non-decreasing")
    return offsets


def _empty(n_trials):
    """Statistics of n_trials empty fields."""
    out = FieldStats(zip(_VALUES, np.full((len(_VALUES), n_trials), np.inf)))
    out.update(psi_second=np.full(n_trials, np.inf),
               idx_opt=np.full(n_trials, -1, dtype=np.int64),
               idx_mid=np.full(n_trials, -1, dtype=np.int64),
               n_feedback=np.zeros(n_trials, dtype=np.int64))
    return out


def _reduce(ds_sq, dd_sq, norm_sq, cand, valid, starts, scale_source, scale_destination):
    """Segmented minima and argmins over the candidate points ``cand``.

    ``cand`` lists in increasing order, for each non-empty trial, every point
    that can attain one of its minima; ``ds_sq``, ``dd_sq`` and ``norm_sq`` are
    their squared distances to the source, the destination and the origin.
    ``psi_second`` is left inf and ``n_feedback`` 0.
    """
    out = _empty(valid.size)
    k = cand.size
    cstarts = np.searchsorted(cand, starts)
    rows = np.empty((5, k))
    sq = np.maximum(ds_sq, dd_sq, out=rows[0])
    rows[1], rows[2], rows[3] = norm_sq, dd_sq, ds_sq
    np.maximum(scale_source * scale_source * ds_sq,
               scale_destination * scale_destination * dd_sq, out=rows[4])
    low = np.minimum.reduceat(rows, cstarts, axis=1)
    # the repeated minima are freed before np.where allocates its result
    above = rows[:4] > np.repeat(low[:4], np.diff(cstarts, append=k), axis=1)
    first = np.minimum.reduceat(np.where(above, k, np.arange(k)), cstarts, axis=1)
    values = np.sqrt(np.vstack((low[:2], sq[first[2:]], low[4:], sq[first[1:2]])))
    for name, v in zip(_VALUES, values):
        out[name][valid] = v
    out["idx_opt"][valid], out["idx_mid"][valid] = cand[first[:2]]
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


def _chunks(offsets, max_points, max_trials):
    """Yield (lo, hi): runs of at most ``max_trials`` whole trials holding at
    most ``max_points`` points, or a single trial when it alone holds more."""
    n_trials = offsets.size - 1
    lo = 0
    while lo < n_trials:
        hi = int(np.searchsorted(offsets, offsets[lo] + max_points, side="right")) - 1
        hi = min(max(hi, lo + 1), lo + max_trials)
        yield lo, hi
        lo = hi


def _xy_block(xs, ys, offsets, d, thr_sq, scale_source, scale_destination):
    """``field_stats`` of one block of non-empty extent, indexed within it."""
    y2 = ys * ys
    ds_sq, dd_sq = (xs + d) ** 2 + y2, (xs - d) ** 2 + y2
    valid, starts, _ = _segments(offsets)
    norm_sq = xs * xs + y2
    out = _reduce(ds_sq, dd_sq, norm_sq, np.arange(xs.size), valid, starts,
                  scale_source, scale_destination)
    norm_sq[out.idx_mid[valid]] = np.inf
    out["psi_second"][valid] = np.sqrt(np.minimum.reduceat(norm_sq, starts))
    out["n_feedback"] = _per_trial(np.maximum(ds_sq, dd_sq) <= thr_sq, offsets)
    return out


def field_stats(xs, ys, offsets, half_distance, threshold=np.inf,
                scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of relays at finite explicit coordinates ``(xs, ys)``,
    in blocks of whole fields (see the module docstring)."""
    xs, ys, offsets, d, thr_sq = _checked(xs, ys, offsets, half_distance, threshold)
    out = _empty(offsets.size - 1)
    for lo, hi in _chunks(offsets, _BLOCK, _BLOCK):
        first, last = offsets[lo], offsets[hi]
        if first == last:  # empty fields keep their inf, -1 and 0
            continue
        block = _xy_block(xs[first:last], ys[first:last], offsets[lo:hi + 1] - first, d,
                          thr_sq, scale_source, scale_destination)
        for name, v in block.items():
            out[name][lo:hi] = v
        for name in ("idx_opt", "idx_mid"):  # point indices of the batch; -1 stays -1
            idx = out[name][lo:hi]
            idx[idx >= 0] += first
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


def _last_word(bound, radius):
    """For each r^2 bound (a 1-D float64 array of values >= 0 or NaN), the
    last radial word whose r^2 is at most it, as uint64: ``(k << 11) | 0x7FF``
    for the last such k, and the top word from the top word's r^2 on and at NaN.

    The product R^2 k 2^-53 rounds to at most b when it is at most b, and to
    more than b when it exceeds b by more than half an ulp of b, which is at
    most one k step (R^2 2^-53, as R^2 >= 2^-1022). So with q = b / R^2 < 1
    the last k is floor(q 2^53) or one more; fl(q) 2^53 is within q < 1 of
    q 2^53, so the last k is one of the four from the floor of fl(q) 2^53
    minus one on.
    """
    b = np.fmin(bound, disc_norm_sq(radius, word_uniforms(_TOP_WORD)))  # fmin drops a NaN
    k = np.maximum(np.floor(b / (radius * radius) * 2.0 ** 53) - 1.0, 0.0).astype(np.uint64)
    k += (disc_norm_sq(radius, (k[:, None] + _STEPS) * 2.0 ** -53) <= b[:, None]).sum(
        axis=1, dtype=np.uint64)
    # where the top r^2 rounds to R^2 itself, k up to 2^53 + 2 pass
    return np.minimum(k, _TOP_WORD >> 11) << np.uint64(11) | np.uint64(0x7FF)


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
    cuts = np.array(_feedback_cuts(d, thr_sq))
    return tuple(int(w) if n >= 0 else -1 for n, w in zip(cuts, _last_word(cuts, radius)))


def _word_feedback(radial, angle, offsets, radius, d, thr_sq):
    """Relays with sq <= thr_sq in each trial, the cosine only on the band."""
    wa, wb = _word_cuts(float(radius), d, thr_sq)
    if wa == _TOP_WORD:  # every relay always reports
        return np.diff(offsets)
    report = radial <= wa
    band = np.flatnonzero((radial <= wb) ^ report)  # wa <= wb
    if band.size:
        ds_sq, dd_sq = _distances(*_legs(disc_norm_sq(radius, word_uniforms(radial[band])), d),
                                  word_uniforms(angle[band]))
        report[band] = np.maximum(ds_sq, dd_sq) <= thr_sq
    return _per_trial(report, offsets)


def disc_feedback_counts(radial_words, angle_words, offsets, radius, half_distance,
                         threshold) -> np.ndarray:
    """``disc_batch_stats(radial_words, angle_words, offsets, radius, half_distance,
    threshold).n_feedback`` bit for bit, without the other statistics."""
    radial, angle, offsets, d, thr_sq = _checked(radial_words, angle_words, offsets,
                                                 half_distance, threshold, radius)
    return _word_feedback(radial, angle, offsets, radius, d, thr_sq)


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


def disc_batch_stats(radial_words, angle_words, offsets, radius, half_distance,
                     threshold=np.inf, scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of the relays that ``DiscHomogeneous(., radius)`` makes
    of 64-bit Philox words (see the module docstring)."""
    radial, angle, offsets, d, thr_sq = _checked(radial_words, angle_words, offsets,
                                                 half_distance, threshold, radius)
    if radial.size == 0:
        return _empty(offsets.size - 1)
    valid, starts, counts = _segments(offsets)
    near = disc_norm_sq(radius, word_uniforms(np.minimum.reduceat(radial, starts)))
    c_near, base_near = _legs(near, d)
    # a relay beyond the nearest relay's reach can attain no minimum
    keep = radial <= np.repeat(_last_word(_norm_reach(base_near + c_near, d), radius), counts)
    keep[starts] = True  # where a minimum is NaN, the field's first relay is its argmin
    cand = np.flatnonzero(keep)
    norm_sq = disc_norm_sq(radius, word_uniforms(radial[cand]))
    ds_sq, dd_sq = _distances(*_legs(norm_sq, d), word_uniforms(angle[cand]))
    out = _reduce(ds_sq, dd_sq, norm_sq, cand, valid, starts, scale_source, scale_destination)
    # the second least r^2 is that of the least word left once the nearest relay's is set aside
    rest = radial.copy()
    rest[out.idx_mid[valid]] = _TOP_WORD
    second = disc_norm_sq(radius, word_uniforms(np.minimum.reduceat(rest, starts)))
    second[counts == 1] = np.inf  # the top word is a relay at a finite r^2
    out["psi_second"][valid] = np.sqrt(second)
    out["n_feedback"] = _word_feedback(radial, angle, offsets, radius, d, thr_sq)
    return out
