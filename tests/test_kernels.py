import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import kernels
from relaysim.errors import ParameterError
from relaysim.pointprocess import DiscHomogeneous, disc_norm_sq, word_uniforms


def _words(u, seed=0):
    """Philox words whose uniforms are the doubles u in [0, 1] (1 becoming the
    largest uniform), with random low bits."""
    k = np.minimum(np.asarray(u) * 2.0**53, 2.0**53 - 1).astype(np.uint64)
    low = np.random.default_rng(seed).integers(0, 1 << 11, k.size, dtype=np.uint64)
    return k << np.uint64(11) | low


def _last_radius(x, ok):
    """The last radius r for which ``ok(r)`` holds, from x within a few ulps of it."""
    while not ok(x):
        x = float(np.nextafter(x, 0.0))
    while ok(float(np.nextafter(x, math.inf))):
        x = float(np.nextafter(x, math.inf))
    return x


# the smallest and the largest disc radius whose squared norms pointprocess draws
_R_MAX = _last_radius(math.sqrt(kernels._MAX), lambda r: r * r < math.inf)
_R_MIN = float(np.nextafter(_last_radius(math.sqrt(sys.float_info.min),
                                         lambda r: r * r < sys.float_info.min), math.inf))


def _random_batch(seed, n_trials=300, mean_pts=40):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(mean_pts, size=n_trials)
    counts[rng.integers(0, n_trials, 5)] = 0  # force empty fields
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    total = int(offsets[-1])
    xs = rng.uniform(-8, 8, total)
    ys = rng.uniform(-8, 8, total)
    u1 = rng.random(total)
    u2 = rng.random(total)
    return xs, ys, u1, u2, offsets


def _xy_entry(seed):
    xs, ys, _, _, offsets = _random_batch(seed)
    return xs, ys, offsets, kernels.field_stats(xs, ys, offsets, 1.0, 2.5, 1.0, 1.4)


def _disc_entry(seed):
    tau = 7.0
    _, _, u1, u2, offsets = _random_batch(seed)
    radial, angle = _words(u1, seed), _words(u2, seed + 1)
    r = np.sqrt(disc_norm_sq(tau, word_uniforms(radial)))
    u = word_uniforms(angle)
    xs, ys = r * np.cos(2 * math.pi * u), r * np.sin(2 * math.pi * u)
    st = kernels.disc_batch_stats(radial, angle, offsets, tau, 1.0, 2.5, 1.0, 1.4)
    return xs, ys, offsets, st


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7])
@pytest.mark.parametrize("entry", [_xy_entry, _disc_entry], ids=["xy", "disc"])
def test_against_bruteforce_reference(entry, seed):
    xs, ys, offsets, st = entry(seed)
    for t in range(offsets.size - 1):
        sl = slice(offsets[t], offsets[t + 1])
        x, y = xs[sl], ys[sl]
        if x.size == 0:
            assert st.idx_opt[t] == -1
            assert st.idx_mid[t] == -1
            assert math.isinf(st.gamma_opt[t])
            assert st.n_feedback[t] == 0
            continue
        ds = np.hypot(x + 1.0, y)
        dd = np.hypot(x - 1.0, y)
        s = np.maximum(ds, dd)
        norm = np.hypot(x, y)
        assert st.gamma_opt[t] == pytest.approx(s.min(), rel=1e-12)
        assert st.idx_opt[t] - offsets[t] == int(np.argmin(s))
        assert st.idx_mid[t] - offsets[t] == int(np.argmin(norm))
        assert st.psi_mid[t] == pytest.approx(norm.min(), rel=1e-12)
        assert st.gamma_mid[t] == pytest.approx(s[np.argmin(norm)], rel=1e-12)
        assert st.gamma_c2d[t] == pytest.approx(s[np.argmin(dd)], rel=1e-12)
        assert st.gamma_csrc[t] == pytest.approx(s[np.argmin(ds)], rel=1e-12)
        assert st.n_feedback[t] == int((s <= 2.5).sum())
        if x.size >= 2:
            assert st.psi_second[t] == pytest.approx(np.partition(norm, 1)[1], rel=1e-12)
        diff = np.maximum(1.0 * ds, 1.4 * dd)
        assert st.gamma_diff[t] == pytest.approx(diff.min(), rel=1e-12)


def test_tie_breaks_to_lowest_index():
    xs = np.array([0.5, -0.5, 0.5])  # first and second have equal metric
    ys = np.zeros(3)
    st = kernels.field_stats(xs, ys, np.array([0, 3], dtype=np.int64), 1.0)
    assert st.idx_opt[0] == 0
    assert st.idx_mid[0] == 0


def test_empty_batch():
    st = kernels.field_stats(np.empty(0), np.empty(0),
                             np.zeros(4, dtype=np.int64), 1.0)
    assert np.all(st.idx_opt == -1)
    assert np.all(np.isinf(st.gamma_opt))


@pytest.mark.parametrize("xs, ys, offsets", [
    (np.arange(5.0), np.array([0.3]), [0, 2, 5]),
    (np.zeros((5, 1)), np.zeros((5, 1)), [0, 2, 5]),
    (np.zeros(5), np.zeros(5), []),
    (np.zeros(5), np.zeros(5), [1, 2, 5]),
    (np.zeros(5), np.zeros(5), [0, 3, 2, 5]),
    (np.zeros(5), np.zeros(5), [0, 2, 4]),
    (np.zeros(5), np.zeros(5), [0, 2, 6]),
    (np.zeros(5), np.zeros(5), [0, 2.5, 5]),
    (np.zeros(5), np.zeros(5), [0, math.nan, 5]),
    (np.zeros(5), np.zeros(5), [0, math.inf, 5]),
    (np.zeros(5), np.zeros(5), [0.0, True, 5]),
    (np.zeros(1), np.zeros(1), np.array([False, True])),
    (np.zeros(5), np.zeros(5), ["0", "2", "5"]),
], ids=["unequal-shapes", "not-1d", "no-offsets", "nonzero-first-offset",
        "decreasing-offsets", "short-last-offset", "long-last-offset", "fractional-offset",
        "nan-offset", "infinite-offset", "bool-in-a-list", "bool-array", "text-offsets"])
def test_malformed_input_raises_parameter_error(xs, ys, offsets):
    with pytest.raises(ParameterError):
        kernels.field_stats(xs, ys, offsets, 1.0)
    words = np.asarray(xs, dtype=np.uint64), np.asarray(ys, dtype=np.uint64)
    with pytest.raises(ParameterError):
        kernels.disc_batch_stats(*words, offsets, 4.0, 1.0)
    with pytest.raises(ParameterError):
        kernels.disc_feedback_counts(*words, offsets, 4.0, 1.0, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", [0, 1], ids=["xs", "ys"])
def test_non_finite_coordinates_raise(bad, which):
    xy = [np.array([0.1, 0.5, 2.0]), np.array([0.3, -0.2, 0.0])]
    xy[which][1] = bad
    with pytest.raises(ParameterError):
        kernels.field_stats(*xy, [0, 3], 1.0)


_TOP_WORD = 2**64 - 1
# both ends of the word range and its middle: r^2 = 0, R^2 / 2 and R^2 (1 - 2^-53),
# and u = 0, 1/2 and 1 - 2^-53
_EDGE_WORDS = np.array([0, 1 << 63, _TOP_WORD], dtype=np.uint64)


@pytest.mark.parametrize("which, bad", [
    (0, math.nan), (0, -1e-300), (0, -math.inf),
    (1, math.nan), (1, -1e-300), (1, np.nextafter(1.0, 2.0)), (1, math.inf),
], ids=["norm-nan", "norm-negative", "norm-minus-inf",
        "angle-nan", "angle-negative", "angle-above-one", "angle-inf"])
def test_polar_inputs_outside_their_range_raise(which, bad):
    """Every uint64 is a word, so no word is out of range: both ends of the word
    range are valid input, and an array of doubles, in or out of the ranges of
    r^2 and u, raises."""
    st = kernels.disc_batch_stats(_EDGE_WORDS, _EDGE_WORDS, [0, 3], 4.0, 1.0)
    assert st.psi_mid[0] == 0.0 and st.psi_second[0] == math.sqrt(8.0)
    polar = [np.array([0.0, 0.5, math.inf]), np.array([0.0, 0.5, 1.0])]
    polar[which][1] = bad
    with pytest.raises(ParameterError):  # doubles are no Philox words
        kernels.disc_batch_stats(*polar, [0, 3], 4.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        kernels.disc_feedback_counts(*polar, [0, 3], 4.0, 1.0, 2.0)


@pytest.mark.parametrize("words", [
    np.array([0.0, 0.5, 0.25]), np.array([0, 1, 2], dtype=np.int64),
    np.array([0, 1, 2], dtype=np.uint32), [0, 1, 2], np.zeros((3, 1), dtype=np.uint64),
    np.zeros((1, 3), dtype=np.uint64), np.zeros(2, dtype=np.uint64)],
    ids=["float64", "int64", "uint32", "list", "column", "row", "short"])
@pytest.mark.parametrize("which", [0, 1], ids=["radial", "angle"])
def test_feedback_words_of_another_dtype_or_shape_raise(words, which):
    polar = [_EDGE_WORDS] * 2
    kernels.disc_feedback_counts(*polar, [0, 3], 4.0, 1.0, 2.0)  # both ends of the word range
    kernels.disc_batch_stats(*polar, [0, 3], 4.0, 1.0, 2.0)
    polar[which] = words
    with pytest.raises(ParameterError):
        kernels.disc_feedback_counts(*polar, [0, 3], 4.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        kernels.disc_batch_stats(*polar, [0, 3], 4.0, 1.0, 2.0)


@pytest.mark.parametrize("radius", [math.nan, 0.0, -1.0, math.inf, 1.4e154, 1e-160])
def test_feedback_radius_without_a_normal_finite_square_raises(radius):
    with pytest.raises(ParameterError):
        kernels.disc_feedback_counts(_EDGE_WORDS, _EDGE_WORDS, [0, 3], radius, 1.0, 2.0)
    with pytest.raises(ParameterError):
        kernels.disc_batch_stats(_EDGE_WORDS, _EDGE_WORDS, [0, 3], radius, 1.0, 2.0)


def test_kernels_leave_their_inputs_unchanged():
    xs, ys, u1, u2, offsets = _random_batch(6, n_trials=50)
    radial, angle = _words(u1), _words(u2)
    radial[::7] = _TOP_WORD  # the word-space edge of an infinite r^2
    inputs = (xs, ys, radial, angle, offsets)
    before = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False  # a write raises
    kernels.field_stats(xs, ys, offsets, 1.0, 2.5)
    kernels.disc_batch_stats(radial, angle, offsets, 4.0, 1.0, 2.5)
    kernels.disc_feedback_counts(radial, angle, offsets, 4.0, 1.0, 2.5)
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


def _block_batch():
    """A batch of x/y fields for the block walk: runs of empty fields, one field
    more than a third of the batch and an all-empty tail, as strided columns."""
    rng = np.random.default_rng(8)
    counts = rng.poisson(6, 200)
    counts[[0, 1, 30, 31, 32, 33, 90]] = 0  # runs of empty fields
    counts[60] = 700
    counts[-25:] = 0
    offsets = np.concatenate([[0], np.cumsum(counts)])
    pts = rng.uniform(-5.0, 5.0, (offsets[-1], 2))
    pts[::9] = np.round(pts[::9])  # ties between fields' points
    return pts[:, 0], pts[:, 1], offsets


def test_field_stats_identical_for_every_block_budget(monkeypatch):
    """Every statistic, and both batch-level indices, match those of one block;
    each budget makes more than one ``_reduce`` call."""
    xs, ys, offsets = _block_batch()
    reduce, calls = kernels._reduce, []

    def counted(ds_sq, *args):
        calls.append(ds_sq.size)
        return reduce(ds_sq, *args)

    monkeypatch.setattr(kernels, "_reduce", counted)
    monkeypatch.setattr(kernels, "_BLOCK", 1 << 40)
    args = (xs, ys, offsets, 1.0, 2.5, 1.0, 1.4)
    whole = kernels.field_stats(*args)
    assert calls == [xs.size]
    assert 3 * np.diff(offsets).max() > xs.size
    for budget in (1, 7, xs.size // 3):
        monkeypatch.setattr(kernels, "_BLOCK", budget)
        calls.clear()
        st = kernels.field_stats(*args)
        assert len(calls) > 1 and sum(calls) == xs.size, budget
        assert set(st) == set(whole)
        for name in whole:
            assert st[name].dtype == whole[name].dtype, (budget, name)
            assert np.array_equal(st[name], whole[name]), (budget, name)
    assert np.all(whole.idx_opt[-25:] == -1) and np.all(whole.idx_mid[-25:] == -1)


def test_field_stats_memory_is_bounded_by_the_block():
    """Beyond its n_trials-long outputs, field_stats holds one block's
    temporaries, whatever the number of points (0.5M and 2M here)."""
    peaks = []
    for n_trials in (12_500, 50_000):
        xs, ys, _, _, offsets = _random_batch(5, n_trials=n_trials, mean_pts=40)
        tracemalloc.start()
        try:
            st = kernels.field_stats(xs, ys, offsets, 1.0, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.size > 0.95 * 40 * n_trials
        peaks.append(peak - sum(v.nbytes for v in st.values()))
    # a block holds at most 2^13 points, of about 150 B of temporaries each
    assert max(peaks) < 2 * 2**20, peaks


def _unpruned_disc(norm_sq, u2, offsets, d, threshold, scale_source, scale_destination):
    """Every statistic of ``disc_batch_stats`` with every point evaluated, one
    field at a time, in the kernel's arithmetic order."""
    cross = (2.0 * d) * np.sqrt(norm_sq) * np.cos((2.0 * math.pi) * u2)
    base = norm_sq + d * d
    ds, dd = base + cross, base - cross
    sq = np.maximum(ds, dd)
    diff = np.maximum(scale_source * scale_source * ds, scale_destination * scale_destination * dd)
    n = offsets.size - 1
    out = {k: np.full(n, np.inf) for k in ("gamma_opt", "gamma_mid", "psi_mid", "psi_second",
                                           "gamma_c2d", "gamma_csrc", "gamma_diff")}
    out.update(idx_opt=np.full(n, -1, dtype=np.int64), idx_mid=np.full(n, -1, dtype=np.int64),
               n_feedback=np.zeros(n, dtype=np.int64))

    def first_min(v):  # lowest index not above the minimum: the first one when it is NaN
        return int(np.flatnonzero(~(v > v.min()))[0])

    for t in range(n):
        lo, hi = offsets[t], offsets[t + 1]
        if lo == hi:
            continue
        s, nrm = sq[lo:hi], norm_sq[lo:hi]
        im = first_min(nrm)
        out["idx_opt"][t], out["idx_mid"][t] = lo + first_min(s), lo + im
        out["gamma_opt"][t] = np.sqrt(s.min())
        out["psi_mid"][t] = np.sqrt(nrm.min())
        out["gamma_mid"][t] = np.sqrt(s[im])
        out["gamma_c2d"][t] = np.sqrt(s[first_min(dd[lo:hi])])
        out["gamma_csrc"][t] = np.sqrt(s[first_min(ds[lo:hi])])
        out["gamma_diff"][t] = np.sqrt(diff[lo:hi].min())
        rest = nrm.copy()
        rest[im] = np.inf
        out["psi_second"][t] = np.sqrt(rest.min())
        out["n_feedback"][t] = np.count_nonzero(s <= threshold * threshold)
    return out


@pytest.mark.parametrize("infinite", [False, True], ids=["window", "infinite-norms"])
@pytest.mark.parametrize("threshold", [0.0, 1.0, 3.0, math.inf], ids=["T0", "Td", "T3d", "Tinf"])
@pytest.mark.parametrize("scales", [(1.0, 1.0), (1.0, 1.4)], ids=["equal", "unequal"])
@pytest.mark.parametrize("ties", [False, True], ids=["uniform", "rounded"])
def test_disc_pruning_is_bit_identical_to_evaluating_every_point(infinite, threshold, scales,
                                                                 ties, monkeypatch):
    d = 1.0  # rounded uniforms then put points exactly on base = T^2 and on sq = T^2
    cos, cos_points = np.cos, []

    def counted_cos(x):
        cos_points.append(x.size)
        return cos(x)

    for seed in range(3):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(30, 60)
        counts[rng.integers(0, 60, 8)] = 0  # empty trials
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        u1, u2 = rng.random(offsets[-1]), rng.random(offsets[-1])
        if ties:  # repeated norms, angles and whole points
            u1, u2 = np.round(u1 * 16) / 16, np.round(u2 * 8) / 8
        # the relays of a disc of radius 4 at these uniforms, with random low bits
        radial, angle = _words(u1, seed), _words(u2, seed + 1)
        if infinite:  # the first three trials wholly, half of the others' relays at the top word
            radial[(u1 > 0.5) | (np.arange(u1.size) < offsets[3])] = _TOP_WORD
        args = (offsets, 4.0, d, threshold * d, *scales)
        ref = _unpruned_disc(disc_norm_sq(4.0, word_uniforms(radial)), word_uniforms(angle),
                             offsets, d, threshold * d, *scales)
        monkeypatch.setattr(np, "cos", counted_cos)
        st = kernels.disc_batch_stats(radial, angle, *args)
        n_stats_cos = len(cos_points)
        n_feedback = kernels.disc_feedback_counts(radial, angle, *args[:4])
        monkeypatch.setattr(np, "cos", cos)
        assert set(st) == set(ref)
        for name in ref:
            assert np.array_equal(st[name], ref[name], equal_nan=True), (seed, name)
        assert np.array_equal(n_feedback, ref["n_feedback"]), seed
        # the counter takes a cosine for the band points alone
        wa, wb = kernels._word_cuts(4.0, d, (threshold * d) ** 2)
        assert sum(cos_points[n_stats_cos:]) == np.count_nonzero((radial > wa) & (radial <= wb))
        del cos_points[n_stats_cos:]
    if not infinite and threshold in (0.0, math.inf):  # the cosine of most points is skipped
        assert sum(cos_points) < 0.5 * 3 * 60 * 30


def test_disc_empty_batch():
    st = kernels.disc_batch_stats(np.empty(0, np.uint64), np.empty(0, np.uint64),
                                  np.zeros(3, dtype=np.int64), 4.0, 1.0, 2.0)
    assert np.all(st.idx_mid == -1) and np.all(st.n_feedback == 0)
    assert np.all(np.isinf(st.gamma_diff)) and np.all(np.isinf(st.psi_second))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing legs, inf - inf at d = inf
@pytest.mark.parametrize("threshold", [2.0, math.inf], ids=["T2", "Tinf"])
@pytest.mark.parametrize("d", [1e-150, 1.0, 1e150, math.inf])
@pytest.mark.parametrize("radius", [_R_MIN, 4.0, _R_MAX], ids=["R-min", "R4", "R-max"])
def test_one_relay_fields_and_extreme_words_match_evaluating_every_relay(radius, d, threshold):
    """A one-relay field has psi_second = inf, although the top word is a relay
    at the finite r^2 = R^2 (1 - 2^-53), so run_trials certifies it sufficient;
    fields holding the words 0 and 2^64 - 1 reduce as evaluating every relay does."""
    rng = np.random.default_rng(11)

    def some(n):
        return rng.integers(0, _TOP_WORD, n, dtype=np.uint64, endpoint=True).tolist()

    fields = [[0], [_TOP_WORD], [0x7FF], [1 << 63], *([w] for w in some(4)), [],
              [0, _TOP_WORD], [_TOP_WORD, 0], [_TOP_WORD, _TOP_WORD], [0, 0], [0x7FF, 0, 0x800],
              [_TOP_WORD, *some(5), 0], [*some(3), _TOP_WORD, *some(3)], [*some(6), 0, 0x7FF],
              some(40) + [0] + [_TOP_WORD] * 3, [_TOP_WORD - 0x7FF, _TOP_WORD]]
    counts = np.array([len(f) for f in fields])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    radial = np.array([w for f in fields for w in f], dtype=np.uint64)
    angle = np.array(some(radial.size), dtype=np.uint64)
    angle[:8], angle[-8:] = 0, _TOP_WORD
    args = (offsets, d, threshold, 1.0, 1.3)
    ref = _unpruned_disc(disc_norm_sq(radius, word_uniforms(radial)), word_uniforms(angle), *args)
    st = kernels.disc_batch_stats(radial, angle, offsets, radius, *args[1:])
    for name in ref:
        assert np.array_equal(st[name], ref[name], equal_nan=True), name
    one = counts == 1
    assert np.all(st.psi_second[one] == math.inf) and np.all(st.idx_opt[one] == st.idx_mid[one])
    assert np.all(st.psi_second[counts > 1] < math.inf)
    if d < math.inf:  # run_trials' sufficiency certificate; d = inf leaves NaN metrics
        assert np.all(st.gamma_mid[one] <= np.hypot(d, st.psi_second[one]))


def _words_from(radius, norm_sq, steps):
    """Words ``steps`` k apart from the last one whose r^2 is at most ``norm_sq``,
    each with the first word of the next k, within [0, 2^64); none at NaN."""
    if math.isnan(norm_sq):
        return []
    cut = int(kernels._last_word(np.array([max(norm_sq, 0.0)]), radius)[0])
    return [min(max(cut + 0x800 * k + j, 0), _TOP_WORD) for k in steps for j in (0, 1)]


_WORDS = st.one_of(st.sampled_from([0, 0x7FF, 0x800, 1 << 63, _TOP_WORD - 0x7FF, _TOP_WORD]),
                   st.integers(0, _TOP_WORD))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing legs and bounds
@settings(max_examples=200, deadline=None)
@given(log_d=st.floats(-150.0, 150.0), log_ratio=st.floats(-3.0, 3.0),
       edge=st.sampled_from([None, _R_MIN, _R_MAX]), near=_WORDS,
       steps=st.lists(st.integers(-8, 8), min_size=1, max_size=6),
       far=st.lists(_WORDS, max_size=6), seed=st.integers(0, 2**32 - 1))
@example(log_d=0.0, log_ratio=0.6, edge=None, near=0, steps=[0], far=[], seed=0)  # r = 0 nearest
@example(log_d=150.0, log_ratio=0.0, edge=_R_MAX, near=_TOP_WORD, steps=[1], far=[],
         seed=0)  # reach overflows
def test_disc_reach_keeps_every_relay_that_base_minus_c_keeps(log_d, log_ratio, edge, near,
                                                              steps, far, seed):
    """A relay that the exact ``base - c > bound`` test keeps lies within the
    r^2 reach's word cut, and the pruned kernel matches evaluating every relay."""
    d = 10.0 ** log_d
    radius = edge or min(max(d * 10.0 ** log_ratio, _R_MIN), _R_MAX)
    c_near, base_near = kernels._legs(disc_norm_sq(radius, word_uniforms(np.uint64(near))), d)
    bound = np.array([base_near + c_near])
    reach = kernels._norm_reach(bound, d)
    edge_sq = float((np.sqrt(bound) + d)[0] ** 2)  # where base - c reaches the bound
    radial = np.array([near, *[w for x in (d * d, edge_sq, reach[0], 0.0)
                               for w in _words_from(radius, x, steps)], *far], dtype=np.uint64)
    radial = np.maximum(radial, np.uint64(near))  # the first relay stays the nearest
    norm_sq = disc_norm_sq(radius, word_uniforms(radial))
    c, base = kernels._legs(norm_sq, d)
    exact = ~(base - c > bound[0])
    kept = radial <= kernels._last_word(reach, radius)[0]
    assert np.all(kept | ~exact), radial[exact & ~kept]
    angle = np.random.default_rng(seed).integers(0, _TOP_WORD, radial.size, dtype=np.uint64,
                                                 endpoint=True)
    offsets = np.array([0, 1, radial.size])
    ref = _unpruned_disc(norm_sq, word_uniforms(angle), offsets, d, math.inf, 1.0, 1.3)
    stats = kernels.disc_batch_stats(radial, angle, offsets, radius, d, math.inf, 1.0, 1.3)
    for name in ref:
        assert np.array_equal(stats[name], ref[name], equal_nan=True), name


@settings(max_examples=300, deadline=None)
@given(log_radius=st.floats(math.log10(_R_MIN), math.log10(_R_MAX)),
       edge=st.sampled_from([None, _R_MIN, _R_MAX]), log_d=st.floats(-150.0, 150.0),
       word=st.one_of(_WORDS, st.integers(0, (1 << 53) - 1).map(lambda k: k << 11 | 0x7FF)))
@example(log_radius=0.0, edge=_R_MIN, log_d=-150.0, word=_TOP_WORD)  # the top r^2 is R^2
@example(log_radius=0.0, edge=_R_MAX, log_d=150.0, word=0)
def test_word_cut_keeps_every_word_within_the_reach(log_radius, edge, log_d, word):
    """``_last_word`` is the last word whose r^2 is within each reach, as a
    bisection over k finds it: at, one ulp below and one ulp above a word's
    r^2, at the prune's reach from a nearest relay at that word, at 0 and past
    the top r^2; a NaN reach keeps every word."""
    radius = edge or min(max(10.0 ** log_radius, _R_MIN), _R_MAX)
    d = 10.0 ** log_d

    def norm_sq(w):
        return disc_norm_sq(radius, word_uniforms(w))

    x = norm_sq(word)
    with np.errstate(over="ignore"):
        c, base = kernels._legs(np.array([x]), d)
        prune_reach = kernels._norm_reach(base + c, d)[0]
    reaches = np.array([x, max(np.nextafter(x, -1.0), 0.0), np.nextafter(x, math.inf),
                        prune_reach, 0.0, np.nextafter(radius * radius, math.inf), math.inf,
                        math.nan])
    cuts = kernels._last_word(reaches, radius)
    assert cuts.dtype == np.uint64 and cuts[-1] == _TOP_WORD
    probes = {min(max(word + step, 0), _TOP_WORD)
              for step in (-0x800, -0x7FF, -1, 0, 1, 0x7FF, 0x800)} | {0, _TOP_WORD}
    for reach, cut in zip(reaches[:-1], cuts[:-1].tolist()):
        k = kernels._last(lambda k: norm_sq(k << 11) <= reach, 1 << 53)
        assert cut == (k << 11 | 0x7FF), (reach, cut, k)
        for w in probes | {cut, min(cut + 1, _TOP_WORD)}:
            assert (w <= cut) == (norm_sq(w) <= reach), (reach, cut, w)


def _always(d, thr_sq, norm_sq):
    """The counter's "always reports" predicate, in numpy and the kernel's order."""
    norm_sq = np.float64(norm_sq)
    c = (2.0 * d) * np.sqrt(norm_sq)
    base = norm_sq + d * d
    return bool(c < np.inf and base + c <= thr_sq)


def _maybe(d, thr_sq, norm_sq):
    """The counter's "may report" predicate: base = r^2 + d^2 is not above T^2."""
    return bool(not np.float64(norm_sq) + d * d > thr_sq)


# T = d puts both cuts below 1e-15, where r^2 + d^2 rounds to d^2; T = 3 with
# d = 1 puts T^2 = 9 exactly on base(8) = 8 + 1.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing cases
@pytest.mark.parametrize("d, threshold", [
    (1.0, 1.0), (0.5, 0.5), (1.0, 3.0), (1.0, 0.0), (1.0, 2.5),
    (1.0, math.inf), (5e307, math.inf),
], ids=["T=d", "T=d-half", "T2-on-base", "T0", "T2.5", "infinite-norm",
        "overflowing-distance"])
def test_feedback_cuts_are_the_last_norms_that_satisfy_their_predicate(d, threshold):
    """Each cut satisfies its predicate and the next double does not, and the
    counter built on the cuts matches evaluating every relay."""
    thr_sq = threshold * threshold
    cuts = kernels._feedback_cuts(d, thr_sq)
    assert cuts[0] <= cuts[1]
    for cut, holds in zip(cuts, (_always, _maybe)):
        if cut < 0:  # no squared norm satisfies it
            assert cut == -1.0 and not holds(d, thr_sq, 0.0)
            continue
        assert 0.0 <= cut <= math.inf and holds(d, thr_sq, cut)
        if cut < math.inf:
            assert not holds(d, thr_sq, np.nextafter(cut, math.inf))
    if threshold == d:
        assert 0.0 < cuts[0] < cuts[1] < 1e-15
    if threshold == 3.0:
        assert cuts[1] == 8.0
    if threshold == 0.0:
        assert cuts == (-1.0, -1.0)
    if threshold == math.inf and d == 1.0:  # every finite norm reports, an infinite one never
        assert cuts == (kernels._MAX, math.inf)
    if d == 5e307:  # d * d overflows; c = 2 d r overflows from r^2 = 3.2317 on
        assert 3.23 < cuts[0] < 3.24 and cuts[1] == math.inf
    # both kernels, with the radial words on and next to their word cuts
    rng = np.random.default_rng(5)
    offsets = np.array([0, 40, 40, 100, 101, 160])
    radial, angle = _words(rng.random(160), 5), _words(rng.random(160), 6)
    word_cuts = [max(cut, 0) for cut in kernels._word_cuts(4.0, d, thr_sq)]
    radial[[0, 50, 100, 101, 150, 151]] = (0, _TOP_WORD, word_cuts[0],
                                           min(word_cuts[0] + 1, _TOP_WORD), word_cuts[1],
                                           min(word_cuts[1] + 1, _TOP_WORD))
    word_ref = _unpruned_disc(disc_norm_sq(4.0, word_uniforms(radial)),
                              word_uniforms(angle), offsets, d, threshold, 1.0,
                              1.0)["n_feedback"]
    assert np.array_equal(kernels.disc_batch_stats(radial, angle, offsets, 4.0, d,
                                                   threshold).n_feedback, word_ref)
    assert np.array_equal(kernels.disc_feedback_counts(radial, angle, offsets, 4.0, d, threshold),
                          word_ref)


def test_the_radius_range_is_the_one_pointprocess_draws():
    words = np.zeros(1, np.uint64)
    for radius in (_R_MIN, _R_MAX):
        DiscHomogeneous(1e-300, radius)
        kernels.disc_feedback_counts(words, words, [0, 1], radius, 1.0, 2.0)
        kernels.disc_batch_stats(words, words, [0, 1], radius, 1.0, 2.0)
    for radius in (float(np.nextafter(_R_MIN, 0.0)), float(np.nextafter(_R_MAX, math.inf))):
        with pytest.raises(ParameterError):
            DiscHomogeneous(1e-300, radius)
        with pytest.raises(ParameterError):
            kernels.disc_feedback_counts(words, words, [0, 1], radius, 1.0, 2.0)
        with pytest.raises(ParameterError):
            kernels.disc_batch_stats(words, words, [0, 1], radius, 1.0, 2.0)


# angle words at u = 0 (cos = 1: the relay's sq is base + c), 1/4, 1/2 and 3/4
_ANGLES = (0, 1 << 62, 1 << 63, 3 << 62)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing legs and squares
@settings(max_examples=150, deadline=None)
@given(log_d=st.floats(-150.0, 150.0), t_over_d=st.sampled_from([0.0, 1.0, 2.5, math.inf]),
       log_ratio=st.floats(-3.0, 3.0), edge=st.sampled_from([None, _R_MIN, _R_MAX]),
       seed=st.integers(0, 2**32 - 1))
@example(log_d=0.0, t_over_d=2.5, log_ratio=math.log10(6.0), edge=None, seed=0)
@example(log_d=-150.0, t_over_d=1.0, log_ratio=0.0, edge=_R_MIN, seed=1)
@example(log_d=150.0, t_over_d=2.5, log_ratio=0.0, edge=_R_MAX, seed=2)
def test_word_counter_is_exact_at_its_cuts(log_d, t_over_d, log_ratio, edge, seed):
    """Each word cut is the last word whose r^2 is at most its r^2 cut, and both
    kernels count as evaluating every relay of the same words mapped to doubles
    does, the word counter taking a cosine for the words between the cuts alone."""
    d = 10.0 ** log_d
    radius = edge or min(max(d * 10.0 ** log_ratio, _R_MIN), _R_MAX)
    threshold = t_over_d * d
    thr_sq = threshold * threshold

    def norm_sq(word):
        return disc_norm_sq(radius, word_uniforms(word))

    cuts = kernels._word_cuts(radius, d, thr_sq)
    for cut, norm_cut in zip(cuts, kernels._feedback_cuts(d, thr_sq)):
        if cut < 0:  # no word reaches the r^2 cut
            assert cut == -1 and not norm_sq(0) <= norm_cut
            continue
        assert cut & 0x7FF == 0x7FF and norm_sq(cut) <= norm_cut
        assert cut == _TOP_WORD or not norm_sq(cut + 1) <= norm_cut
    # each cut word, one word either side, and either side of the 0x7FF boundaries next to it
    near = {min(max(cut + step, 0), _TOP_WORD) for cut in cuts if cut >= 0
            for step in (-0x800, -0x7FF, -1, 0, 1, 0x7FF, 0x800)}
    rng = np.random.default_rng(seed)
    words = np.array(sorted(near | {0, _TOP_WORD}), dtype=np.uint64)
    words = np.concatenate([words, rng.integers(0, _TOP_WORD, 32, dtype=np.uint64,
                                                endpoint=True)])
    radial = np.repeat(words, len(_ANGLES) + 1)
    angle = np.tile(np.array([*_ANGLES, 0], dtype=np.uint64), words.size)
    angle[len(_ANGLES)::len(_ANGLES) + 1] = rng.integers(0, _TOP_WORD, words.size,
                                                        dtype=np.uint64, endpoint=True)
    offsets = np.arange(radial.size + 1)  # one relay a trial: every miscount shows
    ref = _unpruned_disc(norm_sq(radial), word_uniforms(angle), offsets, d, threshold, 1.0,
                         1.0)["n_feedback"]
    assert np.array_equal(kernels.disc_batch_stats(radial, angle, offsets, radius, d,
                                                   threshold).n_feedback, ref)
    cos, cos_points = np.cos, []

    def counted_cos(x):
        cos_points.append(x.size)
        return cos(x)

    np.cos = counted_cos
    try:
        got = kernels.disc_feedback_counts(radial, angle, offsets, radius, d, threshold)
    finally:
        np.cos = cos
    assert np.array_equal(got, ref), radial[got != ref]
    assert sum(cos_points) == np.count_nonzero((radial > cuts[0]) & (radial <= cuts[1]))
