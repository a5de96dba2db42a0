import math
import tracemalloc

import numpy as np
import pytest

from relaysim import kernels
from relaysim.errors import ParameterError


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
    r = tau * np.sqrt(u1)
    xs, ys = r * np.cos(2 * math.pi * u2), r * np.sin(2 * math.pi * u2)
    st = kernels.disc_batch_stats((tau * tau) * u1, u2, offsets, 1.0, 2.5, 1.0, 1.4)
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
], ids=["unequal-shapes", "not-1d", "no-offsets", "nonzero-first-offset",
        "decreasing-offsets", "short-last-offset", "long-last-offset"])
def test_malformed_input_raises_parameter_error(xs, ys, offsets):
    with pytest.raises(ParameterError):
        kernels.field_stats(xs, ys, offsets, 1.0)
    with pytest.raises(ParameterError):
        kernels.disc_batch_stats(xs, ys, offsets, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", [0, 1], ids=["xs", "ys"])
def test_non_finite_coordinates_raise(bad, which):
    xy = [np.array([0.1, 0.5, 2.0]), np.array([0.3, -0.2, 0.0])]
    xy[which][1] = bad
    with pytest.raises(ParameterError):
        kernels.field_stats(*xy, [0, 3], 1.0)


@pytest.mark.parametrize("which, bad", [
    (0, math.nan), (0, -1e-300), (0, -math.inf),
    (1, math.nan), (1, -1e-300), (1, np.nextafter(1.0, 2.0)), (1, math.inf),
], ids=["norm-nan", "norm-negative", "norm-minus-inf",
        "angle-nan", "angle-negative", "angle-above-one", "angle-inf"])
def test_polar_inputs_outside_their_range_raise(which, bad):
    polar = [np.array([0.0, 0.5, math.inf]), np.array([0.0, 0.5, 1.0])]
    with np.errstate(invalid="ignore"):  # inf - inf at the infinite norm
        kernels.disc_batch_stats(*polar, [0, 3], 1.0)  # both ends of each range are valid
    polar[which][1] = bad
    for kernel in (kernels.disc_batch_stats, kernels.disc_feedback_counts):
        with pytest.raises(ParameterError):
            kernel(*polar, [0, 3], 1.0, 2.0)


def test_kernels_leave_their_inputs_unchanged():
    xs, ys, u1, u2, offsets = _random_batch(6, n_trials=50)
    norm_sq = 16.0 * u1
    norm_sq[::7] = math.inf
    inputs = (xs, ys, norm_sq, u2, offsets)
    before = [a.copy() for a in inputs]
    for a in inputs:
        a.flags.writeable = False  # a write raises
    with np.errstate(invalid="ignore"):  # inf - inf at the infinite norms
        kernels.field_stats(xs, ys, offsets, 1.0, 2.5)
        kernels.disc_batch_stats(norm_sq, u2, offsets, 1.0, 2.5)
        kernels.disc_feedback_counts(norm_sq, u2, offsets, 1.0, 2.5)
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


def test_field_stats_peak_memory_per_point():
    xs, ys, _, _, offsets = _random_batch(5, n_trials=2000, mean_pts=40)  # about 80k points
    tracemalloc.start()
    try:
        kernels.field_stats(xs, ys, offsets, 1.0, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert xs.size > 75_000
    assert peak <= 140 * xs.size


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
        norm_sq = 16.0 * u1  # a disc of radius 4
        if infinite:  # the first three trials wholly, half of the others' relays
            norm_sq[(u1 > 0.5) | (np.arange(u1.size) < offsets[3])] = np.inf
        args = (norm_sq, u2, offsets, d, threshold * d, *scales)
        with np.errstate(invalid="ignore"):  # an infinite norm gives inf - inf
            ref = _unpruned_disc(*args)
            monkeypatch.setattr(np, "cos", counted_cos)
            st = kernels.disc_batch_stats(*args)
            n_stats_cos = len(cos_points)
            n_feedback = kernels.disc_feedback_counts(*args[:5])
            monkeypatch.setattr(np, "cos", cos)
        assert set(st) == set(ref)
        for name in ref:
            assert np.array_equal(st[name], ref[name], equal_nan=True), (seed, name)
        assert np.array_equal(n_feedback, ref["n_feedback"]), seed
        # the counter takes a cosine for the band points alone
        na, nb = kernels._feedback_cuts(d, (threshold * d) ** 2)
        assert sum(cos_points[n_stats_cos:]) == np.count_nonzero((norm_sq > na) & (norm_sq <= nb))
        del cos_points[n_stats_cos:]
    if not infinite and threshold in (0.0, math.inf):  # the cosine of most points is skipped
        assert sum(cos_points) < 0.5 * 3 * 60 * 30


def test_disc_empty_batch():
    st = kernels.disc_batch_stats(np.empty(0), np.empty(0), np.zeros(3, dtype=np.int64),
                                  1.0, 2.0)
    assert np.all(st.idx_mid == -1) and np.all(st.n_feedback == 0)
    assert np.all(np.isinf(st.gamma_diff)) and np.all(np.isinf(st.psi_second))


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
    rng = np.random.default_rng(5)
    offsets = np.array([0, 40, 40, 100, 101, 160])
    norm_sq, u2 = 16.0 * rng.random(160), rng.random(160)
    at_cuts = [max(cut, 0.0) for cut in cuts]
    norm_sq[[0, 50, 100, 101, 150, 151]] = (0.0, math.inf, at_cuts[0],
                                           np.nextafter(at_cuts[0], math.inf), at_cuts[1],
                                           np.nextafter(at_cuts[1], math.inf))
    ref = _unpruned_disc(norm_sq, u2, offsets, d, threshold, 1.0, 1.0)["n_feedback"]
    assert np.array_equal(kernels.disc_feedback_counts(norm_sq, u2, offsets, d, threshold), ref)
