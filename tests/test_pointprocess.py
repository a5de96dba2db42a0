import hashlib
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from relaysim.errors import ParameterError
from relaysim.kernels import field_stats
from relaysim.pointprocess import (AnnulusUniform, CircleHomogeneous,
                                   DiscHomogeneous, DiscWithExclusion,
                                   GaussianCluster, _generator, default_window_radius,
                                   sample, sample_half_disc)


def test_determinism():
    spec = DiscHomogeneous(1.0, 5.0)
    a = sample(spec, 1234)
    b = sample(spec, 1234)
    assert np.array_equal(a.points, b.points)
    c = sample(spec, 1235)
    assert not np.array_equal(a.points, c.points)


def test_spec_validation():
    with pytest.raises(ParameterError):
        DiscHomogeneous(-1.0, 5.0)
    with pytest.raises(ParameterError):
        DiscWithExclusion(1.0, 5.0, 5.0)
    with pytest.raises(ParameterError):
        AnnulusUniform(3.0, 2.0, 10)
    with pytest.raises(ParameterError):
        GaussianCluster(0.0, 1.0)
    with pytest.raises(ParameterError):
        sample_half_disc(1.0, 4.0, "up", 0)


def _counts(spec, n_draws, seed0=10_000):
    return np.array([sample(spec, seed0 + k).n for k in range(n_draws)])


def test_disc_counts_poisson():
    spec = DiscHomogeneous(1.0, 10.0)
    counts = _counts(spec, 10_000)
    mean = spec.mean_count
    assert mean == pytest.approx(100.0 * math.pi)
    se = math.sqrt(mean / counts.size)
    assert abs(counts.mean() - mean) < 3 * se
    # chi-square goodness of fit against the stated Poisson law
    lo, hi = int(stats.poisson.ppf(0.001, mean)), int(stats.poisson.ppf(0.999, mean))
    edges = np.arange(lo, hi + 2)
    observed, _ = np.histogram(np.clip(counts, lo, hi), bins=edges)
    expected = counts.size * stats.poisson.pmf(edges[:-1], mean)
    expected[0] += counts.size * stats.poisson.cdf(lo - 1, mean)
    expected[-1] += counts.size * stats.poisson.sf(hi, mean)
    keep = expected >= 5
    chi2 = np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
    p = stats.chi2.sf(chi2, keep.sum() - 1)
    assert p > 0.01


def test_disc_radius_squared_uniform():
    spec = DiscHomogeneous(2.0, 4.0)
    pts = np.concatenate([sample(spec, 77 + k).points for k in range(200)])
    r2 = (pts ** 2).sum(axis=1) / spec.radius ** 2
    assert stats.kstest(r2, "uniform").pvalue > 0.01


def test_exclusion_zone_is_empty():
    spec = DiscWithExclusion(1.0, 2.0, 10.0)
    for seed in range(30):
        pts = sample(spec, seed).points
        if pts.size:
            assert np.hypot(pts[:, 0], pts[:, 1]).min() >= 2.0
    counts = _counts(spec, 4000)
    mean = spec.mean_count
    assert abs(counts.mean() - mean) < 3 * math.sqrt(mean / counts.size)


def test_circle_points_on_circle():
    spec = CircleHomogeneous(1.0, 3.0)
    f = sample(spec, 5)
    assert np.allclose(np.hypot(f.points[:, 0], f.points[:, 1]), 3.0)
    counts = _counts(spec, 4000)
    mean = spec.mean_count
    assert mean == pytest.approx(6 * math.pi)
    assert abs(counts.mean() - mean) < 3 * math.sqrt(mean / counts.size)


def test_gaussian_mean_square_radius():
    # Rayleigh(spread) radial law has second moment 2 spread^2
    spec = GaussianCluster(50.0, 1.0)
    pts = []
    seed = 0
    while sum(p.shape[0] for p in pts) < 100_000:
        pts.append(sample(spec, 9000 + seed).points)
        seed += 1
    r2 = np.concatenate([(p ** 2).sum(axis=1) for p in pts])
    assert r2.mean() == pytest.approx(2.0, abs=4 * r2.std() / math.sqrt(r2.size))


def test_annulus_uniform():
    spec = AnnulusUniform(2.0, 5.0, 5000)
    f = sample(spec, 3)
    assert f.n == 5000
    r = np.hypot(f.points[:, 0], f.points[:, 1])
    assert r.min() >= 2.0 and r.max() <= 5.0
    u = (r ** 2 - 4.0) / (25.0 - 4.0)
    assert stats.kstest(u, "uniform").pvalue > 0.01


def test_half_disc_sides_and_mean():
    right = sample_half_disc(1.0, 4.0, "right", 11)
    assert np.all(right.points[:, 0] >= 0)
    left = sample_half_disc(1.0, 4.0, "left", 11)
    assert np.all(left.points[:, 0] <= 0)
    counts = np.array([sample_half_disc(1.0, 4.0, "right", 500 + k).n
                       for k in range(10_000)])
    mean = 8.0 * math.pi
    assert abs(counts.mean() - mean) < 3 * math.sqrt(mean / counts.size)


def test_half_disc_union_matches_full_disc_best_metric():
    # min metric over left+right halves must follow the same law as the
    # full-disc field: two-sided independence of the split
    tau, lam, n, block = 6.0, 1.0, 100_000, 10_000
    full_spec = DiscHomogeneous(lam, tau)

    def best(points, per_trial):
        """Smallest metric of each run of ``per_trial`` fields (inf when all are empty)."""
        sizes = np.array([p.shape[0] for p in points]).reshape(-1, per_trial).sum(axis=1)
        xy = np.concatenate(points)
        return field_stats(xy[:, 0], xy[:, 1], np.concatenate(([0], np.cumsum(sizes))),
                           1.0).gamma_opt

    union_best, full_best = [], []
    for start in range(0, n, block):  # one reduction per side of each block of trials
        ks = range(start, start + block)
        union_best.append(best([sample_half_disc(lam, tau, side, 2 * k + j).points
                                for k in ks for j, side in enumerate(("left", "right"))], 2))
        full_best.append(best([sample(full_spec, 10_000_000 + k).points for k in ks], 1))
    a = np.sort(np.concatenate(union_best))
    b = np.sort(np.concatenate(full_best))
    grid = np.concatenate([a, b])
    ks = np.abs(np.searchsorted(a, grid, side="right") / n
                - np.searchsorted(b, grid, side="right") / n).max()
    assert ks < 0.02


@pytest.mark.parametrize("draw, digest", [
    (lambda: sample(DiscHomogeneous(2.0, 6.0), 20201),
     "deef2e5f687301677af584bc9360c6156bc3572bb22e0500c3959262df6c98cf"),
    (lambda: sample(DiscWithExclusion(2.0, 1.5, 6.0), 20201),
     "ee9fff3f5c3cbe23a2ed02daf4c68bdc963a70dd58fbd4e0d2708673c39fcc80"),
    (lambda: sample(CircleHomogeneous(2.0, 3.0), 20201),
     "4ec208be596e5c1ddadf580f5a8c3eb7e3389c2309417d2e22950f68ae4885dd"),
    (lambda: sample(GaussianCluster(200.0, 1.5), 20201),
     "89a25a36ec3ec60afd6655687f812ddb8085cdcc74720c60d62b3b5c02d7e77d"),
    (lambda: sample(AnnulusUniform(1.0, 6.0, 200), 20201),
     "f65612c777246d6fa9457f1dd705dfcf54f0d7e5752c5029ebb95b8636c3a41d"),
    (lambda: sample_half_disc(2.0, 6.0, "left", 20201),
     "47cad4b9f03cf52b3e646bf23eca57483424568d45e7a338a337804f45a6e716"),
    (lambda: sample_half_disc(2.0, 6.0, "right", 20201),
     "00412ebb625d288222ca9761c9c99fb2e75616f997cb414965a1351ca5e799f4"),
], ids=["disc", "exclusion", "ring", "gaussian", "annulus", "half-left", "half-right"])
def test_sampled_points_are_pinned(draw, digest):
    assert hashlib.sha256(draw().points.tobytes()).hexdigest() == digest


def test_an_empty_exclusion_zone_maps_uniforms_as_the_disc_does():
    disc = DiscHomogeneous(2.0, 6.0).draw_norm_sq(_generator(3), 1000)
    for spec in (DiscWithExclusion(2.0, 0.0, 6.0), AnnulusUniform(0.0, 6.0, 1000)):
        assert np.array_equal(spec.draw_norm_sq(_generator(3), 1000), disc)


def test_csv_dump(tmp_path):
    f = sample(DiscHomogeneous(1.0, 3.0), 42)
    path = tmp_path / "field.csv"
    f.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == f.n + 1
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(back, f.points)


def test_default_window_radius():
    assert default_window_radius(1.0, 1.0) == 6.0
    assert default_window_radius(0.25, 0.5) == 12.0


def test_sampled_points_are_read_only():
    for f in (sample(DiscHomogeneous(1.0, 3.0), 5), sample_half_disc(1.0, 3.0, "left", 5)):
        with pytest.raises(ValueError):
            f.points[0, 0] = 0.0


def test_fields_compare_by_identity_and_hash():
    spec = DiscHomogeneous(1.0, 3.0)
    a, b = sample(spec, 1), sample(spec, 1)
    assert a.n > 1 and np.array_equal(a.points, b.points)
    assert a == a and a != b
    assert {a, b, a} == {a, b}


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_sample_draws_the_stream_of_a_fresh_philox(seed):
    spec = GaussianCluster(30.0, 1.5)
    sample(spec, 12345)  # the stream must not carry over from an earlier call
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n = spec.draw_count(rng)
    radii = np.sqrt(spec.draw_norm_sq(rng, n))
    angles = 2.0 * math.pi * rng.random(n)
    want = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    assert np.array_equal(sample(spec, seed).points, want)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, None])
def test_sample_rejects_the_seeds_uint64_rejects(seed):
    with pytest.raises(Exception) as want:
        np.uint64(seed)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        sample(DiscHomogeneous(1.0, 3.0), seed)


def test_threads_sampling_interleaved_seeds_match_sequential_calls():
    meet = threading.Barrier(2, timeout=30)

    class Meeting(DiscHomogeneous):
        """Holds each thread inside ``sample``, between its count and its norms,
        until the other thread gets there too."""

        def draw_norm_sq(self, rng, n):
            meet.wait()
            return super().draw_norm_sq(rng, n)

    seeds = (range(0, 60, 2), range(1, 60, 2))
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(lambda ss: [sample(Meeting(1.0, 4.0), s).points for s in ss], ss)
                for ss in seeds]
        got = [run.result() for run in runs]
    for ss, points in zip(seeds, got):
        for s, p in zip(ss, points, strict=True):
            assert np.array_equal(p, sample(DiscHomogeneous(1.0, 4.0), s).points)
