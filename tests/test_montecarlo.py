import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from relaysim import distributions as dist
from relaysim import metrics, montecarlo
from relaysim.errors import ParameterError
from relaysim.montecarlo import (MonteCarloConfig, TrialBatch, _poisson_chi2, batch_to_csv,
                                 empirical_cdf, feedback_counts, ks_statistic, run_trials)


def test_reproducibility_bytes(tmp_path):
    cfg = MonteCarloConfig(1.0, 1.0, threshold=2.0)
    a = run_trials(cfg, 2_000, 7)
    b = run_trials(cfg, 2_000, 7)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    batch_to_csv(a, pa)
    batch_to_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    c = run_trials(cfg, 2_000, 8)
    pc = tmp_path / "c.csv"
    batch_to_csv(c, pc)
    assert pa.read_bytes() != pc.read_bytes()


def test_batch_csv_layout(tmp_path):
    cfg = MonteCarloConfig(0.5, 1.0, threshold=3.0)
    batch = run_trials(cfg, 50, 3)
    path = tmp_path / "batch.csv"
    batch_to_csv(batch, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("trial,n_points,gamma_opt")
    assert len(lines) == 51


def test_config_validation():
    with pytest.raises(ParameterError):
        MonteCarloConfig(0.0, 1.0)
    with pytest.raises(ParameterError):
        MonteCarloConfig(1.0, 1.0, threshold=-1.0)
    for scales in ((math.inf, 1.0), (1.0, math.inf)):  # gamma_diff would be inf in every trial
        with pytest.raises(ParameterError):
            MonteCarloConfig(1.0, 1.0, scale_source=scales[0], scale_destination=scales[1])
    with pytest.raises(ParameterError):
        run_trials(MonteCarloConfig(1.0, 1.0), 0, 1)
    cfg = MonteCarloConfig(1.0, 1.0)
    assert cfg.window_radius == 6.0  # default max(6d, 6/sqrt(lambda))


def test_empirical_probability_anchor():
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 100_000, 42)
    target = dist.best_cqi_cdf(math.sqrt(2.0), 1.0, 1.0)
    emp = float(np.mean(batch.gamma_opt <= math.sqrt(2.0)))
    assert abs(emp - target) < 3 * math.sqrt(target * (1 - target) / batch.n_trials)
    # mid-point optimality and sufficiency frequencies track their analytics
    p_mid = dist.prob_midpoint_optimal(1.0, 1.0)
    assert abs(batch.mid_is_opt.mean() - p_mid) < \
        3 * math.sqrt(p_mid * (1 - p_mid) / batch.n_trials)
    p_suff = dist.prob_sufficient(1.0, 1.0)
    assert abs(batch.sufficient.mean() - p_suff) < \
        3 * math.sqrt(p_suff * (1 - p_suff) / batch.n_trials)
    # sufficiency certificate never fires without mid == opt agreeing
    assert not np.any(batch.sufficient & ~batch.mid_is_opt)


def test_mean_gamma_matches_analytic():
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 100_000, 11)
    se = batch.gamma_opt.std() / math.sqrt(batch.n_trials)
    assert abs(batch.gamma_opt.mean() - dist.best_cqi_mean(1.0, 1.0)) < 3 * se


def test_ks_statistic_degenerate_is_zero():
    samples = np.array([0.5, 1.0, 2.0, 2.0, 3.5])
    assert ks_statistic(samples, lambda x: empirical_cdf(samples, x)) == 0.0


def test_ks_statistic_detects_mismatch():
    rng = np.random.default_rng(0)
    samples = rng.uniform(0, 1, 5_000)
    assert ks_statistic(samples, lambda x: np.clip(x, 0, 1)) < 0.03
    assert ks_statistic(samples, lambda x: np.clip(x, 0, 1) ** 2) > 0.2


@pytest.mark.parametrize("samples", [[], [math.nan, 1.0], [0.5, math.nan, math.inf]],
                         ids=["empty", "nan", "nan-and-inf"])
def test_empirical_laws_reject_empty_and_nan_samples(samples):
    """An empty sample would read 0/0 = NaN, and a NaN sample sorts above +inf,
    where it would count as mass at +inf: ks([nan, 1], uniform) would read 0.5."""
    with pytest.raises(ParameterError):
        empirical_cdf(np.array(samples), [0.5])
    with pytest.raises(ParameterError):
        ks_statistic(np.array(samples), lambda x: np.clip(x, 0.0, 1.0))
    with pytest.raises(ParameterError):
        _poisson_chi2(np.array(samples), 1.0)


@pytest.mark.parametrize("samples, mean", [([1, 2], math.nan), ([1, 2], -1.0),
                                           ([1, 2], math.inf), ([1, -1], 1.0),
                                           ([1.0, 2.5], 1.0)],
                         ids=["nan-mean", "negative-mean", "infinite-mean",
                              "negative-count", "fractional-count"])
def test_poisson_chi2_rejects_what_has_no_poisson_fit(samples, mean):
    """A NaN or negative mean would read a NaN p-value, which no bound rejects."""
    with pytest.raises(ParameterError):
        _poisson_chi2(np.array(samples), mean)


def test_compare_gamma_quantities():
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 30_000, 100)
    ks = ks_statistic(batch.gamma_opt, dist.best_cqi_law(1.0, 1.0).cdf)
    # the 99% two-sided band 1.63/sqrt(n)
    assert 0.0 <= ks < 1.63 / math.sqrt(batch.n_trials)
    assert ks < 0.02


def test_compare_feedback_counts_poisson():
    lam, t = 0.5, 3.0
    n_fb = feedback_counts(MonteCarloConfig(lam, 1.0, threshold=t), 100_000, 2024)
    mu = metrics.mean_feedback_load(t, lam, 1.0)
    assert _poisson_chi2(n_fb, mu) > 0.01
    assert ks_statistic(n_fb, lambda x: stats.poisson.cdf(x, mu)) < 0.01


def test_feedback_report_equals_scipy_stats_values():
    mu = 1.7
    s = feedback_counts(MonteCarloConfig(0.5, 1.0, threshold=2.0), 3_000, 11)
    n = s.size
    k = np.arange(s.max() + 1)
    srt = np.sort(s)
    ks = np.max(np.abs(np.searchsorted(srt, srt, side="right") / n
                       - stats.poisson.cdf(srt, mu)))
    assert ks_statistic(s, lambda x: stats.poisson.cdf(x, mu)) == ks
    # left-to-right pooling of the cells (tail included) until each expects 5 counts
    cells = zip(np.append(np.bincount(s), 0.0),
                n * np.append(stats.poisson.pmf(k, mu), stats.poisson.sf(k[-1], mu)))
    bins, o_acc, e_acc = [], 0.0, 0.0
    for o, e in cells:
        o_acc, e_acc = o_acc + o, e_acc + e
        if e_acc >= 5.0:
            bins.append([o_acc, e_acc])
            o_acc = e_acc = 0.0
    bins[-1][0] += o_acc
    bins[-1][1] += e_acc
    obs, exp = np.array(bins).T
    chi2 = np.sum((obs - exp) ** 2 / exp)
    assert len(bins) > 2
    assert _poisson_chi2(s, mu) == float(stats.chi2.sf(chi2, len(bins) - 1))


def test_threshold_conditional_law_truncates():
    # given at least one reporter, the best metric follows the unconditional
    # law truncated to [d, T]
    lam, t = 1.0, 2.0
    batch = run_trials(MonteCarloConfig(lam, 1.0, threshold=t), 60_000, 31)
    reported = batch.gamma_opt[batch.n_feedback >= 1]
    assert reported.max() <= t
    cap = dist.best_cqi_cdf(t, lam, 1.0)

    def cdf(x):
        return np.clip(dist.best_cqi_cdf(x, lam, 1.0) / cap, 0.0, 1.0)

    assert ks_statistic(reported, cdf) < 0.01


@pytest.mark.parametrize("seed", [5, 6])
def test_closest_to_source_follows_the_reflected_law(seed):
    """Reflecting a field through the bisector of source and destination swaps
    them, so the relay closest to the source follows the closest-to-destination law."""
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 30_000, seed)
    law = dist.closest_to_destination_cqi_law(1.0, 1.0)
    assert ks_statistic(batch.gamma_csrc, law.cdf) < 1.63 / math.sqrt(batch.n_trials)


@pytest.mark.parametrize("c", [2.0, 0.5, 1024.0])
@pytest.mark.parametrize("lam, d, threshold, scales", [
    (1.0, 1.0, None, (1.0, 1.0)), (0.5, 1.0, 2.5, (1.0, 1.4)), (2.0, 0.7, 1.9, (1.3, 1.0))],
    ids=["plain", "threshold-unequal-snr", "unequal-snr-threshold"])
def test_run_trials_scales_exactly_at_powers_of_two(lam, d, threshold, scales, c):
    """Shrinking every length by a power of two c (intensity times c^2) draws the
    same counts and shrinks every recorded metric by exactly 1/c."""
    base = run_trials(MonteCarloConfig(lam, d, threshold=threshold, scale_source=scales[0],
                                       scale_destination=scales[1]), 2_000, 3)
    scaled = run_trials(MonteCarloConfig(lam * c * c, d / c,
                                         threshold=None if threshold is None else threshold / c,
                                         scale_source=scales[0], scale_destination=scales[1]),
                        2_000, 3)
    for name in ("counts", "n_feedback", "sufficient", "mid_is_opt"):
        assert np.array_equal(getattr(scaled, name), getattr(base, name)), name
    for name in montecarlo._FLOATS:
        assert np.array_equal(getattr(scaled, name), getattr(base, name) / c), name


def test_rate_estimates_converge_to_average_rate():
    from relaysim.model import Fading, PathLoss, snr_from_db
    pl = PathLoss.power_law(4.0)
    snr = snr_from_db(5.0)
    batch = run_trials(MonteCarloConfig(2.0, 1.0), 30_000, 77)
    rates = 0.5 * np.log2(1.0 + snr * pl.gain(batch.gamma_opt))
    ana = metrics.average_rate_optimum(2.0, 1.0, snr, pl, Fading.NONE).value
    se = rates.std() / math.sqrt(rates.size)
    assert abs(rates.mean() - ana) < 3 * se


def test_trialbatch_fields_shape():
    batch = run_trials(MonteCarloConfig(1.0, 1.0, threshold=1.5,
                                        scale_source=1.0, scale_destination=1.3),
                       500, 0)
    assert isinstance(batch, TrialBatch)
    for name in ("counts", "gamma_opt", "gamma_mid", "gamma_c2d", "gamma_csrc",
                 "gamma_diff", "psi_mid", "psi_second", "n_feedback",
                 "sufficient", "mid_is_opt"):
        assert getattr(batch, name).shape == (500,)
    assert np.all(batch.gamma_opt <= batch.gamma_mid + 1e-12)
    assert np.all(batch.gamma_opt >= 1.0)
    assert np.all(batch.n_feedback <= batch.counts)


_BATCH_FIELDS = ("counts", "gamma_opt", "gamma_mid", "gamma_c2d", "gamma_csrc",
                 "gamma_diff", "psi_mid", "psi_second", "n_feedback",
                 "sufficient", "mid_is_opt")


@pytest.mark.parametrize("config", [
    MonteCarloConfig(1.0, 1.0, threshold=2.0),
    MonteCarloConfig(1.0, 1.0, threshold=0.0),
    MonteCarloConfig(1.0, 1.0, threshold=math.inf),
    MonteCarloConfig(0.5, 1.0, scale_source=1.7, scale_destination=0.6),
    MonteCarloConfig(0.02, 1.0, window_radius=3.0),  # most fields empty
], ids=["threshold", "threshold-0", "threshold-inf", "unequal-snr", "mostly-empty"])
def test_run_trials_identical_for_every_chunk_budget(config, monkeypatch):
    """Every batch field, and ``feedback_counts``, match those of one chunk."""
    kernel = montecarlo.disc_batch_stats
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "disc_batch_stats", counted)
    monkeypatch.setattr(montecarlo, "_CHUNK_POINTS", 1 << 40)
    whole = run_trials(config, 400, 9)
    assert len(calls) == 1
    assert np.array_equal(feedback_counts(config, 400, 9), whole.n_feedback)
    if config.intensity < 0.1:
        assert np.mean(whole.counts == 0) > 0.5
    # 1 and 50 points are below most non-empty trials, which then get a chunk each;
    # 2^16 points hold the whole batch, so 7 trials a chunk set its chunks
    for budget, trials in ((1, 1 << 14), (50, 1 << 14), (int(whole.counts.sum()) // 3, 1 << 14),
                           (1 << 16, 7)):
        monkeypatch.setattr(montecarlo, "_CHUNK_POINTS", budget)
        monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", trials)
        calls.clear()
        batch = run_trials(config, 400, 9)
        assert len(calls) > 1 and sum(calls) == whole.counts.sum()
        if budget == 1 << 16:
            assert len(calls) == -(-400 // trials)
        for name in _BATCH_FIELDS:
            assert np.array_equal(getattr(batch, name), getattr(whole, name)), (budget, name)
        assert np.array_equal(feedback_counts(config, 400, 9), whole.n_feedback), budget


def test_run_trials_memory_is_bounded_by_the_chunk():
    # 10k trials of about 314 points each: 3.1M points, 25 MB per float64 array
    tracemalloc.start()
    try:
        batch = run_trials(MonteCarloConfig(1.0, 1.0, window_radius=10.0), 10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.counts.sum() > 3_000_000
    assert peak < 32 * 2**20


def test_trial_memory_is_bounded_per_trial():
    """run_trials holds each per-trial result once, and batch_to_csv one row
    block, whatever the number of trials."""
    config = MonteCarloConfig(0.1, 1.0, window_radius=1.5)  # 0.7 relays a field
    # a chunk of these fields holds at most 2^14 trials and fewer points; its draws
    # and kernel temporaries take about 50 B a point and 300 B a trial: 8 MB
    # (2^14 x 512 B) whatever the chunk budgets
    chunk_budget = 8 * 2**20
    writer_peaks = []
    tracemalloc.start()
    try:
        for n_trials in (100_000, 400_000):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batch = run_trials(config, n_trials, 1)
            nbytes = sum(getattr(batch, name).nbytes for name in _BATCH_FIELDS)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < 1.5 * nbytes + chunk_budget, (n_trials, peak, nbytes)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            batch_to_csv(batch, os.devnull)
            writer_peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert abs(writer_peaks[1] - writer_peaks[0]) < 2**20, writer_peaks


# SHA-256 of the trial CSV of 3000 trials at seed 11, recorded before the disc
# kernel pruned its candidates: every kernel statistic and the row format.
@pytest.mark.parametrize("config, digest", [
    (MonteCarloConfig(1.0, 1.0),
     "3fe4e1f5781df0c45526b3e70ba882b09e476f90e9dade2e09645564ce5434d9"),
    (MonteCarloConfig(1.0, 1.0, threshold=2.5),
     "a75b58eabc06344f1fdfac59ee41b5525f6c7e90d752e6fcc47ae58d1690c1b6"),
    (MonteCarloConfig(1.0, 1.0, scale_source=1.0, scale_destination=1.4),
     "ad8302bbb9930dc90eb69756b0614978f4f7424f61d45f12105489b3c33fe084"),
    (MonteCarloConfig(0.1, 1.0, window_radius=1.5),  # about half the trials empty
     "917c03b54d9dce16eb36ecd4835790788444d437824df07f54f95b96a5d1ad5e"),
], ids=["no-threshold", "threshold", "unequal-snr", "mostly-empty"])
def test_batch_csv_bytes_are_pinned(config, digest, tmp_path, monkeypatch):
    path = tmp_path / "batch.csv"
    batch = run_trials(config, 3000, 11)
    for rows in (1, 7, 4096):  # row blocks of one row, with a remainder, and all rows in one
        monkeypatch.setattr(montecarlo, "_CSV_ROWS", rows)
        batch_to_csv(batch, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, rows
