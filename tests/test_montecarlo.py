import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from relaysim import distributions as dist
from relaysim import metrics, montecarlo
from relaysim.errors import ParameterError
from relaysim.montecarlo import (ComparisonReport, MonteCarloConfig, TrialBatch,
                                 batch_to_csv, compare_to_analytic, empirical_cdf,
                                 feedback_counts, ks_statistic, run_trials)


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


def test_compare_gamma_quantities():
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 30_000, 100)
    rep = compare_to_analytic(batch, dist.best_cqi_law(1.0, 1.0), "gamma_opt")
    assert isinstance(rep, ComparisonReport)
    # acceptance band defaults to the 99% level 1.63/sqrt(n)
    assert rep.ks_threshold == pytest.approx(1.63 / math.sqrt(30_000))
    assert rep.ks_pass
    assert 0.0 <= rep.ks_statistic < 0.02
    assert 0.0 <= rep.chi2_pvalue <= 1.0
    assert rep.chi2_pvalue > 0.001
    assert rep.mean_abs_error < 0.01
    assert len(rep.grid) == 33
    xs = [g[0] for g in rep.grid]
    assert xs == sorted(xs)
    with pytest.raises(ParameterError):
        compare_to_analytic(batch, dist.best_cqi_law(1.0, 1.0), "nonsense")


def test_compare_feedback_counts_poisson():
    lam, t = 0.5, 3.0
    batch = run_trials(MonteCarloConfig(lam, 1.0, threshold=t), 100_000, 2024)
    mu = metrics.mean_feedback_load(t, lam, 1.0)
    rep = compare_to_analytic(batch, mu, "n_feedback")
    assert rep.chi2_pvalue > 0.01
    assert rep.ks_statistic < 0.01


def test_feedback_report_equals_scipy_stats_values():
    mu = 1.7
    batch = run_trials(MonteCarloConfig(0.5, 1.0, threshold=2.0), 3_000, 11)
    rep = compare_to_analytic(batch, mu, "n_feedback")
    s = batch.n_feedback
    n = s.size
    k = np.arange(s.max() + 1)
    srt = np.sort(s)
    ks = np.max(np.abs(np.searchsorted(srt, srt, side="right") / n
                       - stats.poisson.cdf(srt, mu)))
    assert rep.ks_statistic == ks
    ana = stats.poisson.cdf(k, mu)
    emp = (s[:, None] <= k).sum(axis=0) / n
    assert rep.grid == [(float(x), float(a), float(e)) for x, a, e in zip(k, ana, emp)]
    assert rep.mean_abs_error == float(np.mean(np.abs(ana - emp)))
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
    assert rep.chi2_pvalue == float(stats.chi2.sf(chi2, len(bins) - 1))


def test_metric_report_pvalue_equals_scipy_stats_value():
    law = dist.best_cqi_law(1.0, 1.0)
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 3_000, 12)
    rep = compare_to_analytic(batch, law, "gamma_opt")
    s = batch.gamma_opt
    finite = np.sort(s[np.isfinite(s)])
    edges = np.quantile(finite, np.linspace(0.0, 1.0, 21))[1:-1]
    observed = np.diff(np.concatenate(
        ([0], np.searchsorted(finite, edges, side="right"), [s.size])))
    expected = s.size * np.diff(np.concatenate(([0.0], law.cdf(edges), [1.0])))
    chi2 = np.sum((observed - expected) ** 2 / expected)
    assert rep.chi2_pvalue == float(stats.chi2.sf(chi2, 19))


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
    # 1 and 50 points are below most non-empty trials, which then get a chunk each
    for budget in (1, 50, int(whole.counts.sum()) // 3):
        monkeypatch.setattr(montecarlo, "_CHUNK_POINTS", budget)
        calls.clear()
        batch = run_trials(config, 400, 9)
        assert len(calls) > 1 and sum(calls) == whole.counts.sum()
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
def test_batch_csv_bytes_are_pinned(config, digest, tmp_path):
    path = tmp_path / "batch.csv"
    batch_to_csv(run_trials(config, 3000, 11), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
