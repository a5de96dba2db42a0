"""Named experiments: analytic curves next to seeded simulation estimates.

Every experiment emits rows of (x, series, analytic, simulated, stderr); the
CLI writes them as one CSV per experiment. Grid point k of an experiment
seeds its trial batch with ``seed + k``, so outputs are byte-stable for a
fixed config and seed.

The stderr column depends on what the row simulates. For a frequency (a
probability, or a cdf or pmf value) it is the binomial sqrt(a(1 - a)/n) at
the analytic value a: the spread the frequency has if the law holds, so a
batch frequency of exactly 0 or 1 does not make it zero. For a mean (a
feedback load, a rate) it is the sample standard error, and inf when the
sample holds an infinite value.

The four rate experiments (outage-and-rate, rate-feedback, outage-feedback,
fixed-load) build their rows from one sweep per config, ``_rate_sims``: one
trial batch per intensity, reduced to the numbers the rows print and freed
before the next is drawn. The sweep is memoised on the whole config, so the
four draw each batch once between them in one process, also across
``cli.main`` calls; it holds O(grid) numbers and no per-trial array. A
process that runs a single one of them pays the whole sweep.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from . import metrics
from .errors import ParameterError
from .model import Fading, LinkBudget, PathLoss, leg_distances, snr_from_db
from .montecarlo import MonteCarloConfig, empirical_cdf, feedback_counts, run_trials
from .numerics import poisson_pmf, poisson_ppf
from .pointprocess import AnnulusUniform, sample

__all__ = ["ExperimentConfig", "EXPERIMENTS", "run_experiment", "describe_experiments"]

_HEADER = ("x", "series", "analytic", "simulated", "stderr")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs; each experiment reads the subset it needs.

    Each knob takes the shape of its default: a non-negative integer
    (``seed`` below 2^64), a finite real number, a non-empty tuple of finite
    numbers (a lone number is a 1-tuple) or a non-empty tuple of finite number
    pairs. A value of another shape, bools and strings included, raises
    ``ParameterError``.
    """

    n_trials: int = 20000
    seed: int = 7041776
    lambdas: tuple = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    half_distance: float = 1.0
    half_distances: tuple = (0.5, 1.0)
    alpha: float = 4.0
    snr_db: float = 5.0
    rho: float = 0.5
    rho_feedback: float = 0.3
    thresholds: tuple = (1.1, 1.25, 1.5, 2.0)
    taus: tuple = (1.5, 2.0, 3.0, 5.0, 10.0)
    nfb_lambdas: tuple = (0.5, 1.0)
    nfb_threshold: float = 3.0
    feedback_lambdas: tuple = (0.5, 1.0, 2.0, 4.0)
    feedback_load: float = 5.0
    annulus_cases: tuple = ((10.0, 2.0), (20.0, 2.0), (10.0, 5.0), (20.0, 5.0))
    diff_snr_db_pairs: tuple = ((5.0, 5.0), (5.0, 10.0), (10.0, 5.0))
    diff_half_distance: float = 0.5
    diff_intensity: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _knob(f.name, getattr(self, f.name), f.default))

    def path_loss(self) -> PathLoss:
        return PathLoss.power_law(self.alpha)

    def snr(self) -> float:
        return snr_from_db(self.snr_db)


_SEED_END = 1 << 64  # Philox takes the seed as a uint64 key


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite number a float holds: NaN, inf and larger ints fail downstream."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_pair(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and all(map(_is_real, v))


def _knob(name: str, value, default):
    """``value`` in the shape of the knob's ``default``, or ``ParameterError``."""
    if _is_int(default):
        if not (_is_int(value) and value >= 0):
            raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")
        if name == "seed" and value >= _SEED_END:
            raise ParameterError(f"seed must be below 2^64, got {value!r}")
        return int(value)
    if _is_real(default):
        if not _is_real(value):
            raise ParameterError(f"{name} must be a finite real number, got {value!r}")
        return value
    is_item = _is_pair if isinstance(default[0], tuple) else _is_real
    if is_item is _is_real and _is_real(value):
        value = (value,)
    if not (isinstance(value, tuple) and value and all(map(is_item, value))):
        shape = "finite numbers" if is_item is _is_real else "finite number pairs"
        raise ParameterError(f"{name} must be a non-empty tuple of {shape}, got {value!r}")
    return value


def _seeded(cfg: ExperimentConfig, grid):
    """(seed, point) for each grid point in order: point k seeds the config's seed plus k."""
    grid = list(grid)
    if cfg.seed + len(grid) > _SEED_END:
        raise ParameterError(f"seed {cfg.seed} runs past 2^64 over {len(grid)} grid points")
    return zip(itertools.count(cfg.seed), grid)


def _freq_row(x, series, analytic, freq, n):
    """A simulated frequency out of n trials; stderr is binomial at the analytic value."""
    return (float(x), series, float(analytic), float(freq),
            math.sqrt(max(analytic * (1.0 - analytic), 0.0) / n))


def _mean_se(values) -> tuple:
    """Sample mean and its standard error; the standard error of a sample
    holding an infinite value (a rate at an infinite SNR) is inf."""
    v = np.asarray(values, dtype=float)
    if np.isinf(v).any():
        return float(np.mean(v)), math.inf
    return float(np.mean(v)), float(np.std(v) / math.sqrt(v.size))


def _mean_row(x, series, analytic, values):
    """A simulated sample mean, with its standard error."""
    return (float(x), series, float(analytic), *_mean_se(values))


def _freq_rows(grid, series, analytic, freqs, n):
    """One frequency row per grid point (empirical cdfs and pmfs)."""
    return [_freq_row(x, series, a, f, n) for x, a, f in zip(grid, analytic, freqs)]


def _exp_midpoint_optimality(cfg: ExperimentConfig):
    rows = []
    for seed, (d, lam) in _seeded(cfg, itertools.product(cfg.half_distances, cfg.lambdas)):
        batch = run_trials(MonteCarloConfig(lam, d), cfg.n_trials, seed)
        rows.append(_freq_row(lam, f"sufficient d={d:g}", dist.prob_sufficient(lam, d),
                              np.mean(batch.sufficient), cfg.n_trials))
        rows.append(_freq_row(lam, f"mid-optimal d={d:g}", dist.prob_midpoint_optimal(lam, d),
                              np.mean(batch.mid_is_opt), cfg.n_trials))
    return rows


def _exp_finite_convergence(cfg: ExperimentConfig):
    d = cfg.half_distance
    lam = 1.0
    gammas = np.linspace(d, d + 2.5, 101)
    rows = []
    for seed, tau in _seeded(cfg, cfg.taus):
        batch = run_trials(MonteCarloConfig(lam, d, window_radius=tau), cfg.n_trials, seed)
        # empty windows record inf, which counts as beyond every grid point
        rows += _freq_rows(gammas, f"tau={tau:g}", dist.best_cqi_cdf_finite(gammas, lam, d, tau),
                           empirical_cdf(batch.gamma_opt, gammas), cfg.n_trials)
    limit = dist.best_cqi_cdf(gammas, lam, d)
    rows.extend((x, "limit", a, None, None) for x, a in zip(gammas, limit))
    return rows


def _exp_nfb_distribution(cfg: ExperimentConfig):
    d = cfg.half_distance
    t = cfg.nfb_threshold
    rows = []
    for seed, lam in _seeded(cfg, cfg.nfb_lambdas):
        mu = metrics.mean_feedback_load(t, lam, d)
        nfb = feedback_counts(MonteCarloConfig(lam, d, threshold=t), cfg.n_trials, seed)
        kmax = max(int(nfb.max()), int(poisson_ppf(0.9999, mu)))
        counts = np.arange(kmax + 1)
        freqs = np.bincount(nfb, minlength=counts.size) / cfg.n_trials
        rows += _freq_rows(counts, f"lambda={lam:g}", poisson_pmf(counts, mu), freqs,
                           cfg.n_trials)
    return rows


def _exp_feedback_load(cfg: ExperimentConfig):
    d = cfg.half_distance
    rows = []
    grid = itertools.product(cfg.feedback_lambdas, np.linspace(d, 4.0 * d, 25))
    for seed, (lam, t) in _seeded(cfg, grid):
        mu = metrics.mean_feedback_load(float(t), lam, d)
        nfb = feedback_counts(MonteCarloConfig(lam, d, threshold=float(t)), cfg.n_trials, seed)
        rows.append(_mean_row(t, f"load lambda={lam:g}", mu, nfb))
        rows.append(_freq_row(t, f"p-any-feedback lambda={lam:g}", -math.expm1(-mu),
                              np.mean(nfb >= 1), cfg.n_trials))
    return rows


def _rates(cfg: ExperimentConfig, gamma, fading: Fading) -> np.ndarray:
    return metrics.conditional_rate(gamma, cfg.snr(), cfg.path_loss(), fading).value


class _RateSim(NamedTuple):
    """The simulated numbers the rate experiments print for one (intensity, fading).

    Each statistic is (mean, stderr, outage frequency) of per-trial rates:
    ``policies`` maps each policy of ``dist.POLICY_LAWS`` to those of its rate
    against ``rho``; ``gated`` maps each threshold t to those of the optimum
    rate gated at t against ``rho_feedback``. A trial whose best metric misses
    t gets rate 0; t = inf is all feedback, which leaves the rate unchanged,
    since an empty field already has rate 0.
    """

    lam: float
    fading: Fading
    t_load: float  # the threshold whose mean feedback load is ``feedback_load``
    policies: Mapping  # read-only: every caller of the memo shares it
    gated: Mapping


def _rate_stats(rates: np.ndarray, rho: float) -> tuple:
    """(mean, stderr, P(rate <= rho)) of per-trial rates."""
    return (*_mean_se(rates), float(np.mean(rates <= rho)))


def _intensity_sims(cfg: ExperimentConfig, lam, seed) -> list:
    """One intensity's trial batch, reduced to a _RateSim per fading; the
    batch is freed on return."""
    t_load = metrics.threshold_for_load(cfg.feedback_load, lam, cfg.half_distance)
    batch = run_trials(MonteCarloConfig(lam, cfg.half_distance), cfg.n_trials, seed)
    sims = []
    for fading in (Fading.NONE, Fading.RAYLEIGH):
        # per-trial rates of each policy of dist.POLICY_LAWS, in its order
        opt, mid, c2d = (_rates(cfg, g, fading)
                         for g in (batch.gamma_opt, batch.gamma_mid, batch.gamma_c2d))
        policies = {policy: _rate_stats(rates, cfg.rho)
                    for policy, rates in zip(dist.POLICY_LAWS, (opt, mid, c2d), strict=True)}
        gated = {t: _rate_stats(np.where(batch.gamma_opt <= t, opt, 0.0), cfg.rho_feedback)
                 for t in (*cfg.thresholds, t_load, math.inf)}
        sims.append(_RateSim(lam, fading, t_load, MappingProxyType(policies),
                             MappingProxyType(gated)))
    return sims


@functools.lru_cache(maxsize=1)
def _rate_sims(cfg: ExperimentConfig) -> tuple:
    """The simulated side of the four rate experiments, one _RateSim per
    (intensity, fading) in row order.

    Memoised on the whole config, so the four experiments of one config draw
    the intensities' batches once between them, also across ``cli.main``
    calls in one process. It holds O(grid) numbers and no per-trial array.
    """
    return tuple(sim for seed, lam in _seeded(cfg, cfg.lambdas)
                 for sim in _intensity_sims(cfg, lam, seed))


def _feedback_rate_row(cfg: ExperimentConfig, sim: _RateSim, t, series):
    """Average rate of threshold feedback at t; t = inf is all feedback."""
    d, snr, pl = cfg.half_distance, cfg.snr(), cfg.path_loss()
    ana = metrics.average_rate_feedback(t, sim.lam, d, snr, pl, sim.fading).value
    return (float(sim.lam), series, float(ana), *sim.gated[t][:2])


def _feedback_outage_row(cfg: ExperimentConfig, sim: _RateSim, t, series):
    """Outage of threshold feedback at t against ``rho_feedback``; t = inf is all feedback."""
    d, snr, pl, rho = cfg.half_distance, cfg.snr(), cfg.path_loss(), cfg.rho_feedback
    ana = metrics.outage_feedback(t, rho, sim.lam, d, snr, pl, sim.fading)[0]
    return _freq_row(sim.lam, series, ana, sim.gated[t][2], cfg.n_trials)


def _exp_outage_and_rate(cfg: ExperimentConfig):
    d = cfg.half_distance
    snr, pl = cfg.snr(), cfg.path_loss()
    rows = []
    for sim in _rate_sims(cfg):
        for policy, (mean, se, freq) in sim.policies.items():
            law = dist.policy_law(policy, sim.lam, d)
            tag = f"{policy}/{sim.fading.value}"
            rows.append(_freq_row(sim.lam, f"outage {tag}",
                                  metrics.outage_for_law(law, cfg.rho, snr, pl, sim.fading),
                                  freq, cfg.n_trials))
            rows.append((float(sim.lam), f"rate {tag}",
                         float(metrics.average_rate(law, snr, pl, sim.fading).value), mean, se))
    return rows


def _threshold_rows(cfg: ExperimentConfig, row):
    """``row`` at every configured threshold, then at t = inf (all feedback)."""
    return [row(cfg, sim, t, f"all-feedback/{sim.fading.value}" if math.isinf(t)
                else f"T={t:g}/{sim.fading.value}")
            for sim in _rate_sims(cfg) for t in (*cfg.thresholds, math.inf)]


def _exp_rate_feedback(cfg: ExperimentConfig):
    return _threshold_rows(cfg, _feedback_rate_row)


def _exp_outage_feedback(cfg: ExperimentConfig):
    return _threshold_rows(cfg, _feedback_outage_row)


def _exp_fixed_load(cfg: ExperimentConfig):
    rows = []
    for sim in _rate_sims(cfg):
        cases = ((sim.t_load, "selective"), (math.inf, "all-feedback"))
        rows += [_feedback_rate_row(cfg, sim, t, f"rate {name}/{sim.fading.value}")
                 for t, name in cases]
        rows += [_feedback_outage_row(cfg, sim, t, f"outage {name}/{sim.fading.value}")
                 for t, name in cases]
    return rows


def _exp_annulus_ccdf(cfg: ExperimentConfig):
    d = cfg.half_distance
    rows = []
    for seed, (tau, psi) in _seeded(cfg, cfg.annulus_cases):
        pts = sample(AnnulusUniform(psi, tau, cfg.n_trials), seed).points
        s = np.maximum(*leg_distances(pts[:, 0], pts[:, 1], d))
        grid = np.linspace(math.hypot(psi, d) * 0.98, tau + d, 101)
        rows += _freq_rows(grid, f"tau={tau:g} psi={psi:g}",
                           dist.annulus_metric_ccdf(grid, psi, tau, d),
                           1.0 - empirical_cdf(s, grid), cfg.n_trials)
    return rows


def _exp_diff_snr_cdf(cfg: ExperimentConfig):
    d = cfg.diff_half_distance
    lam = cfg.diff_intensity
    rows = []
    for seed, (db1, db2) in _seeded(cfg, cfg.diff_snr_db_pairs):
        budget = LinkBudget(snr=snr_from_db(cfg.snr_db), snr_relay=snr_from_db(db1),
                            snr_destination=snr_from_db(db2))
        s1, s2 = budget.effective_scales(cfg.alpha)
        law = dist.unequal_snr_cqi_law(lam, d, s1, s2)
        grid = np.linspace(law.support_min * 0.95, law.quantile(0.999), 101)
        batch = run_trials(MonteCarloConfig(lam, d, scale_source=s1, scale_destination=s2),
                           cfg.n_trials, seed)
        rows += _freq_rows(grid, f"snr1={db1:g}dB snr2={db2:g}dB", law.cdf(grid),
                           empirical_cdf(batch.gamma_diff, grid), cfg.n_trials)
    return rows


EXPERIMENTS = {
    "midpoint-optimality": (
        _exp_midpoint_optimality,
        "sufficiency and mid-point-optimality probabilities vs intensity"),
    "finite-convergence": (
        _exp_finite_convergence,
        "finite-window best-CQI cdf converging to the unbounded law"),
    "nfb-distribution": (
        _exp_nfb_distribution,
        "feedback-count pmf vs the Poisson law with the analytic mean"),
    "feedback-load": (
        _exp_feedback_load,
        "mean feedback load and P(any feedback) vs threshold"),
    "outage-and-rate": (
        _exp_outage_and_rate,
        "outage and average rate vs intensity for the three policies"),
    "rate-feedback": (
        _exp_rate_feedback,
        "average rate of threshold feedback vs intensity"),
    "outage-feedback": (
        _exp_outage_feedback,
        "outage of threshold feedback vs intensity"),
    "fixed-load": (
        _exp_fixed_load,
        "rate and outage at a constant mean feedback load"),
    "annulus-ccdf": (
        _exp_annulus_ccdf,
        "metric ccdf of a uniform point on an annulus vs simulation"),
    "diff-snr-cdf": (
        _exp_diff_snr_cdf,
        "weighted-metric minimum cdf for unequal per-hop SNRs"),
}


def describe_experiments():
    return {name: desc for name, (_, desc) in EXPERIMENTS.items()}


def run_experiment(name: str, cfg: ExperimentConfig):
    """Produce the experiment's rows (header not included)."""
    if name not in EXPERIMENTS:
        raise ParameterError(f"unknown experiment {name!r}; see list-experiments")
    fn, _ = EXPERIMENTS[name]
    return fn(cfg)


def rows_to_csv(rows, path) -> None:
    """Stable CSV encoding: comma-separated, '.' decimals, LF, UTF-8."""
    def enc(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return f"{float(v):.12g}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(enc(v) for v in row) + "\n")


def config_overrides(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    bad = set(kwargs) - known
    if bad:
        raise ParameterError(f"unknown config keys: {sorted(bad)}")
    return replace(cfg, **kwargs)
