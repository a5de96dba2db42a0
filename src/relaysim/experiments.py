"""Named experiments: analytic curves next to seeded simulation estimates.

Every experiment emits rows of (x, series, analytic, simulated, stderr); the
CLI writes them as one CSV per experiment. Grid point k of an experiment
seeds its trial batch with ``seed + k``, so outputs are byte-stable for a
fixed config and seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import distributions as dist
from . import metrics
from .errors import ParameterError
from .model import Fading, LinkBudget, PathLoss, snr_from_db
from .montecarlo import MonteCarloConfig, run_trials
from .pointprocess import AnnulusUniform, sample

__all__ = ["ExperimentConfig", "EXPERIMENTS", "run_experiment",
           "experiment_names", "describe_experiments"]

_HEADER = ("x", "series", "analytic", "simulated", "stderr")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs; each experiment reads the subset it needs."""

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

    def path_loss(self) -> PathLoss:
        return PathLoss.power_law(self.alpha)

    def snr(self) -> float:
        return snr_from_db(self.snr_db)


def _binom_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _mean_stderr(values: np.ndarray) -> float:
    return float(np.std(values) / math.sqrt(values.size))


def _exp_midpoint_optimality(cfg: ExperimentConfig):
    rows = []
    k = 0
    for d in cfg.half_distances:
        for lam in cfg.lambdas:
            batch = run_trials(MonteCarloConfig(lam, d), cfg.n_trials, cfg.seed + k)
            k += 1
            p_suff = dist.prob_sufficient(lam, d)
            p_mid = dist.prob_midpoint_optimal(lam, d)
            f_suff = float(np.mean(batch.sufficient))
            f_mid = float(np.mean(batch.mid_is_opt))
            rows.append((lam, f"sufficient d={d:g}", p_suff, f_suff,
                         _binom_stderr(f_suff, cfg.n_trials)))
            rows.append((lam, f"mid-optimal d={d:g}", p_mid, f_mid,
                         _binom_stderr(f_mid, cfg.n_trials)))
    return rows


def _exp_finite_convergence(cfg: ExperimentConfig):
    d = cfg.half_distance
    lam = 1.0
    gammas = np.linspace(d, d + 2.5, 101)
    rows = []
    for k, tau in enumerate(cfg.taus):
        ana = dist.best_cqi_cdf_finite(gammas, lam, d, tau)
        batch = run_trials(MonteCarloConfig(lam, d, window_radius=tau),
                           cfg.n_trials, cfg.seed + k)
        finite = batch.gamma_opt[np.isfinite(batch.gamma_opt)]
        emp = np.searchsorted(np.sort(finite), gammas, side="right") / batch.n_trials
        for x, a, e in zip(gammas, ana, emp):
            rows.append((x, f"tau={tau:g}", a, e, _binom_stderr(e, cfg.n_trials)))
    limit = dist.best_cqi_cdf(gammas, lam, d)
    rows.extend((x, "limit", a, None, None) for x, a in zip(gammas, limit))
    return rows


def _exp_nfb_distribution(cfg: ExperimentConfig):
    d = cfg.half_distance
    t = cfg.nfb_threshold
    rows = []
    from scipy import stats as st
    for k, lam in enumerate(cfg.nfb_lambdas):
        mu = metrics.mean_feedback_load(t, lam, d)
        batch = run_trials(MonteCarloConfig(lam, d, threshold=t), cfg.n_trials, cfg.seed + k)
        kmax = max(int(batch.n_feedback.max()), int(st.poisson.ppf(0.9999, mu)))
        freq = np.bincount(batch.n_feedback, minlength=kmax + 1) / cfg.n_trials
        for kk in range(kmax + 1):
            rows.append((kk, f"lambda={lam:g}", float(st.poisson.pmf(kk, mu)),
                         float(freq[kk]), _binom_stderr(float(freq[kk]), cfg.n_trials)))
    return rows


def _exp_feedback_load(cfg: ExperimentConfig):
    d = cfg.half_distance
    t_grid = np.linspace(d, 4.0 * d, 25)
    rows = []
    k = 0
    for lam in cfg.feedback_lambdas:
        for t in t_grid:
            mu = metrics.mean_feedback_load(float(t), lam, d)
            batch = run_trials(MonteCarloConfig(lam, d, threshold=float(t)),
                               cfg.n_trials, cfg.seed + k)
            k += 1
            nfb = batch.n_feedback
            p_any = float(np.mean(nfb >= 1))
            rows.append((float(t), f"load lambda={lam:g}", mu, float(np.mean(nfb)),
                         _mean_stderr(nfb.astype(float))))
            rows.append((float(t), f"p-any-feedback lambda={lam:g}", -math.expm1(-mu),
                         p_any, _binom_stderr(p_any, cfg.n_trials)))
    return rows


_POLICY_GAMMAS = {"optimum": "gamma_opt", "mid-point": "gamma_mid",
                  "closest-to-destination": "gamma_c2d"}


def _exp_outage_and_rate(cfg: ExperimentConfig):
    d = cfg.half_distance
    snr, pl = cfg.snr(), cfg.path_loss()
    rows = []
    for k, lam in enumerate(cfg.lambdas):
        batch = run_trials(MonteCarloConfig(lam, d), cfg.n_trials, cfg.seed + k)
        for fading in (Fading.NONE, Fading.RAYLEIGH):
            for policy, attr in _POLICY_GAMMAS.items():
                law = dist.policy_law(policy, lam, d)
                rates = metrics.conditional_rate(getattr(batch, attr), snr, pl, fading).value
                out_sim = float(np.mean(rates <= cfg.rho))
                rate_sim = float(np.mean(rates))
                tag = f"{policy}/{fading.value}"
                rows.append((lam, f"outage {tag}",
                             metrics.outage_for_law(law, cfg.rho, snr, pl, fading),
                             out_sim, _binom_stderr(out_sim, cfg.n_trials)))
                rows.append((lam, f"rate {tag}",
                             metrics.average_rate(law, snr, pl, fading).value,
                             rate_sim, _mean_stderr(rates)))
    return rows


def _exp_rate_feedback(cfg: ExperimentConfig):
    d = cfg.half_distance
    snr, pl = cfg.snr(), cfg.path_loss()
    rows = []
    for k, lam in enumerate(cfg.lambdas):
        batch = run_trials(MonteCarloConfig(lam, d), cfg.n_trials, cfg.seed + k)
        for fading in (Fading.NONE, Fading.RAYLEIGH):
            base = metrics.conditional_rate(batch.gamma_opt, snr, pl, fading).value
            for t in (*cfg.thresholds, math.inf):
                gated = np.where(batch.gamma_opt <= t, base, 0.0)
                sim = float(np.mean(gated))
                if math.isinf(t):
                    ana = metrics.average_rate_optimum(lam, d, snr, pl, fading).value
                    series = f"all-feedback/{fading.value}"
                else:
                    ana = metrics.average_rate_feedback(t, lam, d, snr, pl, fading).value
                    series = f"T={t:g}/{fading.value}"
                rows.append((lam, series, ana, sim, _mean_stderr(gated)))
    return rows


def _exp_outage_feedback(cfg: ExperimentConfig):
    d = cfg.half_distance
    snr, pl = cfg.snr(), cfg.path_loss()
    rho = cfg.rho_feedback
    rows = []
    for k, lam in enumerate(cfg.lambdas):
        batch = run_trials(MonteCarloConfig(lam, d), cfg.n_trials, cfg.seed + k)
        for fading in (Fading.NONE, Fading.RAYLEIGH):
            base = metrics.conditional_rate(batch.gamma_opt, snr, pl, fading).value
            for t in (*cfg.thresholds, math.inf):
                gated = np.where(batch.gamma_opt <= t, base, 0.0)
                sim = float(np.mean(gated <= rho))
                if math.isinf(t):
                    ana = metrics.outage(rho, lam, d, snr, pl, fading)
                    series = f"all-feedback/{fading.value}"
                else:
                    ana = metrics.outage_feedback(t, rho, lam, d, snr, pl, fading)[0]
                    series = f"T={t:g}/{fading.value}"
                rows.append((lam, series, ana, sim, _binom_stderr(sim, cfg.n_trials)))
    return rows


def _exp_fixed_load(cfg: ExperimentConfig):
    d = cfg.half_distance
    snr, pl = cfg.snr(), cfg.path_loss()
    rho = cfg.rho_feedback
    rows = []
    for k, lam in enumerate(cfg.lambdas):
        t = metrics.threshold_for_load(cfg.feedback_load, lam, d)
        batch = run_trials(MonteCarloConfig(lam, d), cfg.n_trials, cfg.seed + k)
        for fading in (Fading.NONE, Fading.RAYLEIGH):
            base = metrics.conditional_rate(batch.gamma_opt, snr, pl, fading).value
            gated = np.where(batch.gamma_opt <= t, base, 0.0)
            pairs = (
                (f"rate selective/{fading.value}",
                 metrics.average_rate_feedback(t, lam, d, snr, pl, fading).value,
                 float(np.mean(gated)), _mean_stderr(gated)),
                (f"rate all-feedback/{fading.value}",
                 metrics.average_rate_optimum(lam, d, snr, pl, fading).value,
                 float(np.mean(base)), _mean_stderr(base)),
                (f"outage selective/{fading.value}",
                 metrics.outage_feedback(t, rho, lam, d, snr, pl, fading)[0],
                 float(np.mean(gated <= rho)),
                 _binom_stderr(float(np.mean(gated <= rho)), cfg.n_trials)),
                (f"outage all-feedback/{fading.value}",
                 metrics.outage(rho, lam, d, snr, pl, fading),
                 float(np.mean(base <= rho)),
                 _binom_stderr(float(np.mean(base <= rho)), cfg.n_trials)),
            )
            rows.extend((lam, s, a, m, e) for s, a, m, e in pairs)
    return rows


def _exp_annulus_ccdf(cfg: ExperimentConfig):
    d = cfg.half_distance
    rows = []
    for k, (tau, psi) in enumerate(cfg.annulus_cases):
        n = cfg.n_trials
        pts = sample(AnnulusUniform(psi, tau, n), cfg.seed + k).points
        s = np.maximum(np.hypot(pts[:, 0] + d, pts[:, 1]),
                       np.hypot(pts[:, 0] - d, pts[:, 1]))
        s.sort()
        grid = np.linspace(math.hypot(psi, d) * 0.98, tau + d, 101)
        ana = dist.annulus_metric_ccdf(grid, psi, tau, d)
        emp = 1.0 - np.searchsorted(s, grid, side="right") / n
        for x, a, e in zip(grid, ana, emp):
            rows.append((float(x), f"tau={tau:g} psi={psi:g}", float(a), float(e),
                         _binom_stderr(float(e), n)))
    return rows


def _exp_diff_snr_cdf(cfg: ExperimentConfig):
    d = cfg.diff_half_distance
    lam = cfg.diff_intensity
    rows = []
    for k, (db1, db2) in enumerate(cfg.diff_snr_db_pairs):
        budget = LinkBudget(snr=snr_from_db(cfg.snr_db), snr_relay=snr_from_db(db1),
                            snr_destination=snr_from_db(db2))
        s1, s2 = budget.effective_scales(cfg.alpha)
        law = dist.unequal_snr_cqi_law(lam, d, s1, s2)
        lo = law.support_min
        hi = law.quantile(0.999)
        grid = np.linspace(lo * 0.95, hi, 101)
        batch = run_trials(MonteCarloConfig(lam, d, scale_source=s1, scale_destination=s2),
                           cfg.n_trials, cfg.seed + k)
        samples = np.sort(batch.gamma_diff)
        emp = np.searchsorted(samples, grid, side="right") / cfg.n_trials
        ana = law.cdf(grid)
        for x, a, e in zip(grid, ana, emp):
            rows.append((float(x), f"snr1={db1:g}dB snr2={db2:g}dB", float(a), float(e),
                         _binom_stderr(float(e), cfg.n_trials)))
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


def experiment_names():
    return tuple(EXPERIMENTS)


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
