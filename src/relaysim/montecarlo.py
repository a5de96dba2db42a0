"""Monte Carlo harness: batched trials, empirical laws, analytic comparisons.

Stream layout (fixed, so a split execution can reproduce the serial
stream): all randomness comes from Philox keyed by the master seed, with the
128-bit counter partitioned into blocks of 2^64 counter values. Block 0 holds
the per-trial point counts in trial order, block 1 the radial uniforms for
all points in trial order, block 2 the angle uniforms. Counts and squared
norms are drawn as ``DiscHomogeneous(intensity, window_radius)`` draws them.

``run_trials`` and ``feedback_counts`` share one walk of this stream. It
draws every count from block 0 first, then takes the trials in chunks of
whole trials holding at most ``_CHUNK_POINTS`` points (a trial larger than
that is a chunk of its own). Each chunk takes its next squared norms and
angle uniforms from two generators kept open on blocks 1 and 2 and goes to
one kernel call: ``disc_batch_stats`` for every statistic, or
``disc_feedback_counts`` for the feedback count alone, which takes a cosine
only for the relays near the threshold (see ``kernels``). Both give the bits
of evaluating every relay, so ``feedback_counts`` returns
``run_trials(...).n_feedback`` exactly. Successive draws from one Philox
generator give exactly the values of one large draw, so the output does not
depend on the chunk size, and memory beyond the per-trial results is bounded
by the chunk budget (or by the largest trial) for any ``n_trials``. A
chunk's draws are made only after the previous chunk's are freed: holding
them one chunk longer left 12 MB more resident memory after a 100k-trial
batch (lambda = 1, tau = 10), from heap fragmentation.

Block 0 cannot be advanced to a trial: Poisson draws consume a variable
number of words (1000 draws at mean 314 use 585 counter values), so the
counts are always drawn from the start of block 0. Blocks 1 and 2 can: each
counter value yields four uniforms, so the uniform at flat point index k is
reached with ``Philox(key, counter=block << 64).advance(k // 4)`` followed by
discarding ``k % 4`` draws. The serial walk never needs this; only a future
split of the trials across workers would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .kernels import FieldStats, disc_batch_stats, disc_feedback_counts
from .numerics import chi2_sf, poisson_cdf, poisson_pmf, poisson_sf
from .pointprocess import DiscHomogeneous, default_window_radius

__all__ = ["MonteCarloConfig", "TrialBatch", "ComparisonReport",
           "run_trials", "feedback_counts", "compare_to_analytic", "batch_to_csv",
           "empirical_cdf", "ks_statistic"]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Field model plus the per-trial quantities to record.

    ``threshold`` enables feedback counting; the SNR scales enable the
    weighted-metric minimum. ``window_radius`` defaults to a disc large enough
    that truncation is invisible to the recorded laws.
    """

    intensity: float
    half_distance: float
    window_radius: float | None = None
    threshold: float | None = None
    scale_source: float = 1.0
    scale_destination: float = 1.0

    def __post_init__(self):
        if not self.intensity > 0 or not self.half_distance > 0:
            raise ParameterError("intensity and half_distance must be positive")
        if self.window_radius is None:
            object.__setattr__(self, "window_radius",
                               default_window_radius(self.intensity, self.half_distance))
        if not self.window_radius > 0:
            raise ParameterError("window_radius must be positive")
        DiscHomogeneous(self.intensity, self.window_radius)  # rejects what numpy cannot draw
        if self.threshold is not None and not self.threshold >= 0:
            raise ParameterError("threshold must be non-negative")
        if not (self.scale_source > 0 and self.scale_destination > 0):
            raise ParameterError("SNR scales must be positive")


@dataclass(frozen=True)
class TrialBatch:
    """Per-trial records; reproducible from (config, n_trials, seed)."""

    config: MonteCarloConfig
    n_trials: int
    seed: int
    counts: np.ndarray = field(repr=False)
    gamma_opt: np.ndarray = field(repr=False)
    gamma_mid: np.ndarray = field(repr=False)
    gamma_c2d: np.ndarray = field(repr=False)
    gamma_csrc: np.ndarray = field(repr=False)
    gamma_diff: np.ndarray = field(repr=False)
    psi_mid: np.ndarray = field(repr=False)
    psi_second: np.ndarray = field(repr=False)
    n_feedback: np.ndarray = field(repr=False)
    sufficient: np.ndarray = field(repr=False)
    mid_is_opt: np.ndarray = field(repr=False)


# Points per kernel call: bounds the memory of a batch of any size. One
# figures pass in fresh processes at PYTHONHASHSEED 0-3 (2 vCPUs, medians of
# 20 runs at 2^13 and 2^14, 8 at 2^15) took 3.52 s at 2^13, 2.96 s at 2^14
# and 3.86 s at 2^15, where each call's temporaries land on fresh pages
# (0.66M-0.73M minor page faults a pass, against 1.2k-3.3k at 2^13 and
# 1.5k-206k at 2^14). A 100k-trial mc-batch pass: 2.01 s at 2^13, 1.92 s at 2^14.
_CHUNK_POINTS = 1 << 14


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed),
                                                counter=block << 64))


def _chunks(offsets: np.ndarray):
    """Yield (lo, hi): runs of whole trials with at most _CHUNK_POINTS points,
    or a single trial when it alone holds more."""
    n_trials = offsets.size - 1
    lo = 0
    while lo < n_trials:
        hi = int(np.searchsorted(offsets, offsets[lo] + _CHUNK_POINTS, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _counts(config: MonteCarloConfig, n_trials: int, seed: int):
    """The field every trial samples, and the point count of each trial from block 0."""
    if not n_trials >= 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    disc = DiscHomogeneous(config.intensity, config.window_radius)
    return disc, _block_rng(seed, 0).poisson(disc.mean_count, size=n_trials).astype(np.int64)


def _map_chunks(disc: DiscHomogeneous, counts: np.ndarray, seed: int, kernel, *args) -> list:
    """``kernel(norm_sq, u_angle, local offsets, *args)`` of each chunk, in
    order, each drawn after the previous chunk's draws are freed."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    radius_rng, angle_rng = _block_rng(seed, 1), _block_rng(seed, 2)
    parts = []
    for lo, hi in _chunks(offsets):
        local = offsets[lo:hi + 1] - offsets[lo]
        m = int(local[-1])
        parts.append(kernel(disc.draw_norm_sq(radius_rng, m), angle_rng.random(m), local, *args))
    return parts


def run_trials(config: MonteCarloConfig, n_trials: int, seed: int) -> TrialBatch:
    """Sample ``n_trials`` homogeneous fields and reduce each one."""
    disc, counts = _counts(config, n_trials, seed)
    d = config.half_distance
    threshold = math.inf if config.threshold is None else config.threshold
    parts = _map_chunks(disc, counts, seed, disc_batch_stats, d, threshold,
                        config.scale_source, config.scale_destination)
    # idx_opt and idx_mid index into their own chunk; only their equality is read
    st = FieldStats({k: np.concatenate([p[k] for p in parts]) for k in parts[0]})

    sufficient = st.gamma_mid <= np.hypot(d, st.psi_second)
    sufficient[counts == 0] = True  # vacuously certified, matches the 1-point case
    mid_is_opt = st.idx_mid == st.idx_opt  # both -1 on empty fields
    n_fb = st.n_feedback if config.threshold is not None else counts.copy()

    return TrialBatch(
        config=config, n_trials=n_trials, seed=int(seed), counts=counts,
        gamma_opt=st.gamma_opt, gamma_mid=st.gamma_mid, gamma_c2d=st.gamma_c2d,
        gamma_csrc=st.gamma_csrc, gamma_diff=st.gamma_diff,
        psi_mid=st.psi_mid, psi_second=st.psi_second,
        n_feedback=n_fb, sufficient=sufficient, mid_is_opt=mid_is_opt,
    )


def feedback_counts(config: MonteCarloConfig, n_trials: int, seed: int) -> np.ndarray:
    """``run_trials(config, n_trials, seed).n_feedback``, bit for bit, without
    the other statistics; without a threshold, the point counts."""
    disc, counts = _counts(config, n_trials, seed)
    if config.threshold is None:
        return counts
    return np.concatenate(_map_chunks(disc, counts, seed, disc_feedback_counts,
                                      config.half_distance, config.threshold))


def empirical_cdf(samples: np.ndarray, x) -> np.ndarray:
    """Right-continuous empirical cdf of the samples at the points x."""
    s = np.sort(np.asarray(samples, dtype=float))
    return np.searchsorted(s, np.asarray(x, dtype=float), side="right") / s.size


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a cdf callable.

    Compares the right-continuous empirical values, so it is exact (zero) when
    ``cdf`` is the batch's own empirical cdf and within 1/n of the two-sided
    statistic otherwise. Infinite samples are mass the law must also place
    beyond every finite point (defective laws); the tail term accounts for it.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    sf = s[np.isfinite(s)]
    d_tail = abs(sf.size / n - float(cdf(np.inf)))
    if sf.size == 0:
        return d_tail
    f = np.asarray(cdf(sf), dtype=float)
    emp = np.searchsorted(s, sf, side="right") / n  # tie groups share one height
    return float(max(np.max(np.abs(emp - f)), d_tail))


@dataclass(frozen=True)
class ComparisonReport:
    """Empirical-vs-analytic summary for one recorded quantity.

    ``ks_threshold`` is the acceptance band the comparison was run with
    (band / sqrt(n); the default band 1.63 is the 99% two-sided level).
    """

    quantity: str
    n_samples: int
    ks_statistic: float
    chi2_pvalue: float
    mean_abs_error: float
    grid: list
    ks_threshold: float = math.nan

    @property
    def ks_pass(self) -> bool:
        return bool(self.ks_statistic < self.ks_threshold)


_QUANTITIES = ("gamma_opt", "gamma_mid", "gamma_c2d", "gamma_csrc",
               "gamma_diff", "n_feedback")


def _poisson_chi2(samples: np.ndarray, mean: float, min_expected: float = 5.0):
    """Chi-square goodness of fit against Poisson(mean) with pooled tail bins."""
    n = samples.size
    kmax = int(samples.max())
    observed = np.bincount(samples, minlength=kmax + 1).astype(float)
    expected = n * poisson_pmf(np.arange(kmax + 1), mean)
    expected = np.append(expected, n * poisson_sf(kmax, mean))
    observed = np.append(observed, 0.0)
    # pool adjacent cells until each expected count is large enough
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(observed, expected):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if o_acc or e_acc:
        if exp_bins:
            obs_bins[-1] += o_acc
            exp_bins[-1] += e_acc
        else:
            obs_bins, exp_bins = [o_acc], [e_acc]
    chi2 = float(np.sum((np.array(obs_bins) - np.array(exp_bins)) ** 2 / np.array(exp_bins)))
    dof = max(len(obs_bins) - 1, 1)
    return float(chi2_sf(chi2, dof))


def compare_to_analytic(batch: TrialBatch, evaluator, quantity: str = "gamma_opt",
                        grid_size: int = 33, ks_band: float = 1.63) -> ComparisonReport:
    """Compare one recorded quantity with its analytic law.

    ``evaluator`` is a ``CqiLaw`` (or bare cdf callable) for metric
    quantities, or the Poisson mean (float) for ``n_feedback``. ``ks_band``
    scales the acceptance threshold ks_band / sqrt(n).
    """
    if quantity not in _QUANTITIES:
        raise ParameterError(f"unknown quantity {quantity!r}; one of {_QUANTITIES}")
    threshold = ks_band / math.sqrt(batch.n_trials)
    if quantity == "n_feedback":
        mean = float(evaluator)
        samples = batch.n_feedback
        pvalue = _poisson_chi2(samples, mean)
        ks = ks_statistic(samples.astype(float), lambda x: poisson_cdf(x, mean))
        kgrid = np.arange(0, max(int(samples.max()) + 1, 2))
        emp = empirical_cdf(samples.astype(float), kgrid)
        ana = poisson_cdf(kgrid, mean)
        grid = [(float(k), float(a), float(e)) for k, a, e in zip(kgrid, ana, emp)]
        mae = float(np.mean(np.abs(ana - emp)))
        return ComparisonReport("n_feedback", samples.size, ks, pvalue, mae, grid,
                                threshold)

    cdf = evaluator.cdf if hasattr(evaluator, "cdf") else evaluator
    samples = getattr(batch, quantity)
    ks = ks_statistic(samples, cdf)
    finite = np.sort(samples[np.isfinite(samples)])
    if finite.size == 0:
        return ComparisonReport(quantity, samples.size, ks, 1.0, 0.0, [], threshold)
    qs = np.quantile(finite, np.linspace(0.01, 0.99, grid_size))
    ana = np.asarray(cdf(qs), dtype=float)
    # infinite samples (defective laws) sit beyond every grid point
    emp = empirical_cdf(samples, qs)
    grid = [(float(x), float(a), float(e)) for x, a, e in zip(qs, ana, emp)]
    mae = float(np.mean(np.abs(ana - emp)))
    # chi-square over equal-occupancy bins, mass at infinity folded into the tail
    n_bins = min(20, max(finite.size // 25, 2))
    edges = np.quantile(finite, np.linspace(0.0, 1.0, n_bins + 1))[1:-1]
    observed = np.diff(np.concatenate(
        ([0], np.searchsorted(finite, edges, side="right"), [samples.size]))).astype(float)
    cum = np.concatenate(([0.0], np.asarray(cdf(edges), dtype=float), [1.0]))
    expected = samples.size * np.diff(cum)
    keep = expected > 0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pvalue = float(chi2_sf(chi2, max(int(keep.sum()) - 1, 1)))
    return ComparisonReport(quantity, samples.size, ks, pvalue, mae, grid, threshold)


def batch_to_csv(batch: TrialBatch, path) -> None:
    """One row per trial, stable format for diffing."""
    cols = ("trial", "n_points", "gamma_opt", "gamma_mid", "gamma_c2d",
            "gamma_csrc", "gamma_diff", "psi_mid", "psi_second",
            "n_feedback", "sufficient", "mid_is_opt")
    row = "%d,%d" + ",%.12g" * 7 + ",%d,%d,%d\n"
    columns = [range(batch.n_trials), batch.counts.tolist(),
               *(getattr(batch, c).tolist() for c in cols[2:9]),
               batch.n_feedback.tolist(), batch.sufficient.tolist(),
               batch.mid_is_opt.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % values for values in zip(*columns))
