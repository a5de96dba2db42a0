"""Monte Carlo harness: batched trials, their CSV, and the goodness-of-fit
statistics that check them against the analytic laws (``ks_statistic`` for a
cdf, ``_poisson_chi2`` for a Poisson count).

Stream layout (fixed, so a split execution can reproduce the serial
stream): all randomness comes from Philox keyed by the master seed, with the
128-bit counter partitioned into blocks of 2^64 counter values. Block 0 holds
the per-trial point counts in trial order, block 1 the radial uniforms for
all points in trial order, block 2 the angle uniforms. Counts and squared
norms are drawn as ``DiscHomogeneous(intensity, window_radius)`` draws them.

``run_trials`` and ``feedback_counts`` share one walk of this stream. It
draws every count from block 0 first, then takes the trials in chunks of at
most ``_CHUNK_TRIALS`` whole trials holding at most ``_CHUNK_POINTS`` points
(a trial larger than that is a chunk of its own), along ``kernels._chunks``,
the walk ``field_stats`` takes its blocks by. Each chunk takes its next
draws from two generators kept open on blocks 1 and 2 and goes to one kernel
call. Both read blocks 1 and 2 as the raw 64-bit words of ``random_raw``, of
which ``Generator.random`` makes its uniforms as (w >> 11) 2^-53, and their
kernels turn only the words that matter into doubles (see ``kernels``):
``disc_batch_stats``, which computes every statistic for ``run_trials``,
compares each radial word with its field's reach, and
``disc_feedback_counts`` with two threshold cuts. Both give the bits of
evaluating every relay, so ``feedback_counts`` returns
``run_trials(...).n_feedback`` exactly. Successive draws from one Philox
generator give exactly the values of one large draw, so the output does not
depend on the chunk size. Each chunk's results are written into their slice
of the ``n_trials``-long outputs, allocated once, so memory beyond the
per-trial results is bounded by the chunk budget (or by the largest trial)
for any ``n_trials``. A chunk's draws are made only after the previous
chunk's are freed: holding them one chunk longer left 12 MB more resident
memory after a 100k-trial batch (lambda = 1, tau = 10), from heap
fragmentation.

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
from .kernels import _chunks, disc_batch_stats, disc_feedback_counts
from .numerics import chi2_sf, poisson_pmf, poisson_sf
from .pointprocess import DiscHomogeneous, default_window_radius

__all__ = ["MonteCarloConfig", "TrialBatch", "run_trials", "feedback_counts",
           "batch_to_csv", "empirical_cdf", "ks_statistic"]


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
        if not (0 < self.scale_source < math.inf and 0 < self.scale_destination < math.inf):
            raise ParameterError("SNR scales must be positive and finite")


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


# Points per kernel call: bounds the memory of a batch of any size. A chunk
# takes 16 B a point of words, and the disc kernel's r^2 prune keeps its
# full-size temporaries to about 12 B a point more, so a larger chunk mostly
# saves the fixed cost of each call. A 100k-trial mc-batch pass (lambda = 1,
# tau = 10, 2 vCPUs, medians of four warm in-process runs) took 0.83 s at 2^14,
# 0.69 s at 2^15, 0.61 s at 2^16 and 0.83 s at 2^17, where a chunk's draws and
# temporaries no longer stay in the heap between chunks (see _map_chunks):
# 216k minor page faults a pass, against 2.0k-2.2k at 2^14-2^16.
_CHUNK_POINTS = 1 << 16
# Trials per kernel call, whatever their points: bounds the kernel's per-trial
# temporaries (about 300 B a trial) when most fields are empty.
_CHUNK_TRIALS = 1 << 14


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed),
                                                counter=block << 64))


def _counts(config: MonteCarloConfig, n_trials: int, seed: int):
    """The field every trial samples, and the point count of each trial from block 0."""
    if not n_trials >= 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= seed < 1 << 64):
        raise ParameterError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    disc = DiscHomogeneous(config.intensity, config.window_radius)
    counts = _block_rng(seed, 0).poisson(disc.mean_count, size=n_trials)
    return disc, counts.astype(np.int64, copy=False)


def _words(radius_rng: np.random.Generator, angle_rng: np.random.Generator, m: int):
    """A chunk's next ``m`` radial and ``m`` angle words, as Philox makes them."""
    return radius_rng.bit_generator.random_raw(m), angle_rng.bit_generator.random_raw(m)


def _map_chunks(counts: np.ndarray, seed: int, kernel, *args):
    """Yield each chunk's trial slice and ``kernel(radial_words, angle_words,
    local offsets, *args)``, in order, with the chunk's next words of blocks 1
    and 2. The words are bound to no name, so they are freed when the kernel
    returns, before the next chunk draws."""
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    radius_rng, angle_rng = _block_rng(seed, 1), _block_rng(seed, 2)
    # Freeing one untouched 2 MB block raises glibc's dynamic mmap threshold to
    # 2 MB and its trim threshold to 4 MB, so its heap keeps a chunk's freed
    # words and temporaries (about 28 B a point and 300 B a trial) for the next
    # chunk instead of returning them to the system after each one. Without it
    # a fresh 100k-trial simulate (lambda = 1, tau = 10) took 74k-182k minor
    # page faults instead of 8.4k; an 8 MB block saved none of them and added
    # 0.1-1.1 MB to a figures pass's peak RSS. Other allocators ignore it.
    np.empty(2 << 20, dtype=np.uint8)
    for lo, hi in _chunks(offsets, _CHUNK_POINTS, _CHUNK_TRIALS):
        local = offsets[lo:hi + 1] - offsets[lo]
        yield slice(lo, hi), kernel(*_words(radius_rng, angle_rng, int(local[-1])), local,
                                    *args)


# the float statistics of disc_batch_stats a TrialBatch records
_FLOATS = ("gamma_opt", "gamma_mid", "gamma_c2d", "gamma_csrc", "gamma_diff",
           "psi_mid", "psi_second")


def run_trials(config: MonteCarloConfig, n_trials: int, seed: int) -> TrialBatch:
    """Sample ``n_trials`` homogeneous fields and reduce each one."""
    disc, counts = _counts(config, n_trials, seed)
    d = config.half_distance
    threshold = math.inf if config.threshold is None else config.threshold
    out = {name: np.empty(n_trials) for name in _FLOATS}
    n_fb = np.empty(n_trials, dtype=np.int64)  # every relay reports at an infinite threshold
    sufficient = np.empty(n_trials, dtype=bool)
    mid_is_opt = np.empty(n_trials, dtype=bool)
    for part, st in _map_chunks(counts, seed, disc_batch_stats, disc.radius, d, threshold,
                                config.scale_source, config.scale_destination):
        for name in _FLOATS:
            out[name][part] = st[name]
        n_fb[part] = st.n_feedback
        # an empty or one-relay field has psi_second = inf: vacuously certified
        np.less_equal(st.gamma_mid, np.hypot(d, st.psi_second), out=sufficient[part])
        # idx_opt and idx_mid index into this chunk; both are -1 on empty fields
        np.equal(st.idx_mid, st.idx_opt, out=mid_is_opt[part])
    return TrialBatch(config=config, n_trials=n_trials, seed=int(seed), counts=counts,
                      n_feedback=n_fb, sufficient=sufficient, mid_is_opt=mid_is_opt, **out)


def feedback_counts(config: MonteCarloConfig, n_trials: int, seed: int) -> np.ndarray:
    """``run_trials(config, n_trials, seed).n_feedback``, bit for bit, without
    the other statistics; without a threshold, the point counts."""
    disc, counts = _counts(config, n_trials, seed)
    if config.threshold is None:
        return counts
    out = np.empty(n_trials, dtype=np.int64)
    for part, n_fb in _map_chunks(counts, seed, disc_feedback_counts, disc.radius,
                                  config.half_distance, config.threshold):
        out[part] = n_fb
    return out


def _sorted(samples) -> np.ndarray:
    """The samples as sorted floats; an empty or NaN sample has no empirical law."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0 or np.isnan(s).any():
        raise ParameterError("samples must be non-empty and free of NaN")
    return s


def empirical_cdf(samples: np.ndarray, x) -> np.ndarray:
    """Right-continuous empirical cdf of the samples at the points x."""
    s = _sorted(samples)
    return np.searchsorted(s, np.asarray(x, dtype=float), side="right") / s.size


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance against a cdf callable.

    Compares the right-continuous empirical values, so it is exact (zero) when
    ``cdf`` is the batch's own empirical cdf and within 1/n of the two-sided
    statistic otherwise. Infinite samples are mass the law must also place
    beyond every finite point (defective laws); the tail term accounts for it.
    """
    s = _sorted(samples)
    n = s.size
    sf = s[np.isfinite(s)]
    d_tail = abs(sf.size / n - float(cdf(np.inf)))
    if sf.size == 0:
        return d_tail
    f = np.asarray(cdf(sf), dtype=float)
    emp = np.searchsorted(s, sf, side="right") / n  # tie groups share one height
    return float(max(np.max(np.abs(emp - f)), d_tail))


def _poisson_chi2(samples: np.ndarray, mean: float, min_expected: float = 5.0):
    """Chi-square goodness of fit against Poisson(mean) with pooled tail bins.

    The samples must be non-negative integer counts, at least one, and the
    mean finite and >= 0: a NaN or negative mean would read a NaN p-value.
    """
    s = np.asarray(samples)
    if not (s.size and np.isfinite(s).all() and (s >= 0).all() and (s == np.floor(s)).all()):
        raise ParameterError("samples must be non-empty non-negative integer counts")
    if not 0 <= mean < math.inf:
        raise ParameterError(f"the Poisson mean must be finite and >= 0, got {mean}")
    samples = s.astype(np.int64, copy=False)
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


# Rows per formatted block of the trial CSV: the writer holds one block of
# Python numbers at a time, not a Python object per cell of the whole batch.
_CSV_ROWS = 4096


def batch_to_csv(batch: TrialBatch, path) -> None:
    """One row per trial, stable format for diffing."""
    cols = ("trial", "n_points", "gamma_opt", "gamma_mid", "gamma_c2d",
            "gamma_csrc", "gamma_diff", "psi_mid", "psi_second",
            "n_feedback", "sufficient", "mid_is_opt")
    row = "%d,%d" + ",%.12g" * 7 + ",%d,%d,%d\n"
    arrays = [getattr(batch, c) for c in ("counts", *cols[2:])]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, batch.n_trials, _CSV_ROWS):
            block = [a[lo:lo + _CSV_ROWS].tolist() for a in arrays]
            fh.writelines(row % values for values in zip(range(lo, lo + _CSV_ROWS), *block))
