"""Hot per-field reductions over batches of relay fields.

One numpy segmented reduction, ``_reduce``, behind two front-ends that only
compute each point's squared distances to the source, the destination and
the mid-point:

``field_stats(xs, ys, offsets, half_distance, ...)``
    general form for explicit coordinates.

``disc_batch_stats(u_radius, u_angle, offsets, window_radius, half_distance, ...)``
    homogeneous-disc batches straight from the sampler's radial and angular
    uniforms, with dist^2 = r^2 + d^2 +- 2 d r cos(angle). This arithmetic
    fixes the bytes of ``run_trials`` output; going through xy would round
    differently, and would cost two more full-size coordinate arrays and a
    sine per point on the largest batches.

Input layout: all fields concatenated into flat 1-D arrays, trial t owning
the slice ``offsets[t]:offsets[t+1]``. Argmin ties break toward the lowest
in-field index. Empty trials yield inf metrics, index -1 and zero feedback.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["FieldStats", "field_stats", "disc_batch_stats", "kernel_backend"]


class FieldStats(dict):
    """Per-trial reductions, keyed by name; a plain dict with attribute access."""

    __getattr__ = dict.__getitem__


def kernel_backend() -> str:
    """Name of the kernel implementation, for run reports."""
    return "numpy"


def _checked(a, b, offsets, threshold):
    if not threshold >= 0:
        raise ParameterError(f"threshold must be non-negative, got {threshold}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ParameterError(f"coordinates must be 1-D arrays of equal shape, "
                             f"got {a.shape} and {b.shape}")
    if offsets.ndim != 1 or offsets.size == 0 or offsets[0] != 0 or offsets[-1] != a.size:
        raise ParameterError(f"offsets must run from 0 to {a.size}")
    if (np.diff(offsets) < 0).any():
        raise ParameterError("offsets must be non-decreasing")
    return a, b, offsets


def _reduce(ds_sq, dd_sq, norm_sq, offsets, threshold, scale_source, scale_destination):
    """Segmented minima and argmins over the squared per-point distances."""
    n_trials = offsets.size - 1
    out = FieldStats(
        gamma_opt=np.full(n_trials, np.inf),
        idx_opt=np.full(n_trials, -1, dtype=np.int64),
        gamma_mid=np.full(n_trials, np.inf),
        idx_mid=np.full(n_trials, -1, dtype=np.int64),
        psi_mid=np.full(n_trials, np.inf),
        psi_second=np.full(n_trials, np.inf),
        gamma_c2d=np.full(n_trials, np.inf),
        gamma_csrc=np.full(n_trials, np.inf),
        n_feedback=np.zeros(n_trials, dtype=np.int64),
        gamma_diff=np.full(n_trials, np.inf),
    )
    if ds_sq.size == 0:
        return out
    sq = np.maximum(ds_sq, dd_sq)
    diff_sq = np.maximum(scale_source * scale_source * ds_sq,
                         scale_destination * scale_destination * dd_sq)
    thr = float(threshold)
    thr_sq = thr * thr

    counts = np.diff(offsets)
    valid = counts > 0
    starts = offsets[:-1][valid]
    idx_all = np.arange(sq.size, dtype=np.int64)
    valid_counts = counts[valid]

    def seg_min(v):
        return np.minimum.reduceat(v, starts)

    def seg_argmin(v, seg_min_v):
        rep = np.repeat(seg_min_v, valid_counts)
        cand = np.where(v == rep, idx_all, sq.size)
        return np.minimum.reduceat(cand, starts)

    go = seg_min(sq)
    out["gamma_opt"][valid] = np.sqrt(go)
    out["idx_opt"][valid] = seg_argmin(sq, go)

    pm = seg_min(norm_sq)
    im = seg_argmin(norm_sq, pm)
    out["psi_mid"][valid] = np.sqrt(pm)
    out["idx_mid"][valid] = im
    out["gamma_mid"][valid] = np.sqrt(sq[im])

    rest = norm_sq.copy()
    rest[im] = np.inf
    out["psi_second"][valid] = np.sqrt(seg_min(rest))

    out["gamma_c2d"][valid] = np.sqrt(sq[seg_argmin(dd_sq, seg_min(dd_sq))])
    out["gamma_csrc"][valid] = np.sqrt(sq[seg_argmin(ds_sq, seg_min(ds_sq))])
    out["n_feedback"][valid] = np.add.reduceat((sq <= thr_sq).astype(np.int64), starts)
    out["gamma_diff"][valid] = np.sqrt(seg_min(diff_sq))
    return out


def field_stats(xs, ys, offsets, half_distance, threshold=np.inf,
                scale_source=1.0, scale_destination=1.0) -> FieldStats:
    """Reduce each field of relays at explicit coordinates ``(xs, ys)``."""
    xs, ys, offsets = _checked(xs, ys, offsets, threshold)
    d = float(half_distance)
    y2 = ys * ys
    return _reduce((xs + d) ** 2 + y2, (xs - d) ** 2 + y2, xs * xs + y2, offsets,
                   threshold, scale_source, scale_destination)


def disc_batch_stats(u_radius, u_angle, offsets, window_radius, half_distance,
                     threshold=np.inf, scale_source=1.0,
                     scale_destination=1.0) -> FieldStats:
    """Reduce each field of a disc batch given as inverse-cdf polar uniforms."""
    u1, u2, offsets = _checked(u_radius, u_angle, offsets, threshold)
    tau = float(window_radius)
    d = float(half_distance)
    norm_sq = (tau * tau) * u1
    cross = (2.0 * d) * np.sqrt(norm_sq) * np.cos((2.0 * math.pi) * u2)
    base = norm_sq + d * d
    return _reduce(base + cross, base - cross, norm_sq, offsets,
                   threshold, scale_source, scale_destination)
