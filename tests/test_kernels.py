import math

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
    st = kernels.disc_batch_stats(u1, u2, offsets, tau, 1.0, 2.5, 1.0, 1.4)
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
        kernels.disc_batch_stats(xs, ys, offsets, 3.0, 1.0)
