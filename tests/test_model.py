import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim.errors import ParameterError, UnsupportedOperationError
from relaysim.model import (Fading, LinkBudget, NetworkGeometry, PathLoss, Point2,
                            diff_metric_minimum, selection_metric,
                            selection_metric_diff, snr_from_db)

GEOM = NetworkGeometry(1.0)

coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_geometry_placement():
    g = NetworkGeometry(2.5)
    assert g.source == Point2(-2.5, 0.0)
    assert g.destination == Point2(2.5, 0.0)
    assert g.midpoint == Point2(0.0, 0.0)
    with pytest.raises(ParameterError):
        NetworkGeometry(0.0)


def test_metric_examples():
    assert selection_metric((0.0, 0.0), GEOM) == 1.0
    h = 0.7
    assert selection_metric((0.0, h), GEOM) == pytest.approx(math.sqrt(1 + h * h))
    assert selection_metric((1.0, 0.0), GEOM) == 2.0


def test_metric_batch_shape():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    out = selection_metric(pts, GEOM)
    assert out.shape == (3,)
    assert out[0] == 1.0 and out[1] == 2.0


@settings(max_examples=150, deadline=None)
@given(coords, coords)
@example(0.0, 2.41e-10)
def test_metric_floor(x, y):
    m = selection_metric((x, y), GEOM)
    assert m >= GEOM.half_distance
    # Within ~sqrt(eps)*d of the mid-point the excess over d, about
    # |x| + y^2/(2d), is below float64 resolution and the metric rounds to d.
    near_mid = math.hypot(x, y) < math.sqrt(2.0 * sys.float_info.epsilon) * GEOM.half_distance
    assert m > GEOM.half_distance or near_mid


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, max_value=40))
def test_metric_on_equidistant_line(h):
    # points with x = 0 balance both legs exactly
    assert selection_metric((0.0, h), GEOM) == pytest.approx(math.hypot(1.0, h))


def test_metric_monotone_along_line():
    hs = np.linspace(0, 10, 30)
    vals = selection_metric(np.column_stack([np.zeros_like(hs), hs]), GEOM)
    assert np.all(np.diff(vals) > 0)


def test_diff_metric_symmetric_reduction():
    budget = LinkBudget(snr=2.0)
    pts = np.array([[0.3, -0.4], [2.0, 1.0], [-1.0, 0.5]])
    scaled = selection_metric_diff(pts, GEOM, budget, 4.0)
    s1, _ = budget.effective_scales(4.0)
    assert np.allclose(scaled, s1 * selection_metric(pts, GEOM), rtol=1e-14)


def test_diff_metric_argmin_invariant_under_common_scale():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(40, 2))
    budget = LinkBudget(snr=1.0, snr_relay=5.0, snr_destination=5.0)
    plain = selection_metric(pts, GEOM)
    scaled = selection_metric_diff(pts, GEOM, budget, 4.0)
    assert np.argmin(plain) == np.argmin(scaled)


def test_diff_metric_minimum_attained_at_balance_point():
    budget = LinkBudget(snr=1.0, snr_relay=1.0, snr_destination=2.0 ** -4)
    s1, s2 = budget.effective_scales(4.0)
    assert (s1, s2) == (1.0, 2.0)
    bound = diff_metric_minimum(GEOM, s1, s2)
    assert bound == pytest.approx(2.0 * 1.0 * 1.0 * 2.0 / 3.0)
    # balance point on the segment: s1 |xs - x| = s2 |x - xd|, so it sits at
    # distance 2d s1/(s1+s2) = 2/3 from the destination
    x_star = (1.0 - 2.0 / 3.0, 0.0)
    assert selection_metric_diff(x_star, GEOM, budget, 4.0) == pytest.approx(bound)
    # at the destination the source leg dominates
    assert selection_metric_diff((1.0, 0.0), GEOM, budget, 4.0) == pytest.approx(2.0)


def test_snr_from_db():
    assert snr_from_db(0.0) == 1.0
    assert snr_from_db(10.0) == pytest.approx(10.0)
    assert snr_from_db(5.0) == pytest.approx(3.1622776601683795)


def test_link_budget_defaults_and_validation():
    b = LinkBudget(snr=2.0)
    assert b.snr_relay == 2.0 and b.snr_destination == 2.0
    with pytest.raises(ParameterError):
        LinkBudget(snr=-1.0)
    with pytest.raises(ParameterError):
        LinkBudget(snr=1.0, target_rate=-0.1)
    assert Fading("rayleigh") is Fading.RAYLEIGH


@pytest.mark.parametrize("pl", [PathLoss.power_law(4.0), PathLoss.shifted_power_law(3.0)])
def test_path_loss_contracts_smooth(pl):
    xs = np.logspace(-2, 2, 30)
    g = pl.gain(xs)
    assert np.all(np.diff(g) < 0)
    assert np.all(g >= 0)
    # generalized inverse: G(G^-1(s)) <= s on the range
    for s in (1e-6, 0.01, 0.5, 0.99):
        x = pl.gain_inverse(s)
        assert pl.gain(x) <= s * (1 + 1e-12)
    assert np.all(pl.gain_derivative(xs) < 0)


def test_power_law_specifics():
    pl = PathLoss.power_law(4.0)
    assert pl.gain(2.0) == pytest.approx(1.0 / 16.0)
    assert pl.gain_inverse(1.0 / 16.0) == pytest.approx(2.0)
    assert pl.gain_inverse(0.0) == math.inf


def test_shifted_power_law_specifics():
    pl = PathLoss.shifted_power_law(2.0)
    assert pl.gain(0.0) == 1.0
    assert pl.gain_inverse(1.0) == 0.0
    assert pl.gain_inverse(0.5) == pytest.approx(1.0)


def test_tabulated_path_loss():
    xs = np.linspace(0.0, 10.0, 11)
    gs = 1.0 / (1.0 + xs ** 2)
    pl = PathLoss.tabulated(xs, gs)
    assert not pl.smooth
    assert pl.gain(0.5) == pytest.approx(np.interp(0.5, xs, gs))
    for s in (0.9, 0.3, 0.02):
        x = pl.gain_inverse(s)
        assert pl.gain(x) <= s + 1e-9
        assert pl.gain(x * (1 - 1e-6)) >= s - 1e-9
    # below the table's smallest gain nothing qualifies
    assert pl.gain_inverse(gs[-1] / 2) == math.inf
    with pytest.raises(UnsupportedOperationError):
        pl.gain_derivative(1.0)


def _bisected_inverse(s, xs, gs):
    """inf{x >= 0 : G(x) <= s} of the interpolated table, bisected to 1e-12 max(1, x)."""
    if s >= gs[0]:
        return 0.0
    if s < gs[-1]:
        return math.inf
    lo, hi = float(xs[0]), float(xs[-1])
    while hi - lo > 1e-12 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if np.interp(mid, xs, gs) <= s:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("seed", range(8))
def test_tabulated_inverse_is_exact_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    for k in range(25):
        n = int(rng.integers(2, 9))
        scale = 10.0 ** rng.uniform(-300, -250) if k % 5 == 0 else 10.0 ** rng.uniform(-3, 3)
        xs = np.cumsum(rng.uniform(0.01, 1.0, n)) * scale
        if k % 3 == 0:
            xs[0] = 0.0
        gs = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
        if k % 2 == 0:  # a flat segment
            i = int(rng.integers(0, n - 1))
            gs[i + 1] = gs[i]
        pl = PathLoss.tabulated(xs, gs)
        levels = np.concatenate([rng.uniform(gs[-1], gs[0], 30), gs, [0.5 * gs[-1]]])
        x = pl.gain_inverse(levels)
        ref = np.array([_bisected_inverse(s, xs, gs) for s in levels])
        assert np.array_equal(np.isinf(x), np.isinf(ref))
        on = np.isfinite(ref)
        assert np.all(pl.gain(x[on]) <= levels[on])  # exactly, not within a tolerance
        assert np.all(np.abs(x[on] - ref[on]) <= 1e-12 * np.maximum(1.0, ref[on]))
        assert pl.gain_inverse(float(levels[0])) == x[0]


def test_tabulated_validation():
    with pytest.raises(ParameterError):
        PathLoss.tabulated([0, 1, 2], [1.0, 1.1, 0.5])  # not non-increasing
    with pytest.raises(ParameterError):
        PathLoss.tabulated([0, 1, 1], [1.0, 0.5, 0.2])  # not strictly increasing x
    with pytest.raises(ParameterError):
        PathLoss.tabulated([0, 1], [1.0, -0.1])
