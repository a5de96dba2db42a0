import math

import numpy as np
import pytest

from relaysim.errors import EmptyFieldError, ParameterError
from relaysim.kernels import field_stats
from relaysim.model import LinkBudget, NetworkGeometry, selection_metric
from relaysim.policies import (PolicyKind, PolicyOutcome, select,
                               sufficient_condition_holds)
from relaysim.pointprocess import (AnnulusUniform, CircleHomogeneous, DiscHomogeneous,
                                   DiscWithExclusion, GaussianCluster, sample)

GEOM = NetworkGeometry(1.0)

ALL_FEEDBACK_POLICIES = (PolicyKind.OPTIMUM, PolicyKind.MID_POINT,
                         PolicyKind.CLOSEST_TO_DESTINATION,
                         PolicyKind.CLOSEST_TO_SOURCE)


def test_optimum_picks_midpoint_relay():
    out = select(np.array([[0.0, 0.0], [3.0, 0.0]]), PolicyKind.OPTIMUM, GEOM)
    assert out.selected == (0.0, 0.0)
    assert out.gamma == 1.0
    assert out.n_feedback == 2


def test_midpoint_and_optimum_agree_on_crafted_field():
    field = np.array([[0.0, 0.5], [0.6, 0.0]])
    mid = select(field, PolicyKind.MID_POINT, GEOM)
    opt = select(field, PolicyKind.OPTIMUM, GEOM)
    assert mid.selected == (0.0, 0.5)
    assert mid.gamma == pytest.approx(math.sqrt(1.25))
    assert opt.selected == mid.selected  # 1.6 > sqrt(1.25)
    assert selection_metric((0.6, 0.0), GEOM) == pytest.approx(1.6)


def test_threshold_feedback_empty_report_set():
    out = select(np.array([[0.0, 2.0]]), PolicyKind.THRESHOLD_FEEDBACK, GEOM,
                 threshold=2.0)
    assert out.selected is None and out.gamma is None
    assert out.n_feedback == 0
    assert selection_metric((0.0, 2.0), GEOM) == pytest.approx(math.sqrt(5.0))


def test_threshold_feedback_selects_optimum_when_any_report():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pts = rng.uniform(-4, 4, size=(rng.integers(1, 30), 2))
        fb = select(pts, PolicyKind.THRESHOLD_FEEDBACK, GEOM, threshold=2.0)
        opt = select(pts, PolicyKind.OPTIMUM, GEOM)
        if fb.n_feedback >= 1:
            assert fb.selected == opt.selected
            assert fb.gamma == opt.gamma
        else:
            assert opt.gamma > 2.0


def test_threshold_infinite_reproduces_optimum():
    rng = np.random.default_rng(1)
    for _ in range(100):
        pts = rng.uniform(-5, 5, size=(rng.integers(1, 40), 2))
        fb = select(pts, PolicyKind.THRESHOLD_FEEDBACK, GEOM, threshold=math.inf)
        opt = select(pts, PolicyKind.OPTIMUM, GEOM)
        assert fb == opt


def test_optimum_dominance_over_sampled_fields():
    spec = DiscHomogeneous(1.0, 6.0)
    for seed in range(300):
        f = sample(spec, seed)
        if f.n == 0:
            continue
        best = select(f, PolicyKind.OPTIMUM, GEOM).gamma
        for kind in ALL_FEEDBACK_POLICIES[1:]:
            assert best <= select(f, kind, GEOM).gamma + 1e-12


def test_closest_policies():
    pts = np.array([[0.9, 0.1], [-0.9, 0.1], [0.0, 0.05]])
    c2d = select(pts, PolicyKind.CLOSEST_TO_DESTINATION, GEOM)
    csrc = select(pts, PolicyKind.CLOSEST_TO_SOURCE, GEOM)
    assert c2d.selected == (0.9, 0.1)
    assert csrc.selected == (-0.9, 0.1)
    # gamma is the selection metric at the chosen relay, not the distance used to choose
    assert c2d.gamma == pytest.approx(selection_metric((0.9, 0.1), GEOM))


def test_diff_snr_policy():
    budget = LinkBudget(snr=1.0, snr_relay=16.0, snr_destination=1.0)
    s1, s2 = budget.effective_scales(4.0)
    assert (s1, s2) == (0.5, 1.0)
    # relay nearer the destination wins under the down-weighted source leg
    pts = np.array([[0.5, 0.0], [-0.5, 0.0]])
    out = select(pts, PolicyKind.OPTIMUM_DIFF_SNR, GEOM, budget=budget,
                 path_loss_exponent=4.0)
    assert out.selected == (0.5, 0.0)
    assert out.gamma == pytest.approx(max(s1 * 1.5, s2 * 0.5))


def test_tie_break_lowest_index():
    pts = np.array([[0.0, 0.5], [0.0, -0.5]])
    out = select(pts, PolicyKind.OPTIMUM, GEOM)
    assert out.selected == (0.0, 0.5)


def test_empty_field_errors():
    empty = np.empty((0, 2))
    for kind in ALL_FEEDBACK_POLICIES:
        with pytest.raises(EmptyFieldError):
            select(empty, kind, GEOM)
    out = select(empty, PolicyKind.THRESHOLD_FEEDBACK, GEOM, threshold=1.5)
    assert out == PolicyOutcome(None, None, 0, None)
    with pytest.raises(EmptyFieldError):
        sufficient_condition_holds(empty, GEOM)
    with pytest.raises(ParameterError):
        select(empty, PolicyKind.THRESHOLD_FEEDBACK, GEOM)  # no threshold given


def test_sufficient_condition_examples():
    # a Python bool, as annotated, for either outcome
    assert sufficient_condition_holds(np.array([[0.0, 0.1], [5.0, 5.0]]), GEOM) is True
    # metric at nearest relay 1.5 exceeds hyperplane bound sqrt(1 + 0.51^2)
    assert sufficient_condition_holds(np.array([[0.5, 0.0], [0.0, 0.51]]), GEOM) is False
    assert sufficient_condition_holds(np.array([[3.0, 4.0]]), GEOM) is True


def test_sufficient_condition_implies_midpoint_optimal():
    spec = DiscHomogeneous(1.5, 6.0)
    hits = 0
    for seed in range(500):
        f = sample(spec, 40_000 + seed)
        if f.n == 0:
            continue
        if sufficient_condition_holds(f, GEOM):
            hits += 1
            mid = select(f, PolicyKind.MID_POINT, GEOM)
            opt = select(f, PolicyKind.OPTIMUM, GEOM)
            assert mid.selected == opt.selected
    assert hits > 20  # the certificate actually fires on this configuration


def test_outcome_gamma_matches_metric():
    f = sample(DiscHomogeneous(1.0, 5.0), 9)
    for kind in ALL_FEEDBACK_POLICIES:
        out = select(f, kind, GEOM)
        assert out.gamma == pytest.approx(selection_metric(out.selected, GEOM))
        assert out.n_feedback == f.n
        if f.n >= 2:
            norms = np.hypot(f.points[:, 0], f.points[:, 1])
            assert out.second_nearest_norm == pytest.approx(np.partition(norms, 1)[1])


BUDGET = LinkBudget(snr=3.0, snr_relay=3.0, snr_destination=10.0)
ARGS = dict(budget=BUDGET, threshold=3.0, path_loss_exponent=4.0)


def _outcomes(field, geometry=GEOM):
    return [select(field, kind, geometry, **ARGS) for kind in PolicyKind]


def test_select_on_a_field_agrees_with_field_stats():
    # field_stats reduces squared distances, select hypot: equal to a few ulps
    fields = [sample(spec, seed) for spec in (
        DiscHomogeneous(1.0, 4.0), DiscWithExclusion(1.0, 1.0, 4.0),
        CircleHomogeneous(1.0, 4.0), GaussianCluster(30.0, 1.5))
        for seed in range(40)]
    fields += [sample(AnnulusUniform(0.5, 3.0, count), 7) for count in (0, 1)]
    pts = np.concatenate([f.points for f in fields])
    offsets = np.concatenate(([0], np.cumsum([f.n for f in fields])))
    st = field_stats(pts[:, 0], pts[:, 1], offsets, 1.0, 3.0,
                     *BUDGET.effective_scales(4.0))
    K = PolicyKind
    for t, f in enumerate(fields):
        if f.n == 0:
            assert select(f, K.THRESHOLD_FEEDBACK, GEOM, **ARGS) == PolicyOutcome(None, None, 0)
            continue
        got = dict(zip(K, _outcomes(f)))
        # circle relays all sit at one norm up to rounding: check the norm chosen
        assert got[K.MID_POINT].selected.norm() == pytest.approx(st.psi_mid[t], rel=1e-15)
        assert got[K.OPTIMUM].selected == tuple(pts[st.idx_opt[t]])  # a batch index
        want = {K.OPTIMUM: st.gamma_opt[t], K.CLOSEST_TO_DESTINATION: st.gamma_c2d[t],
                K.CLOSEST_TO_SOURCE: st.gamma_csrc[t], K.OPTIMUM_DIFF_SNR: st.gamma_diff[t],
                K.MID_POINT: selection_metric(got[K.MID_POINT].selected, GEOM),
                K.THRESHOLD_FEEDBACK: st.gamma_opt[t] if st.n_feedback[t] else None}
        for kind, out in got.items():
            assert out.n_feedback == (st.n_feedback[t] if kind is K.THRESHOLD_FEEDBACK else f.n)
            assert out.gamma == (None if want[kind] is None
                                 else pytest.approx(want[kind], rel=1e-15))
            assert out.second_nearest_norm == (
                None if f.n == 1 else pytest.approx(st.psi_second[t], rel=1e-15))


def test_select_keeps_one_geometry_per_half_distance():
    f = sample(DiscHomogeneous(1.0, 4.0), 3)
    fresh = {d: _outcomes(np.array(f.points), NetworkGeometry(d)) for d in (1.0, 0.5)}
    for d in (1.0, 0.5, 1.0):
        assert _outcomes(f, NetworkGeometry(d)) == fresh[d]
        assert sufficient_condition_holds(f, NetworkGeometry(d)) == (
            sufficient_condition_holds(np.array(f.points), NetworkGeometry(d)))
    assert sorted(f.derived) == [0.5, 1.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_raise(bad):
    """A NaN relay would otherwise win every argmin, with gamma NaN, and be
    reported by threshold feedback; field_stats rejects the same input."""
    field = np.array([[0.1, 0.2], [bad, 0.0], [2.0, 1.0]])
    for kind in PolicyKind:
        with pytest.raises(ParameterError):
            select(field, kind, GEOM, **ARGS)
    with pytest.raises(ParameterError):
        sufficient_condition_holds(field, GEOM)
    with pytest.raises(ParameterError):
        field_stats(field[:, 0], field[:, 1], [0, 3], 1.0)


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (0, 0), (3,), (2, 3)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_positions_of_another_shape_raise(shape):
    """Only an (n, 2) array is a field, an empty one included."""
    for kind in PolicyKind:
        with pytest.raises(ParameterError):
            select(np.zeros(shape), kind, GEOM, **ARGS)
    with pytest.raises(ParameterError):
        sufficient_condition_holds(np.zeros(shape), GEOM)
