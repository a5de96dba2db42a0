import math
import warnings

import numpy as np
import pytest

from relaysim import distributions as dist
from relaysim import metrics
from relaysim.errors import ParameterError
from relaysim.model import Fading, PathLoss, snr_from_db
from relaysim.montecarlo import MonteCarloConfig, run_trials
from relaysim.numerics import f_exp_e1

PL = PathLoss.power_law(4.0)
SNR = snr_from_db(5.0)


def test_conditional_rate_examples():
    # no fading, link snr 3 -> half of log2(4)
    pl1 = PathLoss.shifted_power_law(1.0)
    r = metrics.conditional_rate(2.0, 9.0, pl1, Fading.NONE)  # 9 * 1/3 = 3
    assert r.value == pytest.approx(1.0)
    assert r.fading is Fading.NONE
    far = metrics.conditional_rate(1e6, SNR, PL, Fading.NONE)
    assert far.value == pytest.approx(0.0, abs=1e-12)
    far_ray = metrics.conditional_rate(1e6, SNR, PL, Fading.RAYLEIGH)
    assert far_ray.value == pytest.approx(0.0, abs=1e-12)


def test_rayleigh_average_below_no_fading():
    # averaging the concave log over unit-mean fading can only lose rate
    for g in (1.0, 1.5, 2.5):
        ray = metrics.conditional_rate(g, SNR, PL, Fading.RAYLEIGH).value
        none = metrics.conditional_rate(g, SNR, PL, Fading.NONE).value
        assert 0 < ray < none


def test_average_rate_optimum_against_oracle():
    # 30-digit oracle values at intensity 50
    assert metrics.average_rate_optimum(50.0, 1.0, SNR, PL, Fading.NONE).value == \
        pytest.approx(0.971305127434752, abs=1e-7)
    assert metrics.average_rate_optimum(50.0, 1.0, SNR, PL, Fading.RAYLEIGH).value == \
        pytest.approx(0.811023643785489, abs=1e-7)


def test_average_rate_c2d_against_oracle():
    law = dist.closest_to_destination_cqi_law(50.0, 1.0)
    assert metrics.average_rate(law, SNR, PL, Fading.NONE).value == \
        pytest.approx(0.13073355051458, abs=1e-6)
    assert metrics.average_rate(law, SNR, PL, Fading.RAYLEIGH).value == \
        pytest.approx(0.12218965208952, abs=1e-6)


def test_average_rate_matches_simulation():
    lam = 1.0
    batch = run_trials(MonteCarloConfig(lam, 1.0), 40_000, 5)
    for fading in Fading:
        ana = metrics.average_rate_optimum(lam, 1.0, SNR, PL, fading).value
        sims = np.array([metrics.conditional_rate(g, SNR, PL, fading).value
                         for g in batch.gamma_opt])
        se = sims.std() / math.sqrt(sims.size)
        assert abs(sims.mean() - ana) < 3 * se


def test_s_star_anchor():
    assert metrics.s_star(0.3) == pytest.approx(0.6022, abs=1e-3)
    assert metrics.s_star(0.0) == 0.0
    # round trip: the averaged rate at s* equals the target
    for rho in (0.1, 0.5, 1.0):
        s = metrics.s_star(rho)
        from relaysim.numerics import f_exp_e1
        assert f_exp_e1(1.0 / s) / (2 * math.log(2)) == pytest.approx(rho, rel=1e-9)


def test_outage_branches():
    assert metrics.outage(0.0, 1.0, 1.0, SNR, PL, Fading.NONE) == 0.0
    cap = 0.5 * math.log2(1.0 + SNR)  # metric floor at d = 1
    assert metrics.outage(cap, 1.0, 1.0, SNR, PL, Fading.NONE) == 1.0
    assert metrics.outage(cap + 0.2, 1.0, 1.0, SNR, PL, Fading.NONE) == 1.0
    mid = metrics.outage(0.5, 1.0, 1.0, SNR, PL, Fading.NONE)
    assert 0.0 < mid < 1.0
    rhos = np.linspace(0.05, 1.2, 16)
    for fading in Fading:
        vals = [metrics.outage(r, 1.0, 1.0, SNR, PL, fading) for r in rhos]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_outage_rayleigh_sandwich():
    for rho in np.arange(0.1, 1.01, 0.1):
        for lam in (0.5, 1.0, 2.0):
            ray = metrics.outage(rho, lam, 1.0, SNR, PL, Fading.RAYLEIGH)
            lo = dist.best_received_snr_cdf(2 ** (2 * rho) - 1.0, lam, 1.0, SNR, PL)
            hi = dist.best_received_snr_cdf((2 ** (4 * rho) - 1.0) / 2.0, lam, 1.0, SNR, PL)
            assert lo - 1e-12 <= ray <= hi + 1e-12


def test_mean_feedback_load_values():
    assert metrics.mean_feedback_load(0.5, 1.0, 1.0) == 0.0
    assert metrics.mean_feedback_load(1.0, 1.0, 1.0) == 0.0
    # closed anchor 8 pi / 3 - 2 sqrt(3)
    assert metrics.mean_feedback_load(2.0, 1.0, 1.0) == pytest.approx(
        8 * math.pi / 3 - 2 * math.sqrt(3), rel=1e-14)
    for lam, expected in ((2.0, 3.1), (3.0, 4.65), (4.0, 6.2)):
        assert metrics.mean_feedback_load(1.5, lam, 1.0) == pytest.approx(expected, abs=0.05)
    # continuity at the floor
    assert metrics.mean_feedback_load(1.0 + 1e-9, 1.0, 1.0) < 1e-8


def test_mean_feedback_load_matches_simulation():
    lam, t = 1.0, 2.0
    batch = run_trials(MonteCarloConfig(lam, 1.0, threshold=t), 50_000, 17)
    mu = metrics.mean_feedback_load(t, lam, 1.0)
    se = batch.n_feedback.std() / math.sqrt(batch.n_trials)
    assert abs(batch.n_feedback.mean() - mu) < 3 * se


def test_threshold_for_load_roundtrip():
    assert metrics.threshold_for_load(0.0, 1.0, 1.0) == 1.0
    assert metrics.threshold_for_load(4.913478794435027, 1.0, 1.0) == pytest.approx(
        2.0, abs=1e-6)
    for mu0 in (1.0, 5.0, 20.0):
        t = metrics.threshold_for_load(mu0, 2.0, 0.7)
        assert metrics.mean_feedback_load(t, 2.0, 0.7) == pytest.approx(mu0, abs=1e-8)


def test_average_rate_feedback():
    with pytest.raises(ParameterError):
        metrics.average_rate_feedback(0.5, 1.0, 1.0, SNR, PL, Fading.NONE)
    assert metrics.average_rate_feedback(1.0, 1.0, 1.0, SNR, PL, Fading.NONE).value == 0.0
    full = metrics.average_rate_optimum(1.0, 1.0, SNR, PL, Fading.RAYLEIGH).value
    assert metrics.average_rate_feedback(50.0, 1.0, 1.0, SNR, PL,
                                         Fading.RAYLEIGH).value == pytest.approx(full, abs=1e-9)
    t5 = metrics.threshold_for_load(5.0, 1.0, 1.0)
    gated = metrics.average_rate_feedback(t5, 1.0, 1.0, SNR, PL, Fading.RAYLEIGH).value
    assert gated == pytest.approx(full, rel=0.01)  # load five is almost all-feedback
    ts = np.linspace(1.0, 4.0, 12)
    vals = [metrics.average_rate_feedback(t, 1.0, 1.0, SNR, PL, Fading.NONE).value
            for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_outage_feedback_regimes():
    # regime split at snr = 5 dB, alpha 4, rho 0.3 (s* just below snr G(1.5))
    for t in (1.1, 1.25, 1.5):
        p, regime = metrics.outage_feedback(t, 0.3, 1.0, 1.0, SNR, PL, Fading.RAYLEIGH)
        assert regime is metrics.OutageRegime.FEEDBACK_LIMITED
        assert p == pytest.approx(math.exp(-metrics.mean_feedback_load(t, 1.0, 1.0)))
        p_none, regime_none = metrics.outage_feedback(t, 0.3, 1.0, 1.0, SNR, PL, Fading.NONE)
        assert regime_none is metrics.OutageRegime.FEEDBACK_LIMITED
        assert p_none == p  # fading cannot matter here
    p, regime = metrics.outage_feedback(2.0, 0.3, 1.0, 1.0, SNR, PL, Fading.RAYLEIGH)
    assert regime is metrics.OutageRegime.RATE_LIMITED
    assert p == pytest.approx(metrics.outage(0.3, 1.0, 1.0, SNR, PL, Fading.RAYLEIGH))
    cap = 0.5 * math.log2(1.0 + SNR)
    p, regime = metrics.outage_feedback(2.0, cap + 0.1, 1.0, 1.0, SNR, PL, Fading.NONE)
    assert (p, regime) == (1.0, metrics.OutageRegime.ALWAYS_OUTAGE)


def test_outage_feedback_large_threshold_is_all_feedback():
    for rho in (0.1, 0.3, 0.8):
        for fading in Fading:
            p, _ = metrics.outage_feedback(60.0, rho, 1.0, 1.0, SNR, PL, fading)
            assert p == pytest.approx(metrics.outage(rho, 1.0, 1.0, SNR, PL, fading),
                                      abs=1e-9)


@pytest.mark.parametrize("pl", [PL, PathLoss.shifted_power_law(4.0),
                                PathLoss.tabulated([0.0, 1.0, 2.0, 10.0], [1.0, 0.5, 0.1, 1e-4])],
                         ids=["power-law", "shifted", "tabulated"])
@pytest.mark.parametrize("fading", list(Fading), ids=lambda f: f.value)
@pytest.mark.parametrize("d", [0.5, 1.0])
def test_infinite_threshold_feedback_equals_all_feedback_bit_for_bit(pl, fading, d):
    """The experiments report all feedback as threshold feedback at T = inf."""
    for lam in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        assert (metrics.average_rate_feedback(math.inf, lam, d, SNR, pl, fading).value
                == metrics.average_rate_optimum(lam, d, SNR, pl, fading).value)
        for rho in (0.0, 0.3, 0.5, 3.0):
            assert (metrics.outage_feedback(math.inf, rho, lam, d, SNR, pl, fading)[0]
                    == metrics.outage(rho, lam, d, SNR, pl, fading))


def test_any_feedback_probability_matches_simulation():
    lam, t = 0.5, 2.0
    batch = run_trials(MonteCarloConfig(lam, 1.0, threshold=t), 50_000, 23)
    mu = metrics.mean_feedback_load(t, lam, 1.0)
    p_any = float(np.mean(batch.n_feedback >= 1))
    assert abs(p_any - (-math.expm1(-mu))) < 3 * math.sqrt(p_any * (1 - p_any) / batch.n_trials)


def test_rate_upper_bound_dominates_optimum():
    for fading in Fading:
        for lam in (0.5, 2.0):
            bound = metrics.midpoint_rate_upper_bound(lam, 1.0, SNR, PL, fading).value
            opt = metrics.average_rate_optimum(lam, 1.0, SNR, PL, fading).value
            assert bound >= opt
            assert metrics.optimality_rate_gap(lam, 1.0, SNR, PL, fading) >= 0.0


def test_rate_gap_grows_with_intensity_but_bound_holds():
    gaps = [metrics.optimality_rate_gap(lam, 1.0, SNR, PL, Fading.NONE)
            for lam in (1.0, 4.0)]
    assert gaps[1] > gaps[0]
    bound = metrics.midpoint_rate_upper_bound(4.0, 1.0, SNR, PL, Fading.NONE).value
    assert bound >= metrics.average_rate_optimum(4.0, 1.0, SNR, PL, Fading.NONE).value


def test_rate_ordering_across_policies():
    # optimum beats mid-point everywhere; mid-point beats closest-to-destination
    # at this reference configuration (not claimed universally)
    for lam in (0.5, 2.0):
        for fading in Fading:
            r_opt = metrics.average_rate_optimum(lam, 1.0, SNR, PL, fading).value
            r_mid = metrics.average_rate(dist.midpoint_cqi_law(lam, 1.0),
                                         SNR, PL, fading).value
            r_c2d = metrics.average_rate(dist.closest_to_destination_cqi_law(lam, 1.0),
                                         SNR, PL, fading).value
            assert r_opt >= r_mid - 1e-10
            assert r_mid >= r_c2d - 1e-10


def test_outage_decay_slope_diagnostics():
    # indicative only: the log-outage curves are not exactly linear, so the
    # fitted slope depends on the window; check the reported ballpark
    slope = metrics.outage_decay_slope("optimum", 0.5, 1.0, SNR, PL, Fading.NONE)
    assert slope == pytest.approx(0.35, abs=0.05)
    slope = metrics.outage_decay_slope("optimum", 0.5, 1.0, SNR, PL, Fading.RAYLEIGH)
    assert slope == pytest.approx(0.24, abs=0.05)
    slope = metrics.outage_decay_slope("mid-point", 0.5, 1.0, SNR, PL, Fading.RAYLEIGH)
    assert slope == pytest.approx(0.14, abs=0.05)
    with pytest.raises(ParameterError):
        metrics.outage_decay_slope("nope", 0.5, 1.0, SNR, PL, Fading.NONE)


def test_rate_result_converts_to_a_python_float():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = float(metrics.RateResult(np.float64(1.25), Fading.NONE))
    assert type(value) is float and value == 1.25
    rates = metrics.conditional_rate(np.array([1.5, 2.0]), SNR, PL, Fading.NONE)
    with pytest.raises(TypeError):
        float(rates)


def test_full_duplex_scaling():
    r = metrics.RateResult(1.03, Fading.NONE)
    assert metrics.full_duplex_rate(r).value == pytest.approx(2.06)
    assert metrics.full_duplex_rate(metrics.RateResult(0.0, Fading.NONE)).value == 0.0
    twice = metrics.full_duplex_rate(metrics.full_duplex_rate(r))
    assert twice.value == pytest.approx(4.12)  # scaling is not idempotent


@pytest.mark.parametrize("fading", list(Fading))
def test_conditional_rate_array_matches_scalar_calls(fading):
    gammas = np.array([1.0, 1.3, 2.0, 7.5, 40.0, 1e3, 1e6, math.inf])
    rates = metrics.conditional_rate(gammas, SNR, PL, fading)
    assert rates.fading is fading
    assert isinstance(rates.value, np.ndarray) and rates.value.shape == gammas.shape
    expected = [metrics.conditional_rate(float(g), SNR, PL, fading).value for g in gammas]
    assert np.array_equal(rates.value, expected)
    # the per-trial formula: half log2(1 + s) or f(1/s) / (2 ln 2), s = snr * g^-4
    links = [SNR * g ** -4.0 for g in gammas[:-1]]
    formula = [0.5 * math.log2(1.0 + s) if fading is Fading.NONE
               else f_exp_e1(1.0 / s) / (2.0 * math.log(2.0)) for s in links]
    assert rates.value[:-1] == pytest.approx(formula, rel=4 * np.finfo(float).eps)
    assert rates.value[-1] == 0.0
    grid = metrics.conditional_rate(gammas.reshape(2, 4), SNR, PL, fading).value
    assert np.array_equal(grid, rates.value.reshape(2, 4))


@pytest.mark.parametrize("fading", list(Fading))
def test_conditional_rate_non_finite_metric_gives_zero(fading):
    assert metrics.conditional_rate(math.inf, SNR, PL, fading).value == 0.0
    assert metrics.conditional_rate(math.nan, SNR, PL, fading).value == 0.0
    # a bounded gain would give a positive rate at an infinite metric
    pl = PathLoss.tabulated([0.0, 1.0, 10.0], [1.0, 0.5, 0.1])
    values = metrics.conditional_rate(np.array([1.0, math.inf]), SNR, pl, fading).value
    assert values[0] > 0 and values[1] == 0.0


@pytest.mark.parametrize("fading", list(Fading))
def test_conditional_rate_zero_dim_input_gives_float(fading):
    for gamma in (np.float64(1.5), np.array(1.5)):
        value = metrics.conditional_rate(gamma, SNR, PL, fading).value
        assert type(value) is float
        assert value == metrics.conditional_rate(1.5, SNR, PL, fading).value


def test_mean_feedback_load_infinite_threshold_is_infinite():
    assert metrics.mean_feedback_load(math.inf, 1.0, 1.0) == math.inf
    assert metrics.mean_feedback_load(math.inf, 0.2, 3.0) == math.inf


def test_feedback_load_past_the_float_range_is_infinite_not_nan():
    assert metrics.mean_feedback_load(1e200, 1.0, 1.0) == math.inf
    assert metrics.threshold_for_load(math.inf, 1.0, 1.0) == math.inf
    t = metrics.threshold_for_load(1e300, 1.0, 1.0)
    assert metrics.mean_feedback_load(t, 1.0, 1.0) == pytest.approx(1e300, rel=1e-9)
    # 30-digit value just above the floor, where the terms nearly cancel
    assert metrics.mean_feedback_load(1.0 + 1e-6, 1.0, 1.0) == pytest.approx(
        3.7712374857953019571e-9, rel=1e-9)


@pytest.mark.parametrize("t, load", [
    (1.0 + 1e-9, 1.1925697364277655718e-13),
    (1.0 + 1e-12, 3.771739075143379384e-18),
])
def test_feedback_load_keeps_relative_precision_at_the_floor(t, load):
    # 50-digit mpmath of 2 (t^2 atan(root) - root), root = sqrt(t^2 - 1), at the float t
    assert metrics.mean_feedback_load(t, 1.0, 1.0) == pytest.approx(load, rel=1e-13, abs=0)


def _feedback_thresholds(d):
    """Thresholds d (1 + 10^-k) for k = 1..15, 40 seeded interior points, 1e3 d and 1e100 d."""
    near = d * (1.0 + 10.0 ** -np.arange(1.0, 16.0))
    inner = d * np.random.default_rng(17).uniform(1.0, 10.0, 40)
    return np.concatenate([near, inner, [1e3 * d, 1e100 * d]])


@pytest.mark.parametrize("lam", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("d", [0.5, 1.0, 3.0])
def test_mean_feedback_load_to_a_few_ulps_of_mpmath(lam, d):
    # 2 lam (t^2 acos(d/t) - d sqrt(t^2 - d^2)) at 50 digits, at the float t.
    # The load is lam times the equal lens, which holds 4 ulps on its own
    # (test_equal_lens_area_to_a_few_ulps_of_mpmath); the product with lam and
    # the lens's inputs scaled by d, exact only for powers of two, add up to
    # about 1 ulp more, and 6 leaves 1 ulp of margin. The worst point reads 4.3.
    mpmath = pytest.importorskip("mpmath")
    ts = _feedback_thresholds(d)
    got = [metrics.mean_feedback_load(float(t), lam, d) for t in ts]
    with mpmath.workdps(50):
        md, ml = mpmath.mpf(d), mpmath.mpf(lam)
        exact = [2 * ml * (t * t * mpmath.acos(md / t) - md * mpmath.sqrt(t * t - md * md))
                 for t in map(mpmath.mpf, ts)]
        ulps = [float(abs(mpmath.mpf(v) - e) / np.spacing(float(e))) for v, e in zip(got, exact)]
    assert max(ulps) <= 6.0


@pytest.mark.parametrize("lam, d", [(0.1, 0.5), (1.0, 1.0), (4.0, 3.0)])
def test_threshold_for_load_round_trip_at_near_floor_loads(lam, d):
    for t in d * (1.0 + 10.0 ** -np.arange(1.0, 16.0)):
        load = metrics.mean_feedback_load(float(t), lam, d)
        back = metrics.threshold_for_load(load, lam, d)
        assert metrics.mean_feedback_load(back, lam, d) == pytest.approx(load, rel=1e-9, abs=0)


@pytest.mark.parametrize("fading", list(Fading))
def test_conditional_rate_infinite_link_snr_gives_infinite_rate(fading):
    pl = PathLoss.power_law(4.0)
    assert metrics.conditional_rate(0.0, 3.0, pl, fading).value == math.inf
    gammas = np.array([0.0, 1.0, 1.5, 0.0, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = metrics.conditional_rate(gammas, 3.0, pl, fading).value
    expected = [metrics.conditional_rate(g, 3.0, pl, fading).value for g in gammas]
    assert np.array_equal(got, expected)
    assert got[0] == got[3] == math.inf and got[4] == 0.0
    assert 0.0 < got[2] < got[1] < math.inf


# mpmath (25 and 34 digits agree) of the rate against each policy density over
# its whole support, SNR 5 dB, G(x) = x^-4
RATE_ORACLE = {
    ("optimum", 1.0, 1.0, Fading.NONE): 0.5447934993327584781861,
    ("optimum", 1.0, 1.0, Fading.RAYLEIGH): 0.4653834101241917264211,
    ("mid-point", 1.0, 1.0, Fading.NONE): 0.5159347525278669332078,
    ("mid-point", 1.0, 1.0, Fading.RAYLEIGH): 0.4417162244976420485093,
    ("closest-to-destination", 1.0, 1.0, Fading.NONE): 0.1636390293717209293696,
    ("closest-to-destination", 1.0, 1.0, Fading.RAYLEIGH): 0.1483871214263236938736,
    ("optimum", 3.0, 0.7, Fading.NONE): 1.340855068220723042914,
    ("optimum", 3.0, 0.7, Fading.RAYLEIGH): 1.121738409438032029184,
    ("mid-point", 3.0, 0.7, Fading.NONE): 1.282386558296048243114,
    ("mid-point", 3.0, 0.7, Fading.RAYLEIGH): 1.073144329977649344158,
    ("closest-to-destination", 3.0, 0.7, Fading.NONE): 0.4706200088958677102838,
    ("closest-to-destination", 3.0, 0.7, Fading.RAYLEIGH): 0.4053396837306543817806,
}


@pytest.mark.parametrize("policy,lam,d,fading", sorted(RATE_ORACLE, key=str))
def test_average_rate_oracle_values(policy, lam, d, fading):
    law = dist.policy_law(policy, lam, d)
    assert metrics.average_rate(law, SNR, PL, fading).value == pytest.approx(
        RATE_ORACLE[policy, lam, d, fading], abs=1e-12)


@pytest.mark.parametrize("fading,expected", [
    (Fading.NONE, 0.4897514548615492592775), (Fading.RAYLEIGH, 0.4160580684839188514466)])
def test_average_rate_feedback_oracle_values(fading, expected):
    # mpmath: the rate against the best-CQI density over [1, 1.5]
    got = metrics.average_rate_feedback(1.5, 1.0, 1.0, SNR, PL, fading).value
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("fading,expected", [
    (Fading.NONE, 0.09580242849318388308253), (Fading.RAYLEIGH, 0.07799607232991216735256)])
def test_optimality_rate_gap_oracle_values(fading, expected):
    # mpmath: the double integral over the nearest relay's norm and angle
    assert metrics.optimality_rate_gap(1.0, 1.0, SNR, PL, fading) == pytest.approx(
        expected, abs=1e-12)


def test_s_star_large_rate_matches_asymptote():
    # e^x E1(x) = -gamma_E - ln x + O(x) as x = 1/s -> 0, so s* -> 4^rho e^gamma_E
    assert metrics.s_star(50.0) == pytest.approx(4.0 ** 50 * math.exp(np.euler_gamma), rel=1e-9)
    assert metrics.s_star(600.0) == math.inf


@pytest.mark.parametrize("rho,fading", [(25.0, Fading.RAYLEIGH), (600.0, Fading.NONE),
                                        (600.0, Fading.RAYLEIGH)])
def test_outage_is_one_for_rates_beyond_reach(rho, fading):
    assert metrics.outage(rho, 1.0, 1.0, SNR, PL, fading) == 1.0
    assert metrics.outage_feedback(1.5, rho, 1.0, 1.0, SNR, PL, fading) == (
        1.0, metrics.OutageRegime.ALWAYS_OUTAGE)


@pytest.mark.parametrize("policy,lam,d,fading", [
    ("closest-to-destination", 1e3, 1.0, Fading.NONE),
    ("closest-to-destination", 1e3, 1.0, Fading.RAYLEIGH),
    ("optimum", 1e3, 2.0, Fading.NONE), ("mid-point", 1e3, 2.0, Fading.NONE),
    ("optimum", 1e-4, 0.5, Fading.NONE)])
def test_average_rate_matches_adaptive_quadrature(policy, lam, d, fading):
    # the closest-to-destination density peaks at 2d with width ~ 1/sqrt(pi lam),
    # and one panel over [d, 2d + r] misses it by 3e-3; at lam d^2 = 4000 the
    # density sits within ~3e-3 of d; at 1e-4 the rate falls like gamma^-4 over a
    # support reaching 2d + 357. Without the panel splits the last three miss by
    # 1e-9, 2e-8 and 1.3e-11 (relative)
    from scipy import integrate
    law = dist.policy_law(policy, lam, d)
    r = math.sqrt(40.0 / (math.pi * lam))
    w = d * (lam * d * d) ** (-2.0 / 3.0)
    points = sorted(p for p in (d + w, d + 4 * w, d + 16 * w, d + 64 * w, 2 * d - r, 2 * d,
                                2 * d + r, 10 * d, 100 * d) if d < p < 2 * d + 2 * r)

    def f(g):
        return metrics.conditional_rate(g, SNR, PL, fading).value * law.pdf(g)

    ref, _ = integrate.quad(f, d, 2 * d + 2 * r, points=points, epsabs=1e-16, epsrel=1e-13,
                            limit=1000)
    assert metrics.average_rate(law, SNR, PL, fading).value == pytest.approx(ref, rel=1e-12, abs=0.0)
