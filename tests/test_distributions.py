import math
import warnings

import numpy as np
import pytest

from relaysim import distributions as dist
from relaysim.errors import ParameterError, UnsupportedOperationError
from relaysim.model import PathLoss
from relaysim.montecarlo import MonteCarloConfig, ks_statistic, run_trials

# Expected values below marked "30-digit oracle" were computed before the
# build with an independent high-precision integrator (mpmath) straight from
# the defining integrals/expectations; closed-form anchors are spelled out.


def test_best_cqi_cdf_boundary_and_closed_values():
    assert dist.best_cqi_cdf(0.999999, 1.0, 1.0) == 0.0
    assert dist.best_cqi_cdf(1.0, 1.0, 1.0) == 0.0  # shape factor vanishes at the floor
    # at gamma = sqrt(2) d the exponent is 2(pi/4) - 1 per leg: 1 - e^(2-pi)
    assert dist.best_cqi_cdf(math.sqrt(2), 1.0, 1.0) == pytest.approx(
        1.0 - math.exp(2.0 - math.pi), rel=1e-14)
    assert dist.best_cqi_cdf(math.inf, 1.0, 1.0) == 1.0
    assert dist.best_cqi_cdf(-3.0, 1.0, 1.0) == 0.0


def test_best_cqi_cdf_intensity_limit():
    for g in (1.01, 1.2, 2.0):
        assert dist.best_cqi_cdf(g, 1e6, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_best_cqi_cdf_scale_invariance():
    # only intensity * d^2 and gamma/d matter
    assert dist.best_cqi_cdf(2.6, 1.0, 2.0) == pytest.approx(
        dist.best_cqi_cdf(1.3, 4.0, 1.0), rel=1e-14)


@pytest.mark.parametrize("lam,d", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)])
def test_cdf_monotone_and_pdf_consistent(lam, d):
    gs = np.linspace(d * 1.001, d * 6, 200)
    cdf = dist.best_cqi_cdf(gs, lam, d)
    assert np.all(np.diff(cdf) >= 0)
    h = 1e-5 * d
    mid = gs[5:-5:10]
    num = (dist.best_cqi_cdf(mid + h, lam, d) - dist.best_cqi_cdf(mid - h, lam, d)) / (2 * h)
    assert np.allclose(num, dist.best_cqi_pdf(mid, lam, d), atol=1e-4, rtol=1e-6)


def test_best_cqi_pdf_normalizes():
    from relaysim.numerics import quad_adaptive
    total = quad_adaptive(lambda g: dist.best_cqi_pdf(g, 1.0, 1.0), 1.0, math.inf,
                          tol=1e-10)
    assert total.value == pytest.approx(1.0, abs=1e-8)


def test_best_cqi_mean():
    # 30-digit oracle: d + d * integral of the survival shape
    assert dist.best_cqi_mean(1.0, 1.0) == pytest.approx(1.3391392121426676, abs=1e-7)
    assert dist.best_cqi_mean(1000.0, 1.0) == pytest.approx(1.0, rel=0.02)
    assert dist.best_cqi_mean(0.3, 0.5) >= 0.5


def test_disc_point_metric_cdf_matches_oracle_and_joins():
    # 30-digit oracle values, window radius 3, half distance 1
    assert dist.disc_point_metric_cdf(2.1, 3.0, 1.0) == pytest.approx(
        0.204555390409373, abs=1e-12)
    assert dist.disc_point_metric_cdf(3.3, 3.0, 1.0) == pytest.approx(
        0.745789026290961, abs=1e-12)
    seam = math.sqrt(10.0)
    lo = dist.disc_point_metric_cdf(seam - 1e-9, 3.0, 1.0)
    hi = dist.disc_point_metric_cdf(seam + 1e-9, 3.0, 1.0)
    assert hi == pytest.approx(lo, abs=1e-7)
    assert dist.disc_point_metric_cdf(4.0 - 1e-12, 3.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert dist.disc_point_metric_cdf(4.1, 3.0, 1.0) == 1.0
    gs = np.linspace(0.5, 4.5, 400)
    vals = dist.disc_point_metric_cdf(gs, 3.0, 1.0)
    assert np.all(np.diff(vals) >= -1e-12)


def test_finite_window_cdf_branches():
    lam, d, tau = 0.7, 1.0, 3.0
    cap = -math.expm1(-lam * math.pi * tau * tau)
    assert dist.best_cqi_cdf_finite(0.8, lam, d, tau) == 0.0
    assert dist.best_cqi_cdf_finite(tau + d + 0.5, lam, d, tau) == pytest.approx(cap)
    gs = np.linspace(d, tau + d, 200)
    vals = dist.best_cqi_cdf_finite(gs, lam, d, tau)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals <= cap + 1e-15)


def test_finite_window_converges_to_unbounded():
    gs = np.linspace(0.0, 4.0, 300)
    ref = dist.best_cqi_cdf(gs, 1.0, 1.0)
    sups = []
    for tau in (1.5, 2.0, 2.5, 3.0):
        cur = dist.best_cqi_cdf_finite(gs, 1.0, 1.0, tau)
        sups.append(np.abs(cur - ref).max())
    assert all(a > b for a, b in zip(sups, sups[1:]))
    at50 = dist.best_cqi_cdf_finite(1.5, 1.0, 1.0, 50.0)
    assert at50 == pytest.approx(dist.best_cqi_cdf(1.5, 1.0, 1.0), abs=1e-6)


ANNULUS_ORACLE = {  # (t, inner=2, outer=10, d=1) 30-digit oracle
    2.5: 0.998755439528657,
    3.5: 0.959843156170212,
    9.0: 0.317036807655583,
    10.2: 0.0945087402162774,
    10.9: 0.00414879583800857,
}


def test_annulus_ccdf_oracle_values():
    for t, expected in ANNULUS_ORACLE.items():
        assert dist.annulus_metric_ccdf(t, 2.0, 10.0, 1.0) == pytest.approx(
            expected, abs=1e-12)
    assert dist.annulus_metric_ccdf(2.1, 2.0, 10.0, 1.0) == 1.0  # below sqrt(5)
    assert dist.annulus_metric_ccdf(11.0, 2.0, 10.0, 1.0) == 0.0
    vals = dist.annulus_metric_ccdf(np.linspace(2.0, 11.2, 500), 2.0, 10.0, 1.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_annulus_ccdf_hypothesis_check():
    with pytest.raises(ParameterError):
        dist.annulus_metric_ccdf(3.0, 2.0, 2.4, 1.0)  # outer below sqrt(psi^2+2 d psi)
    # inner radius zero degenerates to the full disc law
    t = 2.2
    disc = 1.0 - dist.disc_point_metric_cdf(t, 10.0, 1.0)
    assert dist.annulus_metric_ccdf(t, 0.0, 10.0, 1.0) == pytest.approx(disc, rel=1e-12)


MID_ORACLE = {  # (gamma, lam=1, d=1) -> (cdf, pdf), 30-digit oracle
    1.2: (0.273754109448402552, 1.73149524428472327),
    1.5: (0.725203031309205540, 1.11724467217608965),
    2.0: (0.982054026643086856, 0.123445897997269086),
    3.0: (0.999999055472275594, 1.21631463967800545e-05),
}

C2D_ORACLE = {
    1.5: (0.0852490326439968459, 0.399531113968164599),
    2.5: (0.877752809252972812, 0.511820170899695713),
    3.5: (0.999885766009653841, 1.12959013854038272e-03),
}


def test_midpoint_law_oracle_values():
    for g, (c, p) in MID_ORACLE.items():
        assert dist.midpoint_cqi_cdf(g, 1.0, 1.0) == pytest.approx(c, abs=1e-10)
        assert dist.midpoint_cqi_pdf(g, 1.0, 1.0) == pytest.approx(p, abs=1e-9)
    assert dist.midpoint_cqi_cdf(0.99, 1.0, 1.0) == 0.0
    assert dist.midpoint_cqi_pdf(1.0, 1.0, 1.0) == 0.0  # flat density at the floor


def test_c2d_law_oracle_values():
    for g, (c, p) in C2D_ORACLE.items():
        assert dist.closest_to_destination_cqi_cdf(g, 1.0, 1.0) == pytest.approx(c, abs=1e-10)
        assert dist.closest_to_destination_cqi_pdf(g, 1.0, 1.0) == pytest.approx(p, abs=1e-9)
    assert dist.closest_to_destination_cqi_cdf(0.9, 1.0, 1.0) == 0.0
    assert dist.closest_to_destination_cqi_pdf(1.0, 1.0, 1.0) == 0.0


@pytest.mark.parametrize("law_cdf,law_pdf", [
    (dist.midpoint_cqi_cdf, dist.midpoint_cqi_pdf),
    (dist.closest_to_destination_cqi_cdf, dist.closest_to_destination_cqi_pdf),
])
def test_benchmark_laws_monotone_normalized_consistent(law_cdf, law_pdf):
    gs = np.linspace(1.0, 5.0, 60)
    cdf = law_cdf(gs, 1.0, 1.0)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert law_cdf(12.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-8)
    h = 2e-5
    for g in (1.3, 1.9, 2.6):
        num = (law_cdf(g + h, 1.0, 1.0) - law_cdf(g - h, 1.0, 1.0)) / (2 * h)
        assert num == pytest.approx(law_pdf(g, 1.0, 1.0), abs=1e-4)


def test_benchmark_laws_match_policy_simulation():
    batch = run_trials(MonteCarloConfig(1.0, 1.0), 30_000, 99)
    ks_mid = ks_statistic(batch.gamma_mid, lambda g: dist.midpoint_cqi_cdf(g, 1.0, 1.0))
    ks_c2d = ks_statistic(batch.gamma_c2d,
                          lambda g: dist.closest_to_destination_cqi_cdf(g, 1.0, 1.0))
    assert ks_mid < 0.01
    assert ks_c2d < 0.01


def test_prob_sufficient():
    # closed anchor: with intensity pi d^2 = 1 the value is e * erfc(1)
    lam = 1.0 / math.pi
    assert dist.prob_sufficient(lam, 1.0) == pytest.approx(0.427583576155807, abs=1e-13)
    assert dist.prob_sufficient(1e-9, 1.0) == pytest.approx(1.0, abs=1e-4)
    vals = [dist.prob_sufficient(l, 1.0) for l in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # stays finite and positive far into the overflow zone of exp(lam pi d^2)
    assert 0.0 < dist.prob_sufficient(1000.0, 1.0) < 0.02


MIDOPT_ORACLE = {  # 30-digit oracle of the double integral
    (0.5, 1.0): 0.772385223146481149,
    (1.0, 1.0): 0.721036181039466762,
    (2.0, 1.0): 0.666220940778352446,
    (4.0, 1.0): 0.609865130939208852,
    (1.0, 0.5): 0.818614724658760640,
}


def test_prob_midpoint_optimal_oracle_values():
    for (lam, d), expected in MIDOPT_ORACLE.items():
        assert dist.prob_midpoint_optimal(lam, d) == pytest.approx(expected, abs=2e-6)


def test_prob_midpoint_optimal_limits_and_invariance():
    assert dist.prob_midpoint_optimal(1e-6, 1.0) == pytest.approx(1.0, abs=1e-3)
    assert dist.prob_midpoint_optimal(1.0, 1e-4) == pytest.approx(1.0, abs=1e-3)
    # only intensity * d^2 matters
    assert dist.prob_midpoint_optimal(4.0, 0.5) == pytest.approx(
        dist.prob_midpoint_optimal(1.0, 1.0), abs=1e-6)


def test_received_snr_law():
    pl = PathLoss.power_law(4.0)
    snr = 3.1622776601683795
    law = dist.best_cqi_law(1.0, 1.0)
    top = snr * pl.gain(1.0)
    assert dist.received_snr_cdf(0.0, law, snr, pl) == 0.0
    assert dist.received_snr_cdf(top, law, snr, pl) == 1.0
    assert dist.received_snr_cdf(top * 1.5, law, snr, pl) == 1.0
    ss = np.linspace(1e-3, top * 0.999, 80)
    vals = dist.received_snr_cdf(ss, law, snr, pl)
    assert np.all(np.diff(vals) >= -1e-12)
    # density integrates to one over (0, snr G(d)]
    from relaysim.numerics import quad_adaptive
    total = quad_adaptive(
        lambda s: dist.received_snr_pdf(s, law, snr, pl), 0.0, top, tol=1e-9)
    assert total.value == pytest.approx(1.0, abs=1e-6)
    h = top * 1e-6
    for s in (0.3, 1.0, 2.5):
        num = (dist.received_snr_cdf(s + h, law, snr, pl)
               - dist.received_snr_cdf(s - h, law, snr, pl)) / (2 * h)
        assert num == pytest.approx(dist.received_snr_pdf(s, law, snr, pl), rel=1e-4)


def test_received_snr_pdf_requires_smooth_gain():
    law = dist.best_cqi_law(1.0, 1.0)
    pl = PathLoss.tabulated([0.0, 1.0, 10.0], [1.0, 0.5, 0.0])
    with pytest.raises(UnsupportedOperationError):
        dist.received_snr_pdf(0.3, law, 1.0, pl)


def test_isotropic_reduces_to_homogeneous():
    gs = np.linspace(1.0, 4.0, 50)
    iso = dist.isotropic_best_cqi_cdf(gs, lambda r: math.pi * r * r, 1.0)
    assert np.abs(iso - dist.best_cqi_cdf(gs, 1.0, 1.0)).max() < 1e-8


def test_isotropic_pdf_consistent_with_cdf():
    lam_fn = lambda r: 50.0 / (2 * math.pi) * math.exp(-r * r / 2.0)  # noqa: E731
    mm = lambda r: 50.0 * (1 - math.exp(-r * r / 2.0))  # noqa: E731
    h = 1e-5
    for g in (1.2, 1.6, 2.2):
        num = (dist.isotropic_best_cqi_cdf(g + h, mm, 1.0)
               - dist.isotropic_best_cqi_cdf(g - h, mm, 1.0)) / (2 * h)
        pdf = dist.isotropic_best_cqi_pdf(g, lam_fn, 1.0, mean_measure=mm)
        assert num == pytest.approx(pdf, rel=1e-4)
        # the mean measure can also be rebuilt by quadrature
        pdf2 = dist.isotropic_best_cqi_pdf(g, lam_fn, 1.0)
        assert pdf2 == pytest.approx(pdf, rel=1e-6)


def test_exclusion_example():
    gs = np.linspace(0.5, 6.0, 120)
    assert np.abs(dist.exclusion_cqi_cdf(gs, 1.0, 0.0, 1.0)
                  - dist.best_cqi_cdf(gs, 1.0, 1.0)).max() <= 1e-10
    r = 2.0
    assert dist.exclusion_cqi_cdf(math.hypot(r, 1.0), 1.0, r, 1.0) == 0.0
    # against the rotation-invariant master formula
    def mm(rad):
        return math.pi * max(rad * rad - r * r, 0.0)
    probe = np.linspace(math.hypot(r, 1.0) + 1e-6, r + 3.0, 40)
    ours = dist.exclusion_cqi_cdf(probe, 1.0, r, 1.0)
    master = dist.isotropic_best_cqi_cdf(probe, mm, 1.0)
    assert np.abs(ours - master).max() < 1e-9
    vals = dist.exclusion_cqi_cdf(np.linspace(2.0, 8.0, 300), 1.0, r, 1.0)
    assert np.all(np.diff(vals) >= -1e-12)


def test_ring_example():
    lam, r, d = 1.0, 2.0, 1.0
    assert dist.ring_cqi_cdf(math.hypot(r, d), lam, r, d) == 0.0
    cap = -math.expm1(-2 * lam * math.pi * r)
    assert dist.ring_cqi_cdf(r + d + 0.1, lam, r, d) == pytest.approx(cap)
    assert dist.ring_cqi_cdf(math.inf, lam, r, d) == pytest.approx(cap)
    gs = np.linspace(d, r + d + 1.0, 300)
    vals = dist.ring_cqi_cdf(gs, lam, r, d)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all(vals <= cap + 1e-15)
    # the master-formula quadrature cannot resolve the step of the mean
    # measure right at the support edge, so compare a little inside
    def mm(rad):
        return 2 * math.pi * lam * r if rad >= r else 0.0
    probe = np.linspace(math.hypot(r, d) + 0.05, r + d - 1e-3, 20)
    master = dist.isotropic_best_cqi_cdf(probe, mm, d)
    assert np.abs(dist.ring_cqi_cdf(probe, lam, r, d) - master).max() < 1e-4


def test_gaussian_example():
    n, sig, d = 50.0, 1.0, 1.0
    assert dist.gaussian_cqi_cdf(0.99, n, sig, d) == 0.0
    # 30-digit oracle of the angular integral
    assert dist.gaussian_cqi_cdf(1.5, n, sig, d) == pytest.approx(
        0.999974696488185, abs=1e-10)
    cap = -math.expm1(-n)
    assert dist.gaussian_cqi_cdf(math.inf, n, sig, d) == pytest.approx(cap)
    assert dist.gaussian_cqi_cdf(40.0, n, sig, d) <= cap + 1e-15
    # against the master formula with the closed-form mean measure
    def mm(rad):
        return n * (1 - math.exp(-rad * rad / (2 * sig * sig)))
    probe = np.linspace(1.0, 4.0, 30)
    master = dist.isotropic_best_cqi_cdf(probe, mm, d)
    assert np.abs(dist.gaussian_cqi_cdf(probe, n, sig, d) - master).max() < 1e-10


DIFF_ORACLE = {  # (gamma; lam=1, d=0.5, scales (1, 1.5)) 30-digit oracle
    0.7: 0.0639972916135709,
    1.0: 0.450214750373257,
    1.5: 0.902715876517862,
    2.0: 0.993198795513544,
}


def test_unequal_snr_cdf():
    assert dist.unequal_snr_support_min(0.5, 1.0, 1.5) == pytest.approx(0.6)
    assert dist.unequal_snr_cqi_cdf(0.59, 1.0, 0.5, 1.0, 1.5) == 0.0
    for g, expected in DIFF_ORACLE.items():
        assert dist.unequal_snr_cqi_cdf(g, 1.0, 0.5, 1.0, 1.5) == pytest.approx(
            expected, abs=1e-12)
    gs = np.linspace(0.5, 5.0, 300)
    vals = dist.unequal_snr_cqi_cdf(gs, 1.0, 0.5, 1.0, 1.5)
    assert np.all(np.diff(vals) >= -1e-12)


def test_unequal_snr_equal_scale_reduction():
    gs = np.linspace(1.0, 5.0, 60)
    s = 0.8
    ours = dist.unequal_snr_cqi_cdf(gs * s, 1.0, 1.0, s, s)
    assert np.abs(ours - dist.best_cqi_cdf(gs, 1.0, 1.0)).max() <= 1e-10


def test_unequal_snr_matches_simulation():
    s1, s2 = 1.0, 1.5
    cfg = MonteCarloConfig(1.0, 0.5, scale_source=s1, scale_destination=s2)
    batch = run_trials(cfg, 30_000, 1)
    law = dist.unequal_snr_cqi_law(1.0, 0.5, s1, s2)
    assert ks_statistic(batch.gamma_diff, law.cdf) < 0.01


def test_law_quantile_roundtrip():
    law = dist.best_cqi_law(1.0, 1.0)
    for p in (0.1, 0.5, 0.99):
        x = law.quantile(p)
        assert law.cdf(x) == pytest.approx(p, abs=1e-9)
    finite = dist.best_cqi_law_finite(0.05, 1.0, 1.5)
    assert finite.quantile(finite.total_mass + 1e-3) == math.inf


def test_tail_exponent_trend():
    # -ln pdf / gamma^2 climbs toward pi * intensity as gamma grows
    lam = 1.0
    vals = [-dist.best_cqi_log_pdf(g, lam, 1.0) / g ** 2 for g in (5, 10, 20, 40)]
    gaps = [abs(v - math.pi * lam) for v in vals]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] / (math.pi * lam) < 0.04


def test_lens_shape_properties():
    # the exponent's shape factor vanishes at 1, increases, and ~ (pi/2) x^2
    from relaysim.distributions import _lens_shape
    assert _lens_shape(np.asarray(1.0)) == 0.0
    xs = np.linspace(1.0, 50.0, 200)
    vals = _lens_shape(xs)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / xs[-1] ** 2 == pytest.approx(math.pi / 2, rel=0.06)


def test_log_pdf_matches_pdf_where_representable():
    for g in (1.1, 1.5, 3.0, 8.0):
        assert dist.best_cqi_log_pdf(g, 1.0, 1.0) == pytest.approx(
            math.log(dist.best_cqi_pdf(g, 1.0, 1.0)), rel=1e-12)
    assert dist.best_cqi_log_pdf(0.5, 1.0, 1.0) == -math.inf


def test_policy_law_table():
    for policy, law in (("optimum", dist.best_cqi_law(1.5, 1.0)),
                        ("mid-point", dist.midpoint_cqi_law(1.5, 1.0)),
                        ("closest-to-destination",
                         dist.closest_to_destination_cqi_law(1.5, 1.0))):
        got = dist.policy_law(policy, 1.5, 1.0)
        assert got.name == law.name
        assert got.cdf(1.7) == law.cdf(1.7)
    with pytest.raises(ParameterError):
        dist.policy_law("closest-to-source", 1.5, 1.0)


def _received_snr_cdf_per_level(v, law, snr, pl):
    # the branch values of the per-level definition
    if v <= 0:
        return 0.0
    x = pl.gain_inverse(v / snr)
    return 1.0 - law.cdf(x) if math.isfinite(x) else 1.0 - law.total_mass


def test_received_snr_cdf_array_matches_per_level_branches():
    # finite window: total mass < 1; bounded table gain: infinite inverse below 0.1
    law = dist.best_cqi_law_finite(0.5, 1.0, 3.0)
    pl = PathLoss.tabulated([0.0, 1.0, 10.0], [1.0, 0.5, 0.1])
    snr = 2.0
    levels = np.array([-1.0, 0.0, 0.05, 0.19, 0.2, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0])
    got = dist.received_snr_cdf(levels, law, snr, pl)
    expected = [_received_snr_cdf_per_level(v, law, snr, pl) for v in levels]
    assert np.array_equal(got, expected)
    assert got[0] == got[1] == 0.0
    assert got[2] == 1.0 - law.total_mass
    assert np.array_equal(got, [dist.received_snr_cdf(v, law, snr, pl) for v in levels])


def test_received_snr_pdf_array_matches_per_level_branches():
    law = dist.best_cqi_law(1.0, 1.0)
    pl = PathLoss.power_law(4.0)
    snr = 3.0
    top = snr * pl.gain(1.0)
    levels = np.array([-1.0, 0.0, 0.01, 0.5, 1.0, 2.0, 2.9, top, 2 * top])
    got = dist.received_snr_pdf(levels, law, snr, pl)
    expected = [law.pdf(pl.gain_inverse(v / snr))
                / (snr * abs(pl.gain_derivative(pl.gain_inverse(v / snr))))
                if 0 < v < top else 0.0 for v in levels]
    assert np.array_equal(got, expected)
    assert np.array_equal(got, [dist.received_snr_pdf(v, law, snr, pl) for v in levels])
    assert np.all(got[[0, 1, -2, -1]] == 0.0) and np.all(got[2:-2] > 0)


# 30-digit oracle (mpmath) of the policy cdfs next to their features: the
# mid-point law just above d, the closest-to-destination law on both sides of 2d
@pytest.mark.parametrize("law,gamma,lam,d,expected", [
    (dist.midpoint_cqi_cdf, 1.00001, 100.0, 1.0, 1.1910771272784758654e-05),
    (dist.closest_to_destination_cqi_cdf, 1.9999, 1.0, 1.0, 0.45990709978853025968),
    (dist.closest_to_destination_cqi_cdf, 2.0001, 1.0, 1.0, 0.46010812054805365086),
    (dist.closest_to_destination_cqi_cdf, 3.9998, 4.0, 2.0, 0.48964960019444430143),
])
def test_benchmark_cdf_oracle_values_near_features(law, gamma, lam, d, expected):
    assert law(gamma, lam, d) == pytest.approx(expected, abs=1e-12)


def test_c2d_cdf_graded_nodes_resolve_the_feature_below_2d():
    # 30-digit oracle; evenly spread nodes in v miss it by 2.8e-13
    assert dist.closest_to_destination_cqi_cdf(1.999999, 10.0, 1.0) == pytest.approx(
        0.48740826113179023239, abs=1.5e-13)


def test_benchmark_cdfs_reach_one_where_the_metric_squared_overflows():
    for law in (dist.midpoint_cqi_cdf, dist.closest_to_destination_cqi_cdf):
        with np.errstate(over="ignore"):
            assert law(1e200, 1.0, 1.0) == 1.0


_ARRAY_LAWS = {  # law -> (extra parameters, support floor)
    "midpoint_cqi_cdf": ((1.5, 1.0), 1.0),
    "midpoint_cqi_pdf": ((1.5, 1.0), 1.0),
    "closest_to_destination_cqi_cdf": ((1.5, 1.0), 1.0),
    "closest_to_destination_cqi_pdf": ((1.5, 1.0), 1.0),
    "unequal_snr_cqi_cdf": ((1.0, 0.5, 1.0, 1.5), 0.6),
    "ring_cqi_cdf": ((1.0, 1.5, 1.0), math.hypot(1.5, 1.0)),
    "exclusion_cqi_cdf": ((1.0, 1.5, 1.0), math.hypot(1.5, 1.0)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_LAWS))
def test_law_array_matches_scalar_calls(name):
    law = getattr(dist, name)
    params, floor = _ARRAY_LAWS[name]
    gs = np.concatenate([[-1.0, 0.0, floor * 0.999, floor, math.inf, -math.inf, math.nan],
                         np.linspace(floor, 6.0, 2500)[1:]])  # more than one block of values
    got = law(gs, *params)
    scalar = np.array([law(g, *params) for g in gs])
    assert np.array_equal(got, scalar)  # each value is summed on its own
    assert np.array_equal(got[:4], np.zeros(4))
    assert got[5] == 0.0 and got[6] == 0.0  # -inf and NaN, as best_cqi_cdf
    assert np.array_equal(law(gs[:6].reshape(2, 3), *params), got[:6].reshape(2, 3))


@pytest.mark.parametrize("lam", [1.0, 4.0, 100.0])
def test_benchmark_cdfs_monotone_across_features(lam):
    d = 1.0
    near = np.concatenate([d + d * np.logspace(-12, -1, 400), np.linspace(1.1, 1.5, 400)])
    mid = dist.midpoint_cqi_cdf(near, lam, d)
    assert np.all(np.diff(mid) >= -1e-12) and mid[0] >= 0.0
    across = 2.0 * d + d * np.concatenate([-np.logspace(-1, -12, 400), [0.0],
                                           np.logspace(-12, -1, 400)])
    c2d = dist.closest_to_destination_cqi_cdf(across, lam, d)
    assert np.all(np.diff(c2d) >= -1e-12)


def test_best_laws_where_the_lens_area_overflows():
    # the lens shape grows like (pi/2) x^2 and overflows to +inf near x = 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist.best_cqi_cdf(1e160, 1.0, 1.0) == 1.0
        assert dist.best_cqi_pdf(1e160, 1.0, 1.0) == 0.0
        assert dist.best_cqi_log_pdf(1e160, 1.0, 1.0) == -math.inf
        assert dist.exclusion_cqi_cdf(1e160, 1.0, 1.5, 1.0) == 1.0


def test_prob_midpoint_optimal_oracle_values_to_1e13():
    for (lam, d), expected in MIDOPT_ORACLE.items():
        assert dist.prob_midpoint_optimal(lam, d) == pytest.approx(expected, abs=1e-13)


def test_prob_midpoint_optimal_at_large_intensity():
    # mpmath (the adaptive path agreed within 3e-14); exp(-intensity P) steepens
    # toward theta = pi/2, and evenly spread angle nodes miss this by 1e-11
    assert dist.prob_midpoint_optimal(1e4, 1.0) == pytest.approx(0.16959831268328033674,
                                                                 abs=1e-12)


def test_best_cqi_mean_oracle_value():
    # mpmath at 34 digits: integral of gamma times the density
    assert dist.best_cqi_mean(1.0, 1.0) == pytest.approx(1.339139212142667647151, abs=1e-12)


def test_midpoint_displacement_exponent_array_matches_scalar_loop():
    psi = np.concatenate([[0.0, 1e-9], np.linspace(0.01, 3.0, 40)])
    theta = np.linspace(0.0, math.pi / 2.0, 25)[:, None]
    got = dist.midpoint_displacement_exponent(psi, theta, 0.7)
    assert got.shape == (25, 42)
    loop = [[dist.midpoint_displacement_exponent(float(p), float(t), 0.7) for p in psi]
            for t in theta[:, 0]]
    assert np.array_equal(got, loop)


def test_expect_needs_a_density():
    with pytest.raises(ParameterError):
        dist.best_cqi_law_finite(1.0, 1.0, 3.0).expect(lambda g: g)
    law = dist.best_cqi_law(1.0, 1.0)
    assert law.expect(np.ones_like) == pytest.approx(1.0, abs=1e-13)
    assert law.expect(np.ones_like, 1.5) == pytest.approx(law.cdf(1.5), abs=1e-13)
