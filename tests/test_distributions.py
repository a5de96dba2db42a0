import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from relaysim import distributions as dist
from relaysim.errors import NumericError, ParameterError, UnsupportedOperationError
from relaysim.model import PathLoss
from relaysim.montecarlo import MonteCarloConfig, ks_statistic, run_trials

# Expected values below marked "30-digit oracle" were computed before the
# build with an independent high-precision integrator (mpmath) straight from
# the defining integrals/expectations; closed-form anchors are spelled out.

# Every law of dist.LAWS: its public evaluators, the cdf then the pdf where it has
# them, and the parameter sets the law-wide tests run on, the first also for the
# array test. Each test reads the floor, mass and kinks off the built law.
LAW_CASES = {
    "optimum": ((dist.best_cqi_cdf, dist.best_cqi_pdf), [(1.0, 1.0), (1.5, 1.0)]),
    "mid-point": ((dist.midpoint_cqi_cdf, dist.midpoint_cqi_pdf), [(1.0, 1.0), (1.5, 1.0)]),
    "closest-to-destination": ((dist.closest_to_destination_cqi_cdf,
                                dist.closest_to_destination_cqi_pdf), [(1.0, 1.0), (1.5, 1.0)]),
    "window": ((dist.best_cqi_cdf_finite,), [(0.5, 1.0, 3.0), (0.05, 1.0, 1.5), (1.0, 1.0, 10.0)]),
    "disc-point": ((dist.disc_point_metric_cdf,), [(3.0, 1.0), (1.5, 1.0), (6.0, 0.5)]),
    "annulus": ((), [(2.0, 10.0, 1.0), (5.0, 10.0, 1.0), (0.3, 3.0, 1.0)]),  # public: the ccdf
    "exclusion": ((dist.exclusion_cqi_cdf,), [(1.0, r, d) for r, d in (
        (1.5, 1.0), (0.01, 1.0), (0.3, 1.0), (20.0, 1.0), (5.0, 0.5))]),
    "ring": ((dist.ring_cqi_cdf,), [(1.0, 1.5, 1.0)]),
    "gaussian-cluster": ((dist.gaussian_cqi_cdf,), [(30.0, 1.5, 1.0), (50.0, 1.0, 1.0)]),
    "unequal-snr": ((dist.unequal_snr_cqi_cdf,), [(1.0, 0.5, 1.0, 1.5), (4.0, 1.0, 0.8, 1.0)]),
}


def _public_name(name, kind="cdf"):
    """The law's public cdf or pdf by name; the registry name and kind where it has none."""
    publics = LAW_CASES[name][0]
    i = ("cdf", "pdf").index(kind)
    return publics[i].__name__ if i < len(publics) else f"{name}-{kind}"


def _first_law(name):
    return dist.LAWS[name](*LAW_CASES[name][1][0])


def test_every_law_has_a_case():
    assert sorted(LAW_CASES) == sorted(dist.LAWS)


def test_best_cqi_cdf_boundary_and_closed_values():
    # the floor, below it and +inf: test_law_array_matches_scalar_calls[best_cqi_cdf]
    # at gamma = sqrt(2) d the exponent is 2(pi/4) - 1 per leg: 1 - e^(2-pi)
    assert dist.best_cqi_cdf(math.sqrt(2), 1.0, 1.0) == pytest.approx(
        1.0 - math.exp(2.0 - math.pi), rel=1e-14)


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


# 50-digit oracle (mpmath) of the lens share 2 (g^2 acos(d/g) - d sqrt(g^2 - d^2))/(pi tau^2)
# at window radius 3, half distance 1, from 1e-15 to 1e-3 relative above the floor
WINDOW_FLOOR_ORACLE = [
    (1.000000000000001, 4.934085747899360819272904343e-24),
    (1.000000000001, 1.33397981747093886985244229006e-19),
    (1.000000001, 4.2178526340950588788853603513e-15),
    (1.000001, 1.33380241652838606149179682839e-10),
    (1.001, 0.00000421932809009469513304117140757),
]


def test_disc_point_metric_cdf_keeps_relative_precision_above_its_floor():
    gs, expected = np.array(WINDOW_FLOOR_ORACLE).T
    got = dist.disc_point_metric_cdf(gs, 3.0, 1.0)
    assert np.all(np.abs(got - expected) <= 2e-15 * expected)


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


def test_c2d_law_oracle_values():
    for g, (c, p) in C2D_ORACLE.items():
        assert dist.closest_to_destination_cqi_cdf(g, 1.0, 1.0) == pytest.approx(c, abs=1e-10)
        assert dist.closest_to_destination_cqi_pdf(g, 1.0, 1.0) == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("name", [name for name in LAW_CASES if _first_law(name).pdf],
                         ids=lambda name: f"{_public_name(name)}-{_public_name(name, 'pdf')}")
def test_benchmark_laws_monotone_normalized_consistent(name):
    law = _first_law(name)
    floor = law.support_min
    cdf = law.cdf(np.linspace(floor, 5.0 * floor, 60))
    assert np.all(np.diff(cdf) >= -1e-12)
    assert law.cdf(12.0 * floor) == pytest.approx(law.total_mass, abs=1e-8)
    h = 2e-5 * floor
    for g in floor * np.array([1.3, 1.9, 2.6]):
        num = (law.cdf(g + h) - law.cdf(g - h)) / (2 * h)
        assert num == pytest.approx(law.pdf(g), abs=1e-4)


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
    assert np.abs(iso - dist.best_cqi_cdf(gs, 1.0, 1.0)).max() < 1e-14


def test_isotropic_cdf_matches_the_disc_window():
    # the homogeneous disc (lambda = 1, tau = 3) as a mean measure with a rim at tau
    tau = 3.0

    def iso(g):
        return dist.isotropic_best_cqi_cdf(g, lambda r: math.pi * np.minimum(r * r, tau * tau),
                                           1.0, kinks=(tau,))

    gs = np.concatenate([1.0 + np.logspace(-3, 0, 60), np.linspace(2.0, tau + 3.0, 200),
                         tau + 1.0 + np.array([-1e-9, 0.0, 1e-9])])
    ref = dist.best_cqi_cdf_finite(gs, 1.0, 1.0, tau)
    assert np.all(np.abs(iso(gs) - ref) <= 1e-12 * ref)
    near = dist.best_cqi_cdf_finite(1.0 + 1e-6, 1.0, 1.0, tau)
    assert abs(iso(1.0 + 1e-6) - near) <= 1e-9 * near


def test_isotropic_pdf_matches_the_homogeneous_density():
    gs = np.linspace(1.001, 5.0, 200)
    ref = dist.best_cqi_pdf(gs, 1.0, 1.0)
    for mm in (lambda r: math.pi * r * r, None):  # closed-form or recovered measure
        pdf = dist.isotropic_best_cqi_pdf(gs, np.ones_like, 1.0, mean_measure=mm)
        assert np.all(np.abs(pdf - ref) <= 1e-12 * ref)


ISOTROPIC_FIELDS = {  # (radial intensity, mean measure, kinks, metric values)
    "gaussian": (lambda r: 50.0 / (2 * math.pi) * np.exp(-r * r / 2.0),  # 50 points, spread 1
                 lambda r: -50.0 * np.expm1(-r * r / 2.0), (), (1.2, 1.6, 2.2)),
    "exclusion": (lambda r: np.where(r > 2.0, 1.0, 0.0),  # unit intensity outside radius 2
                  lambda r: math.pi * np.maximum(r * r - 4.0, 0.0), (2.0,),
                  (2.3, 2.6, 2.9, 3.2, 4.0)),
}


def test_isotropic_pdf_consistent_with_cdf():
    h = 1e-5
    for lam_fn, mm, kinks, gs in ISOTROPIC_FIELDS.values():
        for g in gs:
            num = (dist.isotropic_best_cqi_cdf(g + h, mm, 1.0, kinks)
                   - dist.isotropic_best_cqi_cdf(g - h, mm, 1.0, kinks)) / (2 * h)
            pdf = dist.isotropic_best_cqi_pdf(g, lam_fn, 1.0, mean_measure=mm, kinks=kinks)
            assert num == pytest.approx(pdf, rel=1e-4)
            # the mean measure can also be rebuilt on the fixed rule
            pdf2 = dist.isotropic_best_cqi_pdf(g, lam_fn, 1.0, kinks=kinks)
            assert pdf2 == pytest.approx(pdf, rel=1e-6)


@pytest.mark.parametrize("radius", [0.0, math.inf])  # NaN and negative: test_guards
def test_isotropic_laws_reject_a_kink_that_is_not_a_positive_radius(radius):
    for call in (dist.isotropic_best_cqi_cdf, dist.isotropic_best_cqi_pdf):
        with pytest.raises(ParameterError, match="kinks"):
            call(1.5, lambda r: math.pi * r * r, 1.0, kinks=(1.0, radius))


LAW_PROBE = """
import math, sys
import numpy as np
from relaysim import distributions as dist
for name, cases in eval(sys.argv[1]).items():
    for params in cases:
        law = dist.LAWS[name](*params)
        gs = law.support_min * np.linspace(1.0, 6.0, 50)
        law.cdf(gs)
        if law.pdf is not None:
            law.pdf(gs)
gs = np.linspace(1.0, 5.0, 50)
dist.isotropic_best_cqi_cdf(gs, lambda r: math.pi * np.minimum(r * r, 9.0), 1.0, kinks=(3.0,))
dist.isotropic_best_cqi_pdf(gs, np.ones_like, 1.0)
dist.gaussian_cqi_cdf(gs, 30.0, 1.5, 1.0)
dist.prob_midpoint_optimal(1.0, 1.0)
print(sorted(m for m in sys.modules if m.startswith("scipy.integrate")))
"""


def test_no_law_loads_scipy_integrate():
    """A fresh interpreter evaluates every law of LAW_CASES, both isotropic laws, the
    Gaussian cluster and mid-point optimality on the fixed rule alone."""
    cases = {name: params for name, (_, params) in LAW_CASES.items()}
    proc = subprocess.run([sys.executable, "-c", LAW_PROBE, repr(cases)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == ["[]"]


def test_exclusion_example():
    gs = np.linspace(0.5, 6.0, 120)
    assert np.array_equal(dist.exclusion_cqi_cdf(gs, 1.0, 0.0, 1.0),
                          dist.best_cqi_cdf(gs, 1.0, 1.0))
    r = 2.0
    assert dist.exclusion_cqi_cdf(math.hypot(r, 1.0), 1.0, r, 1.0) == 0.0
    # against the rotation-invariant master formula, with the hole's rim as its kink
    def mm(rad):
        return math.pi * np.maximum(rad * rad - r * r, 0.0)
    probe = np.linspace(math.hypot(r, 1.0) + 1e-6, r + 3.0, 40)
    ours = dist.exclusion_cqi_cdf(probe, 1.0, r, 1.0)
    master = dist.isotropic_best_cqi_cdf(probe, mm, 1.0, kinks=(r,))
    assert np.abs(ours - master).max() < 1e-13
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
    # against the master formula, whose mean measure steps at the ring
    def mm(rad):
        return np.where(rad >= r, 2 * math.pi * lam * r, 0.0)
    probe = np.linspace(math.hypot(r, d) + 1e-6, r + d - 1e-9, 20)
    master = dist.isotropic_best_cqi_cdf(probe, mm, d, kinks=(r,))
    assert np.abs(dist.ring_cqi_cdf(probe, lam, r, d) - master).max() < 1e-13


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
        return n * (1 - np.exp(-rad * rad / (2 * sig * sig)))
    probe = np.linspace(1.0, 4.0, 30)
    master = dist.isotropic_best_cqi_cdf(probe, mm, d)
    assert np.abs(dist.gaussian_cqi_cdf(probe, n, sig, d) - master).max() < 1e-13


# 30-digit oracle of 1 - exp(-(2 n/pi) integral_0^(pi/2) (1 - exp(-r^2/(2 sigma^2))) dtheta),
# r = sqrt(gamma^2 - d^2 sin^2 theta) - d cos theta, keyed by (n, sigma, d): from just
# above the floor, where the reach near pi/2 has width sqrt(2 (gamma - d)/d), to 6d + 5 sigma
GAUSSIAN_ORACLE = {
    (50.0, 1.0, 1.0): [
        (1.0000000001, 3.0010547596978621399e-14),
        (1.000001, 3.0010547919455479657e-8),
        (1.00482, 0.0099994141294291359422),
        (1.051841, 0.29999812470739743297),
        (1.116184, 0.70000101263383915486),
        (1.283459, 0.99000011380626973911),
        (11.0, 1.0),
    ],
    (5.0, 0.3, 1.0): [
        (1.0000000001, 3.3345052878788637176e-14),
        (1.000001, 3.3344985757219925788e-8),
        (1.0045, 0.0099317568202254229652),
        (1.051488, 0.29797679444324849092),
        (1.126962, 0.69528343246244366683),
        (1.438717, 0.98332939715491584878),
        (7.5, 0.9932620530009145329),
    ],
    (200.0, 2.0, 0.5): [
        (0.50000000005, 7.5026368993854142377e-15),
        (0.5000005, 7.5026384710442870933e-9),
        (0.5060595, 0.010000022198196715594),
        (0.5638492, 0.30000010870061882961),
        (0.6395663, 0.70000016717616291523),
        (0.8221208, 0.9900000058454693565),
        (13.0, 1.0),
    ],
    (1.0, 5.0, 2.0): [
        (2.0000000002, 9.6033752311946392052e-17),
        (2.000002, 9.6033770912348247988e-11),
        (2.31676, 0.0063212141047035518323),
        (4.903671, 0.18963612425944237005),
        (8.040299, 0.44248440990369531635),
        (15.68448, 0.62579934244976348727),
        (37.0, 0.63212055882436373068),
    ],
    (100.0, 0.05, 2.0): [
        (2.0000000002, 9.6033749234562230276e-11),
        (2.000002, 0.000095998445533411592824),
        (2.000045, 0.010124626150158499153),
        (2.000505, 0.30002492503953354913),
        (2.001212, 0.69990999114315138168),
        (2.003492, 0.99000416958346251822),
        (12.25, 1.0),
    ],
}


@pytest.mark.parametrize("config", sorted(GAUSSIAN_ORACLE),
                         ids=lambda c: "n={:g}-sigma={:g}-d={:g}".format(*c))
def test_gaussian_cdf_against_oracle(config):
    gs, expected = np.array(GAUSSIAN_ORACLE[config]).T
    assert np.abs(dist.gaussian_cqi_cdf(gs, *config) - expected).max() <= 1e-13


DIFF_ORACLE = {  # (gamma; lam=1, d=0.5, scales (1, 1.5)) 30-digit oracle
    0.7: 0.0639972916135709,
    1.0: 0.450214750373257,
    1.5: 0.902715876517862,
    2.0: 0.993198795513544,
}


def test_unequal_snr_cdf():
    assert dist.unequal_snr_support_min(0.5, 1.0, 1.5) == pytest.approx(0.6)
    for g, expected in DIFF_ORACLE.items():
        assert dist.unequal_snr_cqi_cdf(g, 1.0, 0.5, 1.0, 1.5) == pytest.approx(
            expected, abs=1e-12)
    gs = np.linspace(0.5, 5.0, 300)
    vals = dist.unequal_snr_cqi_cdf(gs, 1.0, 0.5, 1.0, 1.5)
    assert np.all(np.diff(vals) >= -1e-12)


# 50-digit oracle (mpmath) of 1 - exp(-lens area) at lam=1, d=0.5, scales (1, 1.5),
# at the doubles 0.6 (1 + off) for off from 3e-16 to 1
DIFF_FLOOR_ORACLE = [
    (0.6000000000000001, 1.66372983581095285937074189907e-24),
    (0.6000000000000006, 3.24780401814094460638970783511e-23),
    (0.600000000000006, 9.17532038489553137775045143855e-22),
    (0.6000000000000599, 2.91606462701931291631352410896e-20),
    (0.6000000000006, 9.23883617701798742042662270375e-19),
    (0.60000000006, 9.23760032591823012619316336149e-16),
    (0.6000000059999999, 9.23760415028204114745082972335e-13),
    (0.6000005999999999, 9.23760730230977124776935732987e-10),
    (0.6000599999999999, 0.00000092379002554170189190428988617),
    (0.606, 0.000926326572296694546080498914079),
    (0.66, 0.0296907745998587940765676015945),
    (1.2, 0.690287787894954428805285900421),
]


def test_unequal_snr_cdf_just_above_its_support_minimum():
    gs, expected = np.array(DIFF_FLOOR_ORACLE).T
    got = dist.unequal_snr_cqi_cdf(gs, 1.0, 0.5, 1.0, 1.5)
    assert np.all(got >= 0.0)
    assert np.abs(got - expected).max() <= 2e-16


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


def test_law_quantile_at_the_ends_of_the_mass():
    law = dist.best_cqi_law(1.0, 1.0)
    # the cdf grows like (gamma - d)^(3/2): p = 1e-300 lies within an ulp of the floor
    tiny = law.quantile(1e-300)
    assert 1.0 < tiny <= np.nextafter(1.0, 2.0)
    assert law.cdf(tiny) >= 1e-300
    top = np.nextafter(1.0, 0.0)
    x = law.quantile(top)
    assert math.isfinite(x)
    assert law.cdf(x * (1 - 1e-11)) <= top <= law.cdf(x * (1 + 1e-11))
    # the window law reaches its total mass at gamma = window radius + d
    finite = dist.best_cqi_law_finite(0.05, 1.0, 1.5)
    assert 1.0 < finite.quantile(np.nextafter(finite.total_mass, 0.0)) <= 2.5
    assert finite.quantile(finite.total_mass) == math.inf


def test_tail_exponent_trend():
    # -ln pdf / gamma^2 climbs toward pi * intensity as gamma grows
    lam = 1.0
    vals = [-dist.best_cqi_log_pdf(g, lam, 1.0) / g ** 2 for g in (5, 10, 20, 40)]
    gaps = [abs(v - math.pi * lam) for v in vals]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] / (math.pi * lam) < 0.04


def test_best_cqi_lens_properties():
    # the best-CQI exponent |lens| vanishes at d, increases, and grows like pi gamma^2
    from relaysim.distributions import _lens_area
    d = 0.7
    assert _lens_area(2.0 * d, np.asarray(d), np.asarray(d)) == 0.0
    gs = np.linspace(d, 50.0 * d, 200)
    vals = _lens_area(2.0 * d, gs, gs)
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] / gs[-1] ** 2 == pytest.approx(math.pi, rel=0.06)


def test_equal_lens_area_to_a_few_ulps_of_mpmath():
    # 2 g^2 acos(1/g) - 2 sqrt(g^2 - 1) at 50 digits. At gamma = 1.0354 the
    # segment angle x = 2 alpha lies just above 0.5, where x - sin x cancels
    # unless its series is summed; elsewhere the sum of two rounded segments
    # and the rounded atan2 and sqrt inside them leave up to about 3 ulps.
    mpmath = pytest.importorskip("mpmath")
    from relaysim.distributions import _lens_area
    gs = np.concatenate(([1.0354], np.random.default_rng(16).uniform(1.001, 10.0, 400)))
    got = _lens_area(2.0, gs, gs)
    with mpmath.workdps(50):
        exact = [2 * g * g * mpmath.acos(1 / g) - 2 * mpmath.sqrt(g * g - 1)
                 for g in map(mpmath.mpf, gs)]
        ulps = np.array([abs(mpmath.mpf(v) - e) / np.spacing(float(e))
                         for v, e in zip(got, exact)], dtype=float)
    assert ulps[0] <= 1.0
    assert ulps.max() <= 4.0


# 50-digit mpmath at lambda = d = 1: (gamma, cdf, pdf, lambda |lens|)
BEST_CQI_ORACLE = [
    (1.000000000001, 3.771739075143379376904484e-18, 5.657105692725941292633907e-6, 3.77e-18),
    (1.000000001, 1.192569736427694460644868e-13, 1.788854457048353026705138e-4, 1.19e-13),
    (1.000001, 3.771237478684185878904831e-9, 5.656857527757150191666558e-3, 3.77e-9),
    (1.001, 1.192915753724520844570772e-4, 1.789684096208798659727495e-1, 1.19e-4),
    (1.5, 7.874846462009704475441379e-1, 1.072440036570138793285612, 1.55),
    (3.0, 9.999999317723045332093863e-1, 1.007826291099652655823991e-6, 16.5),
]


@pytest.mark.parametrize("gamma,cdf,pdf,exponent", BEST_CQI_ORACLE,
                         ids=[f"gamma={row[0]!r}" for row in BEST_CQI_ORACLE])
def test_best_cqi_law_matches_mpmath_up_to_the_floor(gamma, cdf, pdf, exponent):
    assert dist.best_cqi_cdf(gamma, 1.0, 1.0) == pytest.approx(cdf, rel=1e-15, abs=0.0)
    # exp(-lambda |lens|) turns a relative error e in |lens| into lambda |lens| e
    assert dist.best_cqi_pdf(gamma, 1.0, 1.0) == pytest.approx(
        pdf, rel=1e-15 * max(1.0, exponent), abs=0.0)


def test_log_pdf_matches_pdf_where_representable():
    for g in (1.1, 1.5, 3.0, 8.0):
        assert dist.best_cqi_log_pdf(g, 1.0, 1.0) == pytest.approx(
            math.log(dist.best_cqi_pdf(g, 1.0, 1.0)), rel=1e-12)
    assert dist.best_cqi_log_pdf(0.5, 1.0, 1.0) == -math.inf


def test_policy_law_table():
    assert list(dist.POLICY_LAWS) == ["optimum", "mid-point", "closest-to-destination"]
    for policy in dist.POLICY_LAWS:
        law = dist.LAWS[policy](1.5, 1.0)
        assert dist.policy_law(policy, 1.5, 1.0).name == law.name
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_received_snr_laws_at_an_infinite_snr():
    # every link SNR is infinite: no mass and no density at a finite level
    pl = PathLoss.power_law(4.0)
    levels = np.array([0.01, 1.0, 1e300])
    assert np.array_equal(dist.best_received_snr_pdf(levels, 1.0, 1.0, math.inf, pl),
                          np.zeros(3))
    assert dist.best_received_snr_pdf(1.0, 1.0, 1.0, math.inf, pl) == 0.0
    assert np.array_equal(dist.best_received_snr_cdf(levels, 1.0, 1.0, math.inf, pl),
                          np.zeros(3))


def _oracle_case(name, gamma, params, expected):
    return pytest.param(name, gamma, params, expected,
                        id="-".join(map(str, (_public_name(name), gamma, *params, expected))))


# 30-digit oracle (mpmath) of the policy cdfs next to their features: the
# mid-point law just above d, the closest-to-destination law on both sides of 2d
@pytest.mark.parametrize("name,gamma,params,expected", [
    _oracle_case("mid-point", 1.00001, (100.0, 1.0), 1.1910771272784758654e-05),
    _oracle_case("closest-to-destination", 1.9999, (1.0, 1.0), 0.45990709978853025968),
    _oracle_case("closest-to-destination", 2.0001, (1.0, 1.0), 0.46010812054805365086),
    _oracle_case("closest-to-destination", 3.9998, (4.0, 2.0), 0.48964960019444430143),
])
def test_benchmark_cdf_oracle_values_near_features(name, gamma, params, expected):
    assert dist.LAWS[name](*params).cdf(gamma) == pytest.approx(expected, abs=1e-12)


def test_c2d_cdf_graded_nodes_resolve_the_feature_below_2d():
    # 30-digit oracle; evenly spread nodes in v miss it by 2.8e-13
    assert dist.closest_to_destination_cqi_cdf(1.999999, 10.0, 1.0) == pytest.approx(
        0.48740826113179023239, abs=1.5e-13)


def test_benchmark_cdfs_reach_one_where_the_metric_squared_overflows():
    for law in (dist.midpoint_cqi_cdf, dist.closest_to_destination_cqi_cdf):
        with np.errstate(over="ignore"):
            assert law(1e200, 1.0, 1.0) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,kind", [
    pytest.param(name, kind, id=_public_name(name, kind)) for name in LAW_CASES
    for kind in (("cdf", "pdf") if _first_law(name).pdf else ("cdf",))])
def test_law_array_matches_scalar_calls(name, kind):
    law = _first_law(name)
    fn, floor = getattr(law, kind), law.support_min
    gs = np.concatenate([[-1.0, 0.0, floor * 0.999, np.nextafter(floor, 0.0), floor,
                          math.inf, -math.inf, math.nan],
                         np.linspace(floor, 6.0 * floor, 2500)[1:]])  # more than one block
    got = fn(gs)
    scalar = np.array([fn(g) for g in gs])
    assert np.array_equal(got, scalar, equal_nan=True)  # each value is summed on its own
    assert np.array_equal(got[:5], np.zeros(5))  # at and below the floor
    assert got[5] == (law.total_mass if kind == "cdf" else 0.0)
    assert got[6] == 0.0 and math.isnan(got[7])  # -inf is below the floor; NaN stays NaN
    assert np.array_equal(fn(gs[:6].reshape(2, 3)), got[:6].reshape(2, 3))
    publics = LAW_CASES[name][0]
    if publics:  # the law evaluates through its public function
        public = publics[("cdf", "pdf").index(kind)]
        assert np.array_equal(public(gs, *LAW_CASES[name][1][0]), got, equal_nan=True)


_NAN_RULE = {  # the laws beside dist.LAWS, at a metric or link-SNR level
    "received_snr_cdf": lambda x: dist.received_snr_cdf(
        x, dist.best_cqi_law(1.0, 1.0), 3.0, PathLoss.power_law(4.0)),
    "received_snr_pdf": lambda x: dist.received_snr_pdf(
        x, dist.best_cqi_law(1.0, 1.0), 3.0, PathLoss.power_law(4.0)),
    "received_snr_pdf-infinite-snr": lambda x: dist.received_snr_pdf(
        x, dist.best_cqi_law(1.0, 1.0), math.inf, PathLoss.power_law(4.0)),
    "best_cqi_log_pdf": lambda x: dist.best_cqi_log_pdf(x, 1.0, 1.0),
    "annulus_metric_ccdf": lambda x: dist.annulus_metric_ccdf(x, 0.3, 3.0, 1.0),
    "isotropic_best_cqi_cdf": lambda x: dist.isotropic_best_cqi_cdf(
        x, lambda r: math.pi * r * r, 1.0),
    "isotropic_best_cqi_pdf": lambda x: dist.isotropic_best_cqi_pdf(
        x, lambda r: 1.0, 1.0, mean_measure=lambda r: math.pi * r * r),
    "nearest_neighbor_pdf": lambda x: dist.nearest_neighbor_pdf(x, 1.0),
    "nearest_neighbor_cdf": lambda x: dist.nearest_neighbor_cdf(x, 1.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_NAN_RULE))
def test_laws_beside_the_registry_are_nan_at_nan(name):
    fn = _NAN_RULE[name]
    xs = np.array([math.nan, -math.inf, -1.0, 0.0, 0.5, 1.5, 3.0, math.inf])
    got = fn(xs)
    assert math.isnan(got[0]) and not np.isnan(got[1:]).any()
    assert np.array_equal(got, [fn(x) for x in xs], equal_nan=True)


def test_infinite_window_and_exclusion_radii_are_rejected():
    calls = {"window_radius": (lambda: dist.best_cqi_cdf_finite(2.0, 1.0, 1.0, math.inf),
                               lambda: dist.disc_point_metric_cdf(2.0, math.inf, 1.0)),
             "outer_radius": (lambda: dist.annulus_metric_ccdf(2.0, 0.5, math.inf, 1.0),),
             "exclusion_radius": (lambda: dist.exclusion_cqi_cdf(math.inf, 1.0, math.inf, 1.0),)}
    for param, rejected in calls.items():
        for call in rejected:
            with pytest.raises(ParameterError, match=f"{param} must be finite"):
                call()


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
        for g in (1e100, 1e160):  # equal scales: the lens never becomes a disc
            assert dist.unequal_snr_cqi_cdf(g, 1.0, 0.5, 0.8, 0.8) == 1.0
        assert dist.unequal_snr_cqi_cdf(1e200, 1.0, 0.5, 1.0, 1.5) == 1.0


def test_prob_midpoint_optimal_oracle_values_to_1e13():
    for (lam, d), expected in MIDOPT_ORACLE.items():
        assert dist.prob_midpoint_optimal(lam, d) == pytest.approx(expected, abs=1e-13)


def test_prob_midpoint_optimal_at_large_intensity():
    # mpmath (the adaptive path agreed within 3e-14); exp(-intensity P) steepens
    # toward theta = pi/2, and evenly spread angle nodes miss this by 1e-11
    assert dist.prob_midpoint_optimal(1e4, 1.0) == pytest.approx(0.16959831268328033674,
                                                                 abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d", [0.5, 1.0, 2.0])
def test_prob_midpoint_optimal_is_a_probability_or_raises(d):
    # the displacement area cancels at large intensity: 1.357 at 1e16 for d = 1
    for lam in np.logspace(-3, 300, 304):
        try:
            p = dist.prob_midpoint_optimal(float(lam), d)
        except NumericError:
            assert lam > 1e15  # below that the value is off but in range (ROADMAP)
            continue
        assert 0.0 <= p <= 1.0, (lam, p)


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


def _edge_grid(law):
    """Metric values 1 to 1e6 ulps above the law's floor, 1e-13 to 1e-3 relative on
    both sides of each rim or kink (of twice the floor for a law without one), and
    the far tail."""
    floor, features = law.support_min, law.kinks or (2.0 * law.support_min,)
    tail = max(features)
    ulps = np.unique(np.round(np.logspace(0, 6, 25)))
    rel = np.logspace(-13, -3, 21)
    near = [f * (1.0 + sign * rel) for f in features for sign in (-1.0, 1.0)]
    return np.unique(np.concatenate([[floor], floor + ulps * np.spacing(floor), *near,
                                     features, tail * np.array([1.5, 2.0, 4.0, 16.0, 1e3]),
                                     [math.inf]]))


@pytest.mark.parametrize("name,params", [
    pytest.param(name, params, id=f"{_public_name(name)}{params}")
    for name, (_, cases) in LAW_CASES.items() for params in cases])
def test_cdf_keeps_its_shape_at_the_edges(name, params):
    law = dist.LAWS[name](*params)
    vals = law.cdf(_edge_grid(law))
    assert np.all((vals >= 0.0) & (vals <= law.total_mass))
    drop = vals[:-1] - vals[1:]
    assert np.all(drop <= 2.0 * np.spacing(vals[:-1]))


@pytest.mark.parametrize("params", LAW_CASES["annulus"][1], ids=lambda p: "-".join(map(str, p)))
def test_annulus_ccdf_keeps_its_shape_at_the_edges(params):
    vals = dist.annulus_metric_ccdf(_edge_grid(dist.LAWS["annulus"](*params)), *params)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    rise = vals[1:] - vals[:-1]
    assert np.all(rise <= 2.0 * np.spacing(vals[:-1]))
