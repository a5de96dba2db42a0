import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from relaysim import metrics
from relaysim.errors import BracketError, NumericError, ParameterError
from relaysim.numerics import (QuadratureResult, chi2_sf, erfc_scaled, exp_integral_e1,
                               f_exp_e1, poisson_pmf, poisson_ppf, poisson_sf,
                               quad_adaptive, solve_above_floor, solve_monotone)

# frozen from a 30-digit series/continued-fraction computation done before the build
E1_TABLE = {
    0.5: 0.559773594776160812,
    1.0: 0.219383934395520274,
    2.0: 0.048900510708061120,
    10.0: 4.156968929685324e-06,
}


@pytest.mark.parametrize("x,expected", sorted(E1_TABLE.items()))
def test_e1_frozen_values(x, expected):
    assert exp_integral_e1(x) == pytest.approx(expected, rel=1e-12)


def test_e1_matches_scipy_across_scales():
    xs = np.logspace(-3, 2.5, 40)
    ours = np.array([exp_integral_e1(float(x)) for x in xs])
    assert np.allclose(ours, sp.exp1(xs), rtol=1e-12, atol=0)


def test_e1_domain_error():
    with pytest.raises(ParameterError):
        exp_integral_e1(0.0)
    with pytest.raises(ParameterError):
        f_exp_e1(-1.0)


def test_e1_positive_and_decreasing():
    xs = np.logspace(-2, 2, 25)
    vals = [exp_integral_e1(float(x)) for x in xs]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_f_exp_e1_value():
    assert f_exp_e1(1.0) == pytest.approx(math.e * E1_TABLE[1.0], rel=1e-12)


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0, 1e4])
def test_f_exp_e1_sandwich(x):
    # 0.5 ln(1 + 2/x) < e^x E1(x) < ln(1 + 1/x)
    f = f_exp_e1(x)
    assert 0.5 * math.log1p(2.0 / x) < f < math.log1p(1.0 / x)


def test_f_exp_e1_monotone_and_overflow_safe():
    xs = np.logspace(-3, 5, 60)
    vals = [f_exp_e1(float(x)) for x in xs]
    assert all(math.isfinite(v) for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert f_exp_e1(1e6) == pytest.approx(1e-6, rel=1e-3)


def test_erfc_scaled_basics():
    assert erfc_scaled(0.0) == 1.0
    # matches exp(x^2) erfc(x) where the direct product is still finite
    for x in (0.5, 1.0, 3.0):
        assert erfc_scaled(x) == pytest.approx(math.exp(x * x) * math.erfc(x), rel=1e-12)
    assert 0 < erfc_scaled(1e6) < 1e-5


def test_quad_constant():
    res = quad_adaptive(lambda x: 1.0, 0.0, 1.0, tol=1e-12)
    assert isinstance(res, QuadratureResult)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.evaluations > 0


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_quad_error_estimate_bounds_true_error_on_polynomials(degree):
    coeffs = np.arange(1, degree + 2, dtype=float)
    exact = sum(c / (k + 1) for k, c in enumerate(coeffs))
    res = quad_adaptive(lambda x: sum(c * x ** k for k, c in enumerate(coeffs)),
                        0.0, 1.0, tol=1e-10)
    assert abs(res.value - exact) <= max(res.abs_error_estimate, 1e-13)


def test_quad_semi_infinite():
    res = quad_adaptive(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-9)
    res = quad_adaptive(lambda x: math.exp(-(x - 3.0) ** 2), 3.0, math.inf, tol=1e-10)
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-9)


def test_quad_failure_raises():
    with pytest.raises(NumericError):
        quad_adaptive(lambda x: math.sin(1.0 / x) / x, 1e-9, 1.0, tol=1e-13, limit=3)


def test_solve_monotone_basics():
    root = solve_monotone(lambda x: x * x, 2.0, 0.0, 2.0)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
    with pytest.raises(BracketError):
        solve_monotone(lambda x: x, 5.0, 0.0, 1.0)


def test_solve_monotone_interval_widening():
    narrow = solve_monotone(lambda x: math.expm1(x), 1.0, 0.0, 1.0)
    wide = solve_monotone(lambda x: math.expm1(x), 1.0, 0.0, 50.0)
    assert narrow == pytest.approx(wide, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-0.9, max_value=4.0))
def test_solve_monotone_recovers_point(target_x):
    target = math.atan(target_x)
    got = solve_monotone(math.atan, target, -1.0, 5.0, tol=1e-12)
    assert got == pytest.approx(target_x, abs=1e-9)


@pytest.mark.parametrize("root", [1e-100, 1e-12, 1.0, 1e12, 1e100])
def test_solve_above_floor_keeps_relative_precision_at_any_scale(root):
    assert solve_above_floor(lambda x: x ** 3, root ** 3, 0.0, 1.0) == pytest.approx(
        root, rel=1e-11, abs=0)
    # above a floor of 2 the offset is bisected to 1e-12 of itself, then rounded
    got = solve_above_floor(lambda x: x - 2.0, root, 2.0, 2.0)
    assert abs(got - (2.0 + root)) <= 2e-12 * root + 4.5e-16


def test_solve_above_floor_ends():
    assert solve_above_floor(math.atan, -1.0, 0.0, 1.0) == 0.0  # reached at the floor
    assert solve_above_floor(math.atan, 2.0, 0.0, 1.0) == math.inf  # atan < pi/2 < 2


# the bracketed search through its two callers in metrics
@pytest.mark.parametrize("rho", [1e-14, 1e-10, 1e-6])
def test_s_star_round_trip_at_tiny_rates(rho):
    s = metrics.s_star(rho)
    assert f_exp_e1(1.0 / s) / (2 * math.log(2)) == pytest.approx(rho, rel=1e-9, abs=0)


def test_threshold_for_load_round_trip_near_the_floor():
    t = metrics.threshold_for_load(1e-9, 1.0, 1e-3)
    assert metrics.mean_feedback_load(t, 1.0, 1e-3) == pytest.approx(1e-9, rel=1e-9, abs=0)


# frozen from 40-digit mpmath, mp.exp(x) * mp.e1(x): the asymptotic branch
F_ASYMPTOTIC_TABLE = {
    600.0: 0.0016638981021579472347,
    700.0: 0.0014265364183008866918,
    1000.0: 0.000999001994023880715,
    1e4: 9.999000199940023988e-05,
}


@pytest.mark.parametrize("x,expected", sorted(F_ASYMPTOTIC_TABLE.items()))
def test_f_exp_e1_asymptotic_frozen_values(x, expected):
    assert f_exp_e1(x) == pytest.approx(expected, rel=1e-13)


def test_f_exp_e1_array_matches_scalar_calls():
    xs = np.concatenate([np.logspace(-6, 6, 300), [600.0, np.nextafter(600.0, np.inf)]])
    got = f_exp_e1(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert np.array_equal(got, [f_exp_e1(float(x)) for x in xs])
    assert isinstance(f_exp_e1(np.float64(2.0)), float)
    assert f_exp_e1(xs.reshape(2, -1)).shape == (2, xs.size // 2)


def test_f_exp_e1_non_increasing_across_branch_switch():
    xs = np.linspace(599.0, 601.0, 20001)
    assert np.all(np.diff(f_exp_e1(xs)) <= 0)


@pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -2.0], [math.nan], [2.0, math.nan]])
def test_f_exp_e1_array_domain_error(bad):
    with pytest.raises(ParameterError):
        f_exp_e1(np.array(bad))


@pytest.mark.parametrize("mu", [0.0, 1e-300, 1e-12, 0.3, 5.0, 300.0])
def test_poisson_helpers_equal_scipy_stats_bit_for_bit(mu):
    k = np.arange(401)
    assert np.array_equal(poisson_pmf(k, mu), stats.poisson.pmf(k, mu))
    assert np.array_equal(poisson_sf(k, mu), stats.poisson.sf(k, mu))
    # q at the law's own cdf values is where the inverse can overshoot an integer
    q = np.concatenate(([0.5, 0.9999], stats.poisson.cdf(k[:60], mu)))
    q = q[(q > 0) & (q < 1)]
    assert np.array_equal(poisson_ppf(q, mu), stats.poisson.ppf(q, mu))


def test_poisson_ppf_steps_down_where_the_inverse_overshoots():
    q = float(stats.poisson.cdf(1, 0.3))
    assert math.ceil(sp.pdtrik(q, 0.3)) == 2
    assert poisson_ppf(q, 0.3) == stats.poisson.ppf(q, 0.3) == 1.0


@pytest.mark.parametrize("dof", [1, 2, 7, 30])
def test_chi2_sf_equals_scipy_stats_bit_for_bit(dof):
    x = np.concatenate(([0.0], np.logspace(-3, 3, 400)))
    assert np.array_equal(chi2_sf(x, dof), stats.chi2.sf(x, dof))


IMPORT_PROBE = """
import contextlib, io, math, os, sys, tempfile
import relaysim, relaysim.cli

def loaded():
    return sorted(m for m in ("numpy", "scipy.special", "scipy.stats", "scipy.integrate")
                  if m in sys.modules)

print(loaded())
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    relaysim.cli.main(["simulate", "--lambda", "1", "--d", "1", "--tau", "10", "--trials",
                       "1000", "--seed", "1", "--out", os.path.join(tmp, "trials.csv")])
print(loaded())
from relaysim import pointprocess, policies
from relaysim.model import LinkBudget, NetworkGeometry, snr_from_db
budget = LinkBudget(snr=snr_from_db(5.0), snr_relay=snr_from_db(5.0),
                    snr_destination=snr_from_db(10.0))
for spec in (pointprocess.DiscHomogeneous(1.0, 4.0),
             pointprocess.DiscWithExclusion(1.0, 1.0, 4.0),
             pointprocess.CircleHomogeneous(1.0, 4.0),
             pointprocess.GaussianCluster(30.0, 1.5)):
    for seed in range(20):
        field = pointprocess.sample(spec, seed)
        if field.n:
            for kind in policies.PolicyKind:
                policies.select(field, kind, NetworkGeometry(1.0), budget=budget,
                                threshold=3.0, path_loss_exponent=4.0)
print(loaded())
import numpy as np
from relaysim import numerics
values = getattr(numerics, sys.argv[1])(*eval(sys.argv[2]))  # the first special function
print(loaded(), numerics._sp is sys.modules["scipy.special"], [float(v).hex() for v in values])
value = numerics.quad_adaptive(lambda x: math.exp(-x) * x, 0.0, math.inf).value
print("scipy.integrate" in sys.modules, value.hex())
"""

# (helper, its arguments as an expression over np, the direct scipy.special expression)
SPECIAL_FIRST_CALLS = [
    ("poisson_pmf", "np.arange(6), 2.5",
     lambda k, mu: np.exp(sp.xlogy(k, mu) - sp.gammaln(k + 1) - mu)),
    ("f_exp_e1", "np.array([1e-3, 0.5, 1.0, 10.0, 500.0]),",
     lambda x: np.exp(x) * sp.exp1(x)),
]


def test_import_loads_neither_scipy_stats_nor_integrate_before_a_quadrature():
    """A fresh interpreter: importing relaysim, a Monte Carlo ``simulate`` and
    sampling fields and selecting relays with every policy load numpy but no
    scipy module; the first special-function call loads ``scipy.special``
    with the values of the direct ``scipy.special`` expressions, and the
    first quadrature loads ``scipy.integrate``."""
    quad = quad_adaptive(lambda x: math.exp(-x) * x, 0.0, math.inf).value
    for name, args, direct in SPECIAL_FIRST_CALLS:
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, name, args],
                              capture_output=True, text=True, check=True)
        imported, simulated, selected, special, integrated = proc.stdout.splitlines()
        assert imported == simulated == selected == "['numpy']", name
        expected = [float(v).hex() for v in direct(*eval(args))]
        # loaded, bound to the module itself (no stand-in left on the call path), bit-equal
        assert special == f"['numpy', 'scipy.special'] True {expected}", name
        assert integrated == f"True {quad.hex()}", name
