import functools
import math
from dataclasses import replace

import pytest

from relaysim import metrics
from relaysim.errors import ParameterError
from relaysim.experiments import (EXPERIMENTS, ExperimentConfig, config_overrides,
                                  describe_experiments, run_experiment)

SMALL = ExperimentConfig(
    n_trials=1500, seed=3, lambdas=(0.5, 2.0), half_distances=(1.0,),
    thresholds=(1.25, 2.0), taus=(2.0, 5.0), nfb_lambdas=(0.5,),
    feedback_lambdas=(1.0,), annulus_cases=((10.0, 2.0),),
    diff_snr_db_pairs=((5.0, 10.0),))


@functools.cache
def _small_rows(name):
    return run_experiment(name, SMALL)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_experiment_produces_wellformed_rows(name):
    rows = _small_rows(name)
    assert rows, name
    for row in rows:
        assert len(row) == 5
        x, series, analytic, simulated, stderr = row
        assert isinstance(series, str) and series
        assert math.isfinite(float(x))
        assert math.isfinite(float(analytic))
        if simulated is not None:
            assert math.isfinite(float(simulated))
            assert float(stderr) >= 0.0


def test_simulated_tracks_analytic_loosely():
    rows = run_experiment("midpoint-optimality", SMALL)
    for x, series, analytic, simulated, stderr in rows:
        assert abs(simulated - analytic) < max(6.0 * stderr, 0.02), (series, x)


def test_unknown_experiment():
    with pytest.raises(ParameterError):
        run_experiment("nope", SMALL)
    with pytest.raises(ParameterError):
        config_overrides(SMALL, not_a_knob=3)


def test_descriptions_cover_all():
    desc = describe_experiments()
    assert set(desc) == set(EXPERIMENTS)
    assert all(desc.values())


def test_rate_feedback_converges_to_all_feedback():
    rows = run_experiment("rate-feedback", SMALL)
    by_series = {}
    for x, series, analytic, *_ in rows:
        by_series.setdefault(series, {})[x] = analytic
    for fading in ("none", "rayleigh"):
        top = by_series[f"all-feedback/{fading}"]
        t2 = by_series[f"T=2/{fading}"]
        for lam in t2:
            assert t2[lam] <= top[lam] + 1e-12


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_no_simulated_row_has_zero_stderr_inside_the_law(name):
    # A frequency's stderr is taken at the analytic probability, so a batch
    # frequency of exactly 0 or 1 cannot make it zero (and every gap a 4-sigma miss).
    zero = [(series, x) for x, series, analytic, simulated, stderr in _small_rows(name)
            if simulated is not None and stderr == 0.0 and 0.0 < analytic < 1.0]
    assert zero == []


def test_feedback_rows_are_shared_with_fixed_load():
    lam = 2.0
    t = metrics.threshold_for_load(SMALL.feedback_load, lam, SMALL.half_distance)
    cfg = replace(SMALL, lambdas=(lam,), thresholds=(t,))
    fixed = {series: row for _, series, *row in run_experiment("fixed-load", cfg)}
    for name, kind in (("rate-feedback", "rate"), ("outage-feedback", "outage")):
        for _, series, *row in run_experiment(name, cfg):
            part, fading = series.split("/")
            other = "all-feedback" if part == "all-feedback" else "selective"
            assert row[:2] == fixed[f"{kind} {other}/{fading}"][:2], (name, series)
