"""Guards on non-negative parameters reject NaN as well as negative values, and
no public law, model or metric function takes a tolerance knob."""
import inspect
import math

import numpy as np
import pytest

from relaysim import distributions as dist
from relaysim import metrics, model
from relaysim.errors import ParameterError
from relaysim.kernels import disc_batch_stats, disc_feedback_counts, field_stats
from relaysim.model import Fading, LinkBudget, NetworkGeometry, PathLoss, snr_from_db
from relaysim.montecarlo import MonteCarloConfig
from relaysim.pointprocess import (AnnulusUniform, CircleHomogeneous, DiscHomogeneous,
                                   DiscWithExclusion, GaussianCluster, _generator)
from relaysim.policies import PolicyKind, select

PL = PathLoss.power_law(4.0)
SNR = snr_from_db(5.0)
FIELD = np.array([[0.1, 0.2], [1.5, -0.4], [-2.0, 1.0]])

ENTRY_POINTS = {
    "MonteCarloConfig.threshold": lambda v: MonteCarloConfig(1.0, 1.0, window_radius=3.0,
                                                             threshold=v),
    "mean_feedback_load": lambda v: metrics.mean_feedback_load(v, 1.0, 1.0),
    "threshold_for_load": lambda v: metrics.threshold_for_load(v, 1.0, 1.0),
    "mean_feedback_load.half_distance": lambda v: metrics.mean_feedback_load(2.0, 1.0, v),
    "threshold_for_load.half_distance": lambda v: metrics.threshold_for_load(1.0, 1.0, v),
    "s_star": lambda v: metrics.s_star(v),
    "outage": lambda v: metrics.outage(v, 1.0, 1.0, SNR, PL, Fading.NONE),
    "outage/rayleigh": lambda v: metrics.outage(v, 1.0, 1.0, SNR, PL, Fading.RAYLEIGH),
    "outage_feedback.threshold": lambda v: metrics.outage_feedback(
        v, 0.3, 1.0, 1.0, SNR, PL, Fading.RAYLEIGH),
    "outage_feedback.target_rate": lambda v: metrics.outage_feedback(
        1.5, v, 1.0, 1.0, SNR, PL, Fading.NONE),
    "average_rate_feedback": lambda v: metrics.average_rate_feedback(
        v, 1.0, 1.0, SNR, PL, Fading.NONE),
    "select.threshold": lambda v: select(FIELD, PolicyKind.THRESHOLD_FEEDBACK,
                                         NetworkGeometry(1.0), threshold=v),
    "LinkBudget.target_rate": lambda v: LinkBudget(2.0, target_rate=v),
    "PathLoss.tabulated.gains": lambda v: PathLoss.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, v]),
    "annulus_metric_ccdf.inner_radius": lambda v: dist.annulus_metric_ccdf(
        2.5, v, 10.0, 1.0),
    "exclusion_cqi_cdf.exclusion_radius": lambda v: dist.exclusion_cqi_cdf(
        1.5, 1.0, v, 1.0),
    "field_stats.threshold": lambda v: field_stats(
        [0.1, 0.5, 2.0], [0.0, 0.0, 0.0], [0, 3], 1.0, threshold=v),
    "disc_batch_stats.threshold": lambda v: disc_batch_stats(
        [0.9, 4.5, 8.1], [0.2, 0.4, 0.6], [0, 3], 1.0, threshold=v),
    "disc_feedback_counts.threshold": lambda v: disc_feedback_counts(
        [0.9, 4.5, 8.1], [0.2, 0.4, 0.6], [0, 3], 1.0, v),
}


@pytest.mark.parametrize("value", [math.nan, -2.0], ids=["nan", "negative"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_or_negative_parameter_raises(entry, value):
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry](value)


# numpy draws no Poisson count above this mean ("lam value too large")
_MAX_MEAN = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)
_ABOVE = float(np.nextafter(_MAX_MEAN, math.inf))

UNDRAWABLE = {
    "DiscHomogeneous.mean_count": lambda: DiscHomogeneous(_ABOVE / math.pi, 1.0),
    "DiscHomogeneous.radius": lambda: DiscHomogeneous(1.0, 1e200),
    "DiscHomogeneous.radius_squared": lambda: DiscHomogeneous(1e-300, 1e155),
    "DiscWithExclusion.mean_count": lambda: DiscWithExclusion(1.0, 1.0, 1e10),
    "DiscWithExclusion.radius_squared": lambda: DiscWithExclusion(1e-300, 1.0, 1e155),
    "CircleHomogeneous.mean_count": lambda: CircleHomogeneous(_ABOVE, 1.0),
    "CircleHomogeneous.radius_squared": lambda: CircleHomogeneous(1e-300, 1e155),
    "GaussianCluster.mean_count": lambda: GaussianCluster(_ABOVE, 1.0),
    "GaussianCluster.spread_squared": lambda: GaussianCluster(30.0, 1.6e153),
    "AnnulusUniform.radius_squared": lambda: AnnulusUniform(0.0, 1e155, 10),
    "MonteCarloConfig.window_radius": lambda: MonteCarloConfig(1.0, 1.0, window_radius=1e10),
    "MonteCarloConfig.intensity": lambda: MonteCarloConfig(1e30, 1.0, window_radius=1.0),
    "MonteCarloConfig.default_window": lambda: MonteCarloConfig(1e-310, 1.0),
    # r^2 maps that underflow: the squared radius, or 2 sigma^2, below the least normal
    "DiscHomogeneous.radius_underflow": lambda: DiscHomogeneous(1.0, 1e-160),
    "DiscWithExclusion.radius_underflow": lambda: DiscWithExclusion(1.0, 0.0, 1e-160),
    "CircleHomogeneous.radius_underflow": lambda: CircleHomogeneous(1e160, 1e-160),
    "GaussianCluster.spread_underflow": lambda: GaussianCluster(5.0, 1e-170),
    "AnnulusUniform.radius_underflow": lambda: AnnulusUniform(0.0, 1e-160, 10),
    "MonteCarloConfig.window_underflow": lambda: MonteCarloConfig(1.0, 1.0, window_radius=1e-160),
}


@pytest.mark.parametrize("entry", sorted(UNDRAWABLE))
def test_a_field_numpy_cannot_draw_raises(entry):
    """A mean count numpy cannot draw, or squared norms that overflow or underflow,
    are rejected where the spec or the config is made."""
    with pytest.raises(ParameterError):
        UNDRAWABLE[entry]()


def test_the_largest_mean_count_is_the_largest_numpy_draws():
    rng = _generator(0)
    rng.poisson(_MAX_MEAN)  # one count, not a field
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(_ABOVE)
    GaussianCluster(_MAX_MEAN, 1.0)
    with pytest.raises(ParameterError):
        GaussianCluster(_ABOVE, 1.0)


def _public_functions(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield from ((f"{name}.{attr}", fn)
                        for attr, fn in inspect.getmembers(obj, inspect.isfunction)
                        if not attr.startswith("_"))


@pytest.mark.parametrize("module", [dist, model, metrics], ids=lambda m: m.__name__)
def test_no_public_function_takes_a_tolerance(module):
    knobs = [name for name, fn in _public_functions(module)
             if {"tol", "rel_tol"} & set(inspect.signature(fn).parameters)]
    assert knobs == []
