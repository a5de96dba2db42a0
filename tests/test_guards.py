"""Guards on non-negative parameters reject NaN as well as negative values."""
import math

import numpy as np
import pytest

from relaysim import distributions as dist
from relaysim import metrics
from relaysim.errors import ParameterError
from relaysim.kernels import disc_batch_stats, field_stats
from relaysim.model import Fading, LinkBudget, NetworkGeometry, PathLoss, snr_from_db
from relaysim.montecarlo import MonteCarloConfig
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
        [0.1, 0.5, 0.9], [0.2, 0.4, 0.6], [0, 3], 3.0, 1.0, threshold=v),
}


@pytest.mark.parametrize("value", [math.nan, -2.0], ids=["nan", "negative"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_or_negative_parameter_raises(entry, value):
    with pytest.raises(ParameterError):
        ENTRY_POINTS[entry](value)
