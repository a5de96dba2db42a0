"""relaysim: location-based relay selection over random planar fields.

Library layers: ``model`` (geometry, path loss, fading, link budget),
``pointprocess`` (seeded samplers), ``policies`` (per-field selection),
``distributions``/``metrics`` (closed-form laws, rates, outage, feedback),
``montecarlo`` (trial batches and goodness-of-fit statistics), ``experiments``
(figure datasets) and ``cli``.
"""

from .errors import (BracketError, EmptyFieldError, NumericError, ParameterError,
                     UnsupportedOperationError)
from .model import (Fading, LinkBudget, NetworkGeometry, PathLoss, Point2,
                    diff_metric_minimum, selection_metric, selection_metric_diff,
                    snr_from_db)
from .numerics import (QuadratureResult, erfc_scaled, exp_integral_e1, f_exp_e1,
                       quad_adaptive, solve_monotone)
from .pointprocess import (AnnulusUniform, CircleHomogeneous, DiscHomogeneous,
                           DiscWithExclusion, GaussianCluster, RelayField,
                           default_window_radius, sample, sample_half_disc)
from .policies import PolicyKind, PolicyOutcome, select, sufficient_condition_holds
from .distributions import (CqiLaw, annulus_metric_ccdf, best_cqi_cdf,
                            best_cqi_cdf_finite, best_cqi_law, best_cqi_law_finite,
                            best_cqi_log_pdf, best_cqi_mean, best_cqi_pdf, best_received_snr_cdf,
                            best_received_snr_pdf, closest_to_destination_cqi_cdf,
                            closest_to_destination_cqi_law,
                            closest_to_destination_cqi_pdf, disc_point_metric_cdf,
                            exclusion_cqi_cdf, gaussian_cqi_cdf,
                            isotropic_best_cqi_cdf, isotropic_best_cqi_pdf,
                            midpoint_cqi_cdf, midpoint_cqi_law, midpoint_cqi_pdf,
                            nearest_neighbor_cdf, nearest_neighbor_pdf,
                            prob_midpoint_optimal, prob_sufficient,
                            received_snr_cdf, received_snr_pdf, ring_cqi_cdf,
                            unequal_snr_cqi_cdf, unequal_snr_cqi_law,
                            unequal_snr_support_min)
from .metrics import (OutageRegime, RateResult, average_rate, average_rate_feedback,
                      average_rate_optimum, conditional_rate, full_duplex_rate,
                      mean_feedback_load, midpoint_rate_upper_bound,
                      optimality_rate_gap, outage, outage_feedback, outage_for_law,
                      s_star, threshold_for_load)
from .montecarlo import (MonteCarloConfig, TrialBatch, batch_to_csv, empirical_cdf,
                         ks_statistic, run_trials)
from .kernels import field_stats, kernel_backend

__version__ = "0.1.0"
