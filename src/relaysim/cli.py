"""Command line interface.

Subcommands: ``simulate`` (trial batches to CSV), ``eval`` (single analytic
quantity to stdout, 12 significant digits), ``experiment`` (named figure
datasets to CSV), ``list-experiments``. Exit codes: 0 success, 2 usage error,
3 numerical failure.

Config files are flat ``key = value`` lines (``#`` comments); keys are the
knob names of ``ExperimentConfig`` (dashes read as underscores) or
``out_dir``. Flags given on the command line override file values. File
values and flag text are typed alike: comma lists become tuples, and the
config checks each knob's shape. ``RELAYSIM_OUTPUT_DIR`` sets the default
output directory.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import distributions as dist
from . import metrics
from .errors import (BracketError, EmptyFieldError, NumericError, ParameterError,
                     UnsupportedOperationError)
from .experiments import (EXPERIMENTS, ExperimentConfig, config_overrides,
                          describe_experiments, rows_to_csv, run_experiment)
from .model import Fading, LinkBudget, PathLoss, snr_from_db
from .montecarlo import MonteCarloConfig, batch_to_csv, run_trials

USAGE_EXIT = 2
NUMERIC_EXIT = 3

# experiment flag -> the ExperimentConfig knob it sets
_EXPERIMENT_FLAGS = {
    "--trials": "n_trials", "--seed": "seed", "--lambdas": "lambdas",
    "--d": "half_distance", "--alpha": "alpha", "--snr-db": "snr_db", "--rho": "rho",
    "--thresholds": "thresholds", "--taus": "taus",
}
# eval quantities that need a feedback threshold
_NEEDS_THRESHOLD = ("mu", "rate-feedback", "outage-feedback", "outage-regime")


def _parse_scalar(text: str):
    t = text.strip()
    if "," in t:
        return tuple(_parse_scalar(p) for p in t.split(",") if p.strip())
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        return t


def parse_config_file(path: str) -> dict:
    """Flat key/value config: one ``key = value`` per line, '#' comments."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = _parse_scalar(value)
    return out


def _default_outdir() -> str:
    return os.environ.get("RELAYSIM_OUTPUT_DIR", ".")


def _write_atomic(write_fn, path: str) -> None:
    """Write through a temp file; never leave a partial output behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Relay-selection analytics and simulation over random planar fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run trial batches and export one row per trial")
    sim.add_argument("--lambda", dest="intensity", type=float, default=1.0,
                     help="relay intensity per unit area")
    sim.add_argument("--d", dest="half_distance", type=float, default=1.0)
    sim.add_argument("--tau", dest="window_radius", type=float, default=None,
                     help="simulation disc radius (defaults to max(6d, 6/sqrt(lambda)))")
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--T", dest="threshold", type=float, default=None,
                     help="feedback threshold (enables feedback counting)")
    sim.add_argument("--snr1-db", type=float, default=None)
    sim.add_argument("--snr2-db", type=float, default=None)
    sim.add_argument("--alpha", type=float, default=4.0)
    sim.add_argument("--out", default=None, help="output CSV path")

    ev = sub.add_parser("eval", help="print one analytic quantity")
    ev.add_argument("quantity", help="see README for the documented set")
    ev.add_argument("--gamma", type=float, default=1.0)
    ev.add_argument("--t", type=float, default=1.0, help="metric level for ccdf-annulus")
    ev.add_argument("--s", type=float, default=1.0, help="received-SNR level")
    ev.add_argument("--lambda", dest="intensity", type=float, default=1.0)
    ev.add_argument("--d", dest="half_distance", type=float, default=1.0)
    ev.add_argument("--tau", type=float, default=10.0)
    ev.add_argument("--psi", type=float, default=0.0)
    ev.add_argument("--T", dest="threshold", type=float, default=None)
    ev.add_argument("--mu0", type=float, default=0.0, help="target mean feedback load")
    ev.add_argument("--rho", type=float, default=0.5)
    ev.add_argument("--snr-db", type=float, default=5.0)
    ev.add_argument("--snr1-db", type=float, default=None)
    ev.add_argument("--snr2-db", type=float, default=None)
    ev.add_argument("--alpha", type=float, default=4.0)
    ev.add_argument("--fading", choices=[f.value for f in Fading], default="rayleigh")
    ev.add_argument("--policy", choices=["optimum", "mid-point", "closest-to-destination"],
                    default="optimum")
    ev.add_argument("--full-duplex", action="store_true",
                    help="report rates without the half-duplex 1/2 factor")
    ev.add_argument("--n", type=float, default=50.0, help="mean count (gaussian example)")
    ev.add_argument("--sigma", type=float, default=1.0, help="spread (gaussian example)")
    ev.add_argument("--r", type=float, default=1.0, help="exclusion/ring radius")

    ex = sub.add_parser("experiment", help="emit a named experiment as CSV")
    ex.add_argument("name")
    ex.add_argument("--config", default=None, help="flat key=value config file")
    ex.add_argument("--out-dir", default=None)
    for flag, knob in _EXPERIMENT_FLAGS.items():
        ex.add_argument(flag, dest=knob, type=_parse_scalar, default=None,
                        help=f"sets the {knob} knob")
    ex.add_argument("--dry-run", action="store_true",
                    help="validate the config and print the plan, compute nothing")

    sub.add_parser("list-experiments", help="print the documented experiment names")
    return parser


def _scales_from_args(args) -> tuple[float, float]:
    db1 = args.snr1_db if args.snr1_db is not None else args.snr_db
    db2 = args.snr2_db if args.snr2_db is not None else args.snr_db
    budget = LinkBudget(snr=snr_from_db(args.snr_db),
                        snr_relay=snr_from_db(db1),
                        snr_destination=snr_from_db(db2))
    return budget.effective_scales(args.alpha)


def _eval_quantity(args) -> float:
    lam, d = args.intensity, args.half_distance
    pl = PathLoss.power_law(args.alpha)
    snr = snr_from_db(args.snr_db)
    fading = Fading(args.fading)
    q = args.quantity
    threshold = args.threshold
    if q in _NEEDS_THRESHOLD and threshold is None:
        raise ParameterError(f"{q} needs --T")

    if q == "cdf-gamma-opt":
        return dist.best_cqi_cdf(args.gamma, lam, d)
    if q == "pdf-gamma-opt":
        return dist.best_cqi_pdf(args.gamma, lam, d)
    if q == "mean-gamma-opt":
        return dist.best_cqi_mean(lam, d)
    if q == "cdf-gamma-opt-finite":
        return dist.best_cqi_cdf_finite(args.gamma, lam, d, args.tau)
    if q == "ccdf-annulus":
        return dist.annulus_metric_ccdf(args.t, args.psi, args.tau, d)
    if q == "cdf-gamma-mid":
        return dist.midpoint_cqi_cdf(args.gamma, lam, d)
    if q == "pdf-gamma-mid":
        return dist.midpoint_cqi_pdf(args.gamma, lam, d)
    if q == "cdf-gamma-c2d":
        return dist.closest_to_destination_cqi_cdf(args.gamma, lam, d)
    if q == "pdf-gamma-c2d":
        return dist.closest_to_destination_cqi_pdf(args.gamma, lam, d)
    if q == "prob-sufficient":
        return dist.prob_sufficient(lam, d)
    if q == "prob-mid-opt":
        return dist.prob_midpoint_optimal(lam, d)
    if q == "cdf-s-opt":
        return dist.best_received_snr_cdf(args.s, lam, d, snr, pl)
    if q == "pdf-s-opt":
        return dist.best_received_snr_pdf(args.s, lam, d, snr, pl)
    if q == "cdf-gamma-opt-diff":
        s1, s2 = _scales_from_args(args)
        return dist.unequal_snr_cqi_cdf(args.gamma, lam, d, s1, s2)
    if q == "cdf-gamma-exclusion":
        return dist.exclusion_cqi_cdf(args.gamma, lam, args.r, d)
    if q == "cdf-gamma-ring":
        return dist.ring_cqi_cdf(args.gamma, lam, args.r, d)
    if q == "cdf-gamma-gaussian":
        return dist.gaussian_cqi_cdf(args.gamma, args.n, args.sigma, d)
    if q == "mu":
        return metrics.mean_feedback_load(threshold, lam, d)
    if q == "threshold-for-load":
        return metrics.threshold_for_load(args.mu0, lam, d)
    if q == "s-star":
        return metrics.s_star(args.rho)
    if q in ("rate", "rate-feedback"):
        rate = (metrics.average_rate(dist.policy_law(args.policy, lam, d), snr, pl, fading)
                if q == "rate" else
                metrics.average_rate_feedback(threshold, lam, d, snr, pl, fading))
        return (metrics.full_duplex_rate(rate) if args.full_duplex else rate).value
    if q == "outage":
        return metrics.outage(args.rho, lam, d, snr, pl, fading)
    if q == "outage-slope":
        return metrics.outage_decay_slope(args.policy, args.rho, d, snr, pl, fading)
    if q == "outage-feedback":
        return metrics.outage_feedback(threshold, args.rho, lam, d, snr, pl, fading)[0]
    if q == "outage-regime":
        regime = metrics.outage_feedback(threshold, args.rho, lam, d, snr, pl, fading)[1]
        print(regime.value)
        return math.nan
    raise ParameterError(f"unknown quantity {q!r}")


def _cmd_simulate(args) -> int:
    if (args.snr1_db is None) != (args.snr2_db is None):
        raise ParameterError("simulate needs both --snr1-db and --snr2-db, or neither")
    scale_source = scale_destination = 1.0
    if args.snr1_db is not None:
        budget = LinkBudget(snr_from_db(args.snr1_db), snr_destination=snr_from_db(args.snr2_db))
        scale_source, scale_destination = budget.effective_scales(args.alpha)
    config = MonteCarloConfig(args.intensity, args.half_distance,
                              window_radius=args.window_radius,
                              threshold=args.threshold,
                              scale_source=scale_source,
                              scale_destination=scale_destination)
    batch = run_trials(config, args.trials, args.seed)
    out = args.out or os.path.join(_default_outdir(), "trials.csv")
    _write_atomic(lambda tmp: batch_to_csv(batch, tmp), out)
    finite = batch.gamma_opt[np.isfinite(batch.gamma_opt)]
    best = (f"mean best metric {finite.mean():.6g}" if finite.size
            else "no field had a relay")
    print(f"wrote {out}: {args.trials} trials, mean points "
          f"{batch.counts.mean():.6g}, {best}")
    return 0


def _cmd_eval(args) -> int:
    value = _eval_quantity(args)
    if not math.isnan(value):
        print(f"{value:.12g}")
    return 0


def _cmd_experiment(args) -> int:
    overrides = parse_config_file(args.config) if args.config else {}
    for knob in _EXPERIMENT_FLAGS.values():
        if getattr(args, knob) is not None:
            overrides[knob] = getattr(args, knob)
    out_dir = args.out_dir or overrides.pop("out_dir", None) or _default_outdir()
    name = args.name
    if name not in EXPERIMENTS:
        print(f"error: unknown experiment {name!r}; run list-experiments", file=sys.stderr)
        return USAGE_EXIT
    cfg = config_overrides(ExperimentConfig(), **overrides)
    if args.dry_run:
        print(f"experiment {name}: {EXPERIMENTS[name][1]}")
        print(f"output: {os.path.join(out_dir, name + '.csv')}")
        for f in fields(cfg):
            print(f"  {f.name} = {getattr(cfg, f.name)}")
        return 0
    rows = run_experiment(name, cfg)
    path = os.path.join(out_dir, name + ".csv")
    _write_atomic(lambda tmp: rows_to_csv(rows, tmp), path)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_list(_args) -> int:
    for name, desc in describe_experiments().items():
        print(f"{name:22s} {desc}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "eval": _cmd_eval,
                "experiment": _cmd_experiment, "list-experiments": _cmd_list}
    try:
        return handlers[args.command](args)
    except (ParameterError, EmptyFieldError, UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (NumericError, BracketError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
