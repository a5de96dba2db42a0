"""Command line interface.

Subcommands: ``simulate`` (trial batches to CSV), ``eval`` (single analytic
quantity to stdout, 12 significant digits), ``experiment`` (named figure
datasets to CSV), ``list-experiments``. Exit codes: 0 success, 2 usage error,
3 numerical failure. A NaN in a numeric ``eval`` flag is a usage error naming
the flag (``inf`` is accepted); an ``eval`` value of NaN is a numerical failure.

Config files are flat ``key = value`` lines (``#`` comments); keys are the
knob names of ``ExperimentConfig`` (dashes read as underscores) or
``out_dir``, kept as written. Flags given on the command line override file
values. Knob values in a file and flag text are typed alike: comma lists
become tuples, and the config checks each knob's shape.
``RELAYSIM_OUTPUT_DIR`` sets the default output directory.
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
            key = key.strip().replace("-", "_")
            out[key] = value.strip() if key == "out_dir" else _parse_scalar(value)
    return out


def real(text: str) -> float:
    """A numeric eval flag: any float but NaN, which argparse reports as invalid."""
    value = float(text)
    if math.isnan(value):
        raise ValueError(text)
    return value


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
    ev.add_argument("--gamma", type=real, default=1.0)
    ev.add_argument("--t", type=real, default=1.0, help="metric level for ccdf-annulus")
    ev.add_argument("--s", type=real, default=1.0, help="received-SNR level")
    ev.add_argument("--lambda", dest="lam", type=real, default=1.0)
    ev.add_argument("--d", type=real, default=1.0)
    ev.add_argument("--tau", type=real, default=10.0)
    ev.add_argument("--psi", type=real, default=0.0)
    ev.add_argument("--T", dest="threshold", type=real, default=None)
    ev.add_argument("--mu0", type=real, default=0.0, help="target mean feedback load")
    ev.add_argument("--rho", type=real, default=0.5)
    ev.add_argument("--snr-db", type=real, default=5.0)
    ev.add_argument("--snr1-db", type=real, default=None)
    ev.add_argument("--snr2-db", type=real, default=None)
    ev.add_argument("--alpha", type=real, default=4.0)
    ev.add_argument("--fading", choices=[f.value for f in Fading], default="rayleigh")
    ev.add_argument("--policy", choices=list(dist.POLICY_LAWS), default="optimum")
    ev.add_argument("--full-duplex", action="store_true",
                    help="report rates without the half-duplex 1/2 factor")
    ev.add_argument("--n", type=real, default=50.0, help="mean count (gaussian example)")
    ev.add_argument("--sigma", type=real, default=1.0, help="spread (gaussian example)")
    ev.add_argument("--r", type=real, default=1.0, help="exclusion/ring radius")

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


def _hop_scales(args, snr_db=None) -> tuple[float, float]:
    """Per-hop metric weights from ``--snr1-db`` and ``--snr2-db``; ``eval`` passes
    ``--snr-db`` for a missing one, ``simulate`` takes both or neither (weights 1)."""
    dbs = [snr_db if db is None else db for db in (args.snr1_db, args.snr2_db)]
    if None in dbs:
        if dbs != [None, None]:
            raise ParameterError("simulate needs both --snr1-db and --snr2-db, or neither")
        return 1.0, 1.0
    budget = LinkBudget(snr_from_db(dbs[0]), snr_destination=snr_from_db(dbs[1]))
    return budget.effective_scales(args.alpha)


def _link(a):
    """(snr, path loss, fading) of the eval flags."""
    return snr_from_db(a.snr_db), PathLoss.power_law(a.alpha), Fading(a.fading)


def _needs_T(a) -> float:
    if a.threshold is None:
        raise ParameterError(f"{a.quantity} needs --T")
    return a.threshold


def _rate(a, rate) -> float:
    return (metrics.full_duplex_rate(rate) if a.full_duplex else rate).value


# eval quantity -> its value (a number, or the regime's name) from the parsed
# flags; the lambdas look up dist.* and metrics.* when they are called
_QUANTITIES = {
    "cdf-gamma-opt": lambda a: dist.LAWS["optimum"](a.lam, a.d).cdf(a.gamma),
    "pdf-gamma-opt": lambda a: dist.LAWS["optimum"](a.lam, a.d).pdf(a.gamma),
    "mean-gamma-opt": lambda a: dist.best_cqi_mean(a.lam, a.d),
    "cdf-gamma-opt-finite": lambda a: dist.LAWS["window"](a.lam, a.d, a.tau).cdf(a.gamma),
    "ccdf-annulus": lambda a: dist.annulus_metric_ccdf(a.t, a.psi, a.tau, a.d),
    "cdf-gamma-mid": lambda a: dist.LAWS["mid-point"](a.lam, a.d).cdf(a.gamma),
    "pdf-gamma-mid": lambda a: dist.LAWS["mid-point"](a.lam, a.d).pdf(a.gamma),
    "cdf-gamma-c2d": lambda a: dist.LAWS["closest-to-destination"](a.lam, a.d).cdf(a.gamma),
    "pdf-gamma-c2d": lambda a: dist.LAWS["closest-to-destination"](a.lam, a.d).pdf(a.gamma),
    "prob-sufficient": lambda a: dist.prob_sufficient(a.lam, a.d),
    "prob-mid-opt": lambda a: dist.prob_midpoint_optimal(a.lam, a.d),
    "cdf-s-opt": lambda a: dist.best_received_snr_cdf(a.s, a.lam, a.d, *_link(a)[:2]),
    "pdf-s-opt": lambda a: dist.best_received_snr_pdf(a.s, a.lam, a.d, *_link(a)[:2]),
    "cdf-gamma-opt-diff": lambda a: dist.LAWS["unequal-snr"](
        a.lam, a.d, *_hop_scales(a, a.snr_db)).cdf(a.gamma),
    "cdf-gamma-exclusion": lambda a: dist.LAWS["exclusion"](a.lam, a.r, a.d).cdf(a.gamma),
    "cdf-gamma-ring": lambda a: dist.LAWS["ring"](a.lam, a.r, a.d).cdf(a.gamma),
    "cdf-gamma-gaussian": lambda a: dist.LAWS["gaussian-cluster"](a.n, a.sigma, a.d).cdf(a.gamma),
    "mu": lambda a: metrics.mean_feedback_load(_needs_T(a), a.lam, a.d),
    "threshold-for-load": lambda a: metrics.threshold_for_load(a.mu0, a.lam, a.d),
    "s-star": lambda a: metrics.s_star(a.rho),
    "rate": lambda a: _rate(a, metrics.average_rate(
        dist.policy_law(a.policy, a.lam, a.d), *_link(a))),
    "rate-feedback": lambda a: _rate(a, metrics.average_rate_feedback(
        _needs_T(a), a.lam, a.d, *_link(a))),
    "outage": lambda a: metrics.outage(a.rho, a.lam, a.d, *_link(a)),
    "outage-slope": lambda a: metrics.outage_decay_slope(a.policy, a.rho, a.d, *_link(a)),
    "outage-feedback": lambda a: metrics.outage_feedback(
        _needs_T(a), a.rho, a.lam, a.d, *_link(a))[0],
    "outage-regime": lambda a: metrics.outage_feedback(
        _needs_T(a), a.rho, a.lam, a.d, *_link(a))[1].value,
}


def _eval_quantity(args) -> float | str:
    quantity = _QUANTITIES.get(args.quantity)
    if quantity is None:
        raise ParameterError(f"unknown quantity {args.quantity!r}")
    return quantity(args)


def _cmd_simulate(args) -> int:
    config = MonteCarloConfig(args.intensity, args.half_distance, args.window_radius,
                              args.threshold, *_hop_scales(args))
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
    if not isinstance(value, str):
        if math.isnan(value):
            raise NumericError(f"{args.quantity} evaluated to NaN")
        value = f"{value:.12g}"
    print(value)
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
