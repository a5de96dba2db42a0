import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from relaysim import distributions as dist
from relaysim import metrics
from relaysim import cli
from relaysim.cli import _write_atomic, main, parse_config_file
from relaysim.experiments import EXPERIMENTS, ExperimentConfig
from relaysim.model import Fading, LinkBudget, PathLoss, snr_from_db
from relaysim.montecarlo import MonteCarloConfig, run_trials


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "relaysim.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_eval_mu_example(capsys):
    assert main(["eval", "mu", "--lambda", "1", "--d", "1", "--T", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "4.91347879444"


def test_eval_s_star(capsys):
    assert main(["eval", "s-star", "--rho", "0.3", "--snr-db", "5"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(0.6022, abs=1e-3)


def test_eval_cdf_below_support(capsys):
    assert main(["eval", "cdf-gamma-opt", "--gamma", "0.5", "--d", "1"]) == 0
    assert float(capsys.readouterr().out) == 0.0


def test_eval_prints_12_significant_digits(capsys):
    from relaysim import distributions as dist
    main(["eval", "cdf-gamma-opt", "--gamma", "1.5", "--d", "1", "--lambda", "1"])
    text = capsys.readouterr().out.strip()
    exact = dist.best_cqi_cdf(1.5, 1.0, 1.0)
    assert text == f"{exact:.12g}"
    assert float(text) == pytest.approx(exact, rel=1e-11)


def test_eval_outage_regime(capsys):
    main(["eval", "outage-regime", "--T", "1.5", "--rho", "0.3", "--lambda", "1",
          "--d", "1", "--snr-db", "5", "--alpha", "4", "--fading", "rayleigh"])
    assert capsys.readouterr().out.strip() == "feedback-limited"
    main(["eval", "outage-regime", "--T", "2", "--rho", "0.3"])
    assert capsys.readouterr().out.strip() == "rate-limited"


def test_eval_consistency_with_library(capsys):
    from relaysim import metrics
    from relaysim.model import Fading, PathLoss, snr_from_db
    main(["eval", "rate", "--lambda", "2", "--policy", "optimum",
          "--fading", "rayleigh"])
    got = float(capsys.readouterr().out)
    expected = metrics.average_rate_optimum(
        2.0, 1.0, snr_from_db(5.0), PathLoss.power_law(4.0), Fading.RAYLEIGH).value
    assert got == pytest.approx(expected, rel=1e-10)


def test_unknown_quantity_usage_exit(capsys):
    assert main(["eval", "no-such-thing"]) == 2


def test_unknown_experiment_usage_exit(capsys):
    assert main(["experiment", "no-such-experiment"]) == 2


def test_usage_error_exit_code():
    proc = run_cli("bogus-command")
    assert proc.returncode == 2


def test_dry_run_prints_plan(capsys):
    assert main(["experiment", "outage-and-rate", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "outage-and-rate" in out and "lambdas" in out


def test_experiment_csv_byte_stable(tmp_path, capsys):
    args = ["experiment", "annulus-ccdf", "--trials", "4000", "--seed", "5"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main([*args, "--out-dir", str(out1)]) == 0
    assert main([*args, "--out-dir", str(out2)]) == 0
    f1 = (out1 / "annulus-ccdf.csv").read_bytes()
    f2 = (out2 / "annulus-ccdf.csv").read_bytes()
    assert f1 == f2
    header = f1.decode().splitlines()[0]
    assert header == "x,series,analytic,simulated,stderr"
    assert b"\r" not in f1  # LF endings only


def test_experiment_output_dir_env(tmp_path, capsys):
    env_dir = tmp_path / "envout"
    proc = run_cli("experiment", "nfb-distribution", "--trials", "2000",
                   env_extra={"RELAYSIM_OUTPUT_DIR": str(env_dir)})
    assert proc.returncode == 0
    assert (env_dir / "nfb-distribution.csv").exists()


def test_experiment_analytic_column_recomputable(tmp_path, capsys):
    assert main(["experiment", "nfb-distribution", "--trials", "1000",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "nfb-distribution.csv").read_text().splitlines()[1:]
    from scipy import stats
    from relaysim import metrics
    checked = 0
    for row in rows[:6]:
        x, series, analytic, _, _ = row.split(",")
        lam = float(series.split("=")[1])
        mu = metrics.mean_feedback_load(3.0, lam, 1.0)
        assert float(analytic) == pytest.approx(stats.poisson.pmf(int(float(x)), mu),
                                                rel=1e-9)
        checked += 1
    assert checked == 6


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\nn_trials = 1500\nseed = 9\nlambdas = 0.5,1\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"n_trials": 1500, "seed": 9, "lambdas": (0.5, 1)}
    assert main(["experiment", "midpoint-optimality", "--config", str(cfg),
                 "--out-dir", str(tmp_path), "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "n_trials = 1500" in out
    assert "lambdas = (0.5, 1)" in out


def test_config_flag_overrides_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n_trials = 1500\n")
    assert main(["experiment", "midpoint-optimality", "--config", str(cfg),
                 "--trials", "800", "--dry-run"]) == 0
    assert "n_trials = 800" in capsys.readouterr().out


def test_simulate_writes_batch(tmp_path, capsys):
    out = tmp_path / "batch.csv"
    assert main(["simulate", "--lambda", "1", "--d", "1", "--tau", "5",
                 "--trials", "300", "--seed", "4", "--T", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 301
    assert lines[0].startswith("trial,")


@pytest.mark.filterwarnings("error")
def test_simulate_reports_a_batch_of_empty_fields(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["simulate", "--lambda", "1e-6", "--tau", "1", "--trials", "5",
                 "--out", str(out)]) == 0
    assert "mean points 0, no field had a relay" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 6


def test_simulate_rejects_a_lone_per_hop_snr(tmp_path):
    # eval fills a missing hop from --snr-db, so simulate must not guess one
    for flag in ("--snr1-db", "--snr2-db"):
        res = run_cli("simulate", "--trials", "5", "--tau", "3", flag, "10",
                      "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2
        assert "--snr1-db and --snr2-db" in res.stderr
        assert not (tmp_path / "t.csv").exists()


def test_bad_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    assert main(["experiment", "midpoint-optimality", "--config", str(cfg),
                 "--dry-run"]) == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["eval", "mu"]) == 2  # mu needs --T


def test_eval_zero_half_distance_is_usage_error(capsys):
    for quantity in (["mu", "--T", "1"], ["threshold-for-load", "--mu0", "1"]):
        assert main(["eval", *quantity, "--d", "0"]) == 2
    assert "half_distance must be positive" in capsys.readouterr().err


def test_numeric_failure_exit_code(monkeypatch, capsys):
    from relaysim import cli
    from relaysim.errors import NumericError

    def boom(args):
        raise NumericError("synthetic quadrature failure")

    monkeypatch.setattr(cli, "_eval_quantity", boom)
    assert cli.main(["eval", "cdf-gamma-opt"]) == 3


def test_simulate_nan_threshold_is_usage_error(tmp_path):
    res = run_cli("simulate", "--trials", "5", "--tau", "3", "--T", "nan",
                  "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 2
    assert "threshold" in res.stderr
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("flags", [("--tau", "1e10"), ("--lambda", "1e-310"),
                                   ("--tau", "1e-160")],
                         ids=["mean-count", "squared-window", "squared-window-underflow"])
def test_simulate_a_field_numpy_cannot_draw_is_usage_error(tmp_path, flags):
    res = run_cli("simulate", "--trials", "5", *flags, "--out", str(tmp_path / "t.csv"))
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
    assert not (tmp_path / "t.csv").exists()


def test_eval_mu_infinite_threshold_prints_inf(capsys):
    assert main(["eval", "mu", "--lambda", "1", "--d", "1", "--T", "inf"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


@pytest.mark.parametrize("rho,fading", [("25", "rayleigh"), ("600", "none")])
def test_eval_outage_beyond_reachable_rate_prints_one(capsys, rho, fading):
    assert main(["eval", "outage", "--rho", rho, "--fading", fading]) == 0
    assert capsys.readouterr().out.strip() == "1"


def _config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return ["--config", str(path)]


@pytest.mark.parametrize("name, argv, knob", [
    ("midpoint-optimality", ["CONFIG", "n_trials = 50.5\n"], "n_trials"),
    ("midpoint-optimality", ["CONFIG", "seed = abc\n"], "seed"),
    ("annulus-ccdf", ["CONFIG", "annulus_cases = 10,2\n"], "annulus_cases"),
    ("outage-and-rate", ["--lambdas", "a,b"], "lambdas"),
    ("outage-and-rate", ["--lambdas", ","], "lambdas"),
    ("outage-and-rate", ["--seed", "-1"], "seed"),
    ("outage-and-rate", ["--seed", "18446744073709551616"], "seed"),
    ("outage-and-rate", ["--seed", "18446744073709551615"], "seed"),
    ("outage-and-rate", ["--trials", "true"], "n_trials"),
    ("outage-and-rate", ["--d", "1,2"], "half_distance"),
    ("outage-and-rate", ["--alpha", "inf"], "alpha"),
    ("nfb-distribution", ["--d", "1" + "0" * 400], "half_distance"),
], ids=["trials-float", "seed-text", "pairs-in-a-file", "lambdas-text", "lambdas-empty",
        "seed-negative", "seed-2^64", "grid-past-2^64", "trials-bool-text", "d-list",
        "alpha-inf", "d-beyond-float"])
def test_a_malformed_experiment_input_is_a_usage_error(tmp_path, capsys, name, argv, knob):
    if argv[0] == "CONFIG":
        argv = _config(tmp_path, argv[1])
    trials = [] if knob == "n_trials" else ["--trials", "20"]  # a flag overrides the file
    out_dir = tmp_path / "out"
    assert main(["experiment", name, *trials, *argv, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {knob} ")
    assert not out_dir.exists()


def test_a_lone_number_in_a_config_file_is_a_1_tuple(tmp_path, capsys):
    argv = _config(tmp_path, "lambdas = 0.5\n")
    assert main(["experiment", "midpoint-optimality", "--trials", "100", *argv,
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "midpoint-optimality.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0.5"}


def test_dry_run_prints_every_knob(capsys):
    assert main(["experiment", "feedback-load", "--dry-run"]) == 0
    out = capsys.readouterr().out
    cfg = ExperimentConfig()
    for f in fields(ExperimentConfig):
        assert f"  {f.name} = {getattr(cfg, f.name)}\n" in out


def test_each_experiment_flag_sets_its_knob(capsys):
    assert main(["experiment", "feedback-load", "--dry-run", "--trials", "7", "--seed", "8",
                 "--lambdas", "0.5", "--d", "2", "--alpha", "3", "--snr-db", "6",
                 "--rho", "0.25", "--thresholds", "1.5,2", "--taus", "4"]) == 0
    out = capsys.readouterr().out
    for line in ("n_trials = 7", "seed = 8", "lambdas = (0.5,)", "half_distance = 2",
                 "alpha = 3", "snr_db = 6", "rho = 0.25", "thresholds = (1.5, 2)",
                 "taus = (4,)"):
        assert f"  {line}\n" in out


def test_config_file_out_dir_is_honoured(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RELAYSIM_OUTPUT_DIR", raising=False)
    argv = _config(tmp_path, f"out_dir = {tmp_path / 'from-file'}\nn_trials = 200\n")
    assert main(["experiment", "nfb-distribution", *argv]) == 0
    assert (tmp_path / "from-file" / "nfb-distribution.csv").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "from-file"]


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_simulate_seed_outside_uint64_is_usage_error(tmp_path, capsys, seed):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--trials", "5", "--tau", "3", "--seed", seed,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: seed ")
    assert not out.exists()


def test_simulate_with_both_per_hop_snrs_writes_the_weighted_metric(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--lambda", "1.5", "--d", "0.8", "--tau", "4", "--trials", "200",
                 "--seed", "11", "--snr1-db", "4", "--snr2-db", "9", "--alpha", "3.5",
                 "--out", str(out)]) == 0
    s1, s2 = LinkBudget(snr_from_db(4.0), snr_destination=snr_from_db(9.0)).effective_scales(3.5)
    assert s1 != s2
    batch = run_trials(MonteCarloConfig(1.5, 0.8, window_radius=4.0, scale_source=s1,
                                        scale_destination=s2), 200, 11)
    header, *rows = out.read_text().splitlines()
    column = header.split(",").index("gamma_diff")
    assert [row.split(",")[column] for row in rows] == ["%.12g" % g for g in batch.gamma_diff]


def test_a_failed_write_leaves_no_file(tmp_path):
    def boom(tmp):
        with open(tmp, "w") as fh:
            fh.write("partial")
        raise OSError("synthetic write failure")

    with pytest.raises(OSError, match="synthetic"):
        _write_atomic(boom, str(tmp_path / "out.csv"))
    assert list(tmp_path.iterdir()) == []


def test_list_experiments_prints_every_name_once(capsys):
    assert main(["list-experiments"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert sorted(names) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("quantity", ["mu", "rate-feedback", "outage-feedback",
                                      "outage-regime"])
def test_a_threshold_quantity_without_T_is_usage_error(capsys, quantity):
    assert main(["eval", quantity]) == 2
    assert capsys.readouterr().err == f"error: {quantity} needs --T\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_prob_mid_opt_beyond_its_precision_is_numeric_failure(capsys):
    assert main(["eval", "prob-mid-opt", "--lambda", "1e16"]) == 3
    assert capsys.readouterr().out == ""


# eval flags shared by every case below, each off its default
LAM, D, ALPHA, SNR_DB = 1.5, 0.8, 3.5, 7.0
_COMMON = ["--lambda", str(LAM), "--d", str(D), "--alpha", str(ALPHA), "--snr-db", str(SNR_DB)]
_SNR, _PL, _RAY = snr_from_db(SNR_DB), PathLoss.power_law(ALPHA), Fading.RAYLEIGH


def _diff_scales():
    budget = LinkBudget(snr=_SNR, snr_relay=snr_from_db(4.0), snr_destination=snr_from_db(9.0))
    return budget.effective_scales(ALPHA)


# quantity -> (its own flags, the library call with the same arguments)
EVAL_CASES = {
    "cdf-gamma-opt": (["--gamma", "1.7"], lambda: dist.best_cqi_cdf(1.7, LAM, D)),
    "pdf-gamma-opt": (["--gamma", "1.7"], lambda: dist.best_cqi_pdf(1.7, LAM, D)),
    "mean-gamma-opt": ([], lambda: dist.best_cqi_mean(LAM, D)),
    "cdf-gamma-opt-finite": (["--gamma", "1.7", "--tau", "4"],
                             lambda: dist.best_cqi_cdf_finite(1.7, LAM, D, 4.0)),
    "ccdf-annulus": (["--t", "3", "--psi", "1.2", "--tau", "6"],
                     lambda: dist.annulus_metric_ccdf(3.0, 1.2, 6.0, D)),
    "cdf-gamma-mid": (["--gamma", "1.7"], lambda: dist.midpoint_cqi_cdf(1.7, LAM, D)),
    "pdf-gamma-mid": (["--gamma", "1.7"], lambda: dist.midpoint_cqi_pdf(1.7, LAM, D)),
    "cdf-gamma-c2d": (["--gamma", "1.7"],
                      lambda: dist.closest_to_destination_cqi_cdf(1.7, LAM, D)),
    "pdf-gamma-c2d": (["--gamma", "1.7"],
                      lambda: dist.closest_to_destination_cqi_pdf(1.7, LAM, D)),
    "prob-sufficient": ([], lambda: dist.prob_sufficient(LAM, D)),
    "prob-mid-opt": ([], lambda: dist.prob_midpoint_optimal(LAM, D)),
    "cdf-s-opt": (["--s", "0.5"], lambda: dist.best_received_snr_cdf(0.5, LAM, D, _SNR, _PL)),
    "pdf-s-opt": (["--s", "0.5"], lambda: dist.best_received_snr_pdf(0.5, LAM, D, _SNR, _PL)),
    "cdf-gamma-opt-diff": (["--gamma", "1.7", "--snr1-db", "4", "--snr2-db", "9"],
                           lambda: dist.unequal_snr_cqi_cdf(1.7, LAM, D, *_diff_scales())),
    "cdf-gamma-exclusion": (["--gamma", "1.7", "--r", "0.4"],
                            lambda: dist.exclusion_cqi_cdf(1.7, LAM, 0.4, D)),
    "cdf-gamma-ring": (["--gamma", "2", "--r", "1.5"],
                       lambda: dist.ring_cqi_cdf(2.0, LAM, 1.5, D)),
    "cdf-gamma-gaussian": (["--gamma", "1.7", "--n", "30", "--sigma", "1.5"],
                           lambda: dist.gaussian_cqi_cdf(1.7, 30.0, 1.5, D)),
    "mu": (["--T", "2.2"], lambda: metrics.mean_feedback_load(2.2, LAM, D)),
    "threshold-for-load": (["--mu0", "3"], lambda: metrics.threshold_for_load(3.0, LAM, D)),
    "s-star": (["--rho", "0.7"], lambda: metrics.s_star(0.7)),
    "rate": (["--policy", "mid-point", "--full-duplex"], lambda: metrics.full_duplex_rate(
        metrics.average_rate(dist.policy_law("mid-point", LAM, D), _SNR, _PL, _RAY)).value),
    "rate-feedback": (["--T", "2.2"], lambda: metrics.average_rate_feedback(
        2.2, LAM, D, _SNR, _PL, _RAY).value),
    "outage": (["--rho", "0.7"], lambda: metrics.outage(0.7, LAM, D, _SNR, _PL, _RAY)),
    "outage-slope": (["--policy", "closest-to-destination", "--rho", "0.7"],
                     lambda: metrics.outage_decay_slope("closest-to-destination", 0.7, D,
                                                        _SNR, _PL, _RAY)),
    "outage-feedback": (["--T", "2.2", "--rho", "0.7"], lambda: metrics.outage_feedback(
        2.2, 0.7, LAM, D, _SNR, _PL, _RAY)[0]),
    "outage-regime": (["--T", "2.2", "--rho", "0.7"], lambda: metrics.outage_feedback(
        2.2, 0.7, LAM, D, _SNR, _PL, _RAY)[1].value),
}


def _readme_quantities():
    """The names in the first column of README's eval quantity table; a name
    given as a suffix (``-ring``) replaces the last part of the one before it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("`eval` quantities", 1)[1].split("\n\n", 2)[1]
    names = []
    for line in table.splitlines()[2:]:
        for token in re.findall(r"`([^`]+)`", line.split("|")[1]):
            names.append(names[-1].rsplit("-", 1)[0] + token if token[0] == "-" else token)
    return names


def test_every_documented_quantity_has_a_case():
    names = _readme_quantities()
    assert len(names) == len(set(names)) == 26
    assert set(names) == set(EVAL_CASES)
    assert set(names) == set(cli._QUANTITIES)


@pytest.mark.parametrize("quantity", sorted(EVAL_CASES))
def test_eval_prints_the_library_value(capsys, quantity):
    flags, library = EVAL_CASES[quantity]
    assert main(["eval", quantity, *_COMMON, *flags]) == 0
    value = library()
    expected = value if quantity == "outage-regime" else f"{value:.12g}"
    assert capsys.readouterr().out == expected + "\n"


def _readme_eval_examples():
    """(argv, stated output) of each README CLI example ``relaysim eval ... # ... -> out``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [(shlex.split(command)[1:], stated.rsplit("->", 1)[1].strip())
            for command, _, stated in (line.partition("#") for line in block.splitlines())
            if command.startswith("relaysim eval ") and "->" in stated]


def test_readme_eval_examples_print_what_they_state(capsys):
    examples = _readme_eval_examples()
    assert len(examples) >= 4
    for argv, stated in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out == stated + "\n", argv


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1]
    exec(block.split("```", 1)[0], {})
    best_gamma, rate, mean_rate, ks = map(float, capsys.readouterr().out.split())
    assert best_gamma >= 1.0 and rate > 0.0 and mean_rate > 0.0
    assert ks < 1.63 / math.sqrt(100_000)


# numeric eval flag -> a quantity that reads it
_NUMERIC_EVAL_FLAGS = {
    "--gamma": "cdf-gamma-opt", "--t": "ccdf-annulus", "--s": "pdf-s-opt",
    "--lambda": "mean-gamma-opt", "--d": "prob-sufficient", "--tau": "cdf-gamma-opt-finite",
    "--psi": "ccdf-annulus", "--T": "mu", "--mu0": "threshold-for-load", "--rho": "outage",
    "--snr-db": "rate", "--snr1-db": "cdf-gamma-opt-diff", "--snr2-db": "cdf-gamma-opt-diff",
    "--alpha": "rate", "--n": "cdf-gamma-gaussian", "--sigma": "cdf-gamma-gaussian",
    "--r": "cdf-gamma-ring",
}


@pytest.mark.parametrize("flag", sorted(_NUMERIC_EVAL_FLAGS))
def test_a_nan_eval_flag_is_usage_error(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["eval", _NUMERIC_EVAL_FLAGS[flag], "--T", "2", flag, "nan"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: invalid real value: 'nan'\n")


@pytest.mark.parametrize("argv, printed", [(["cdf-gamma-opt", "--gamma", "inf"], "1"),
                                           (["ccdf-annulus", "--t", "inf"], "0"),
                                           (["mu", "--T", "inf"], "inf")])
def test_an_infinite_eval_flag_is_accepted(capsys, argv, printed):
    assert main(["eval", *argv]) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("argv, param", [
    (["cdf-gamma-opt-finite", "--gamma", "2", "--tau", "inf"], "window_radius"),
    (["cdf-gamma-exclusion", "--gamma", "inf", "--r", "inf"], "exclusion_radius")])
def test_an_infinite_window_or_exclusion_radius_is_usage_error(capsys, argv, param):
    # an infinite window spreads the relays over no finite area; an infinite hole holds none
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {param} must be finite, got inf\n"


def test_an_eval_quantity_that_is_nan_is_numeric_failure(monkeypatch, capsys):
    monkeypatch.setitem(cli._QUANTITIES, "mean-gamma-opt", lambda args: math.nan)
    assert main(["eval", "mean-gamma-opt"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: mean-gamma-opt evaluated to NaN\n"


@pytest.mark.parametrize("text", ["5", "a,b"])
def test_config_file_out_dir_stays_text(tmp_path, capsys, text):
    argv = _config(tmp_path, f"out_dir = {text}\n")
    assert parse_config_file(argv[1]) == {"out_dir": text}
    assert main(["experiment", "nfb-distribution", *argv, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert f"output: {os.path.join(text, 'nfb-distribution.csv')}\n" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_snr_past_the_float_range_is_infinite(tmp_path, capsys):
    assert main(["eval", "rate", "--snr-db", "1e5"]) == 0
    assert main(["eval", "rate", "--snr-db", "inf"]) == 0
    assert main(["eval", "pdf-s-opt", "--snr-db", "1e5"]) == 0  # no density below inf
    assert capsys.readouterr().out == "inf\ninf\n0\n"
    # every rate is infinite, so is its standard error; no outage
    assert main(["experiment", "outage-and-rate", "--snr-db", "1e5", "--trials", "50",
                 "--out-dir", str(tmp_path)]) == 0
    expected = [f"{lam:g},{kind} {policy}/{fading.value},{cells}"
                for lam in ExperimentConfig().lambdas
                for fading in (Fading.NONE, Fading.RAYLEIGH) for policy in dist.POLICY_LAWS
                for kind, cells in (("outage", "0,0,0"), ("rate", "inf,inf,inf"))]
    assert (tmp_path / "outage-and-rate.csv").read_text().splitlines()[1:] == expected
    capsys.readouterr()
    # an infinite source-hop SNR weighs its leg 0, which the weighted metric refuses
    out = tmp_path / "t.csv"
    assert main(["simulate", "--trials", "5", "--tau", "3", "--snr1-db", "1e5",
                 "--snr2-db", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--snr1-db", "-400", "--snr2-db", "0", "--alpha", "0.1", "--trials", "3"],
    ["eval", "cdf-gamma-opt-diff", "--snr1-db", "-400", "--alpha", "0.1"]],
    ids=["simulate", "eval"])
def test_a_per_hop_weight_past_the_float_range_is_usage_error(tmp_path, capsys, argv):
    # 1e-40 ** (-1/0.1) = 1e400 overflows
    out = tmp_path / "t.csv"
    assert main([*argv, *(["--out", str(out)] if argv[0] == "simulate" else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: snr_relay = 1e-40 at path_loss_exponent = 0.1 gives "
                            "a per-hop weight past the float range\n")
    assert not out.exists()


def test_eval_offers_every_policy_with_a_law(capsys):
    for policy in dist.POLICY_LAWS:
        assert main(["eval", "rate", "--policy", policy]) == 0
    with pytest.raises(SystemExit):
        main(["eval", "rate", "--policy", "closest-to-source"])
