import os
import subprocess
import sys

import pytest

from relaysim.cli import main, parse_config_file


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
