import functools
import hashlib
import math
from dataclasses import replace

import pytest

from relaysim import metrics
from relaysim.errors import ParameterError
from relaysim.experiments import (EXPERIMENTS, ExperimentConfig, config_overrides,
                                  describe_experiments, rows_to_csv, run_experiment)

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


# SHA-256 of the feedback CSVs at 300 trials, recorded before feedback was
# counted apart from the other statistics: the simulated feedback columns,
# the analytic means and the row format.
@pytest.mark.parametrize("name, seed, digest", [
    ("feedback-load", 7041776,
     "666bcd4ae13759fd1ca519582da9df449fb67b87b6b7f150144edef33b861b14"),
    ("feedback-load", 3,
     "b22985190e83d03b23fcb067e21ae5fedeed6334c7cdf484b02295023b436aac"),
    ("nfb-distribution", 7041776,
     "6fa6868bceb534be4e0e0beaa3add35cd0163b7d32b4829a10a5433c7c5260b4"),
    ("nfb-distribution", 3,
     "232f48dfe66d367ba2cee8eaa63bc883ef3e91e1b6523feff4539f0a6fa81d27"),
])
def test_feedback_csv_bytes_are_pinned(name, seed, digest, tmp_path):
    path = tmp_path / f"{name}.csv"
    rows_to_csv(run_experiment(name, ExperimentConfig(n_trials=300, seed=seed)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of the x, series and simulated columns of every experiment's CSV at
# 300 trials, recorded before the feedback load read the shared lens area.
# These columns are what the seeded simulation produces; the analytic and
# stderr columns are left out, since a formula rewritten to fewer ulps may
# move their last printed digits.
SIMULATED_COLUMN_DIGESTS = {
    ("annulus-ccdf", 7041776): "4b0c2c4be1376abccfe0533b9664a04977ef8f2b0ee041082bbfdd3763d8f4e6",
    ("diff-snr-cdf", 7041776): "7c166d72ef4252363ccdcf35c9a9c1eab399d9e54997f3ac84b30a580ca16f3c",
    ("feedback-load", 7041776): "2e678a9b86716995cba725dde946a6281d98a1ccb7f630b0f7614ea12d5c3320",
    ("finite-convergence", 7041776):
        "7f89cb88c2e0b06d119db33bf2e7b7576aa9fc78e8b04611f53fa0fe45c5c654",
    ("fixed-load", 7041776): "7d1977378de074ed723e426fb61815d5adca40b7fa24cad91833cabf2de1e1cf",
    ("midpoint-optimality", 7041776):
        "95343875472ff7e934fe71bef8c18965394d7ab45e49f4bc207bffe887dc32b1",
    ("nfb-distribution", 7041776):
        "037e919e190deaef464c5f4bcfd7f3bbf3c8eb9ab59afdf3db3ad3488a161fdb",
    ("outage-and-rate", 7041776): "2702560fa8a280c0f52b93a51da4a50e559084c9fbc252a3bcb92234eccd2e98",
    ("outage-feedback", 7041776): "c017caadcc062d5cbb396250713ab599146ae7193209f1b6f593ef3b42565b5e",
    ("rate-feedback", 7041776): "1200625e862826da046b531a6998ede1d4697bf99f4c0a25b47a06e2eb7700d6",
    ("annulus-ccdf", 3): "0025c7b8880335a108e6180e7c5420f69b7438d5956699b9893b10e776061533",
    ("diff-snr-cdf", 3): "510522b1f31f4334d49b86eb22662a4caad8e32c3d2a0228bb7f2ea2a628239d",
    ("feedback-load", 3): "4d6ae75659aad0e0548028a4db1e94522d0694c2224cdec40adabee7469b183b",
    ("finite-convergence", 3): "a506b55ff22bd8648fd5abc23ab42bab67b49abf5b6899390745ab178e7dd68a",
    ("fixed-load", 3): "7ae633b882e06cdc9065a21705898f36a3862633edd02d07f750e6bb8d9503a1",
    ("midpoint-optimality", 3): "e8e25b72e6360bd6e2ae852362e1e555d524bd7b04b790332adcde0bd2b26222",
    ("nfb-distribution", 3): "efa846207118f0b07947ad34d558bb4f5916cf68814c6a32a40e6abf9100f796",
    ("outage-and-rate", 3): "cb4ee0ae9833e40cb93b4c8efb44c1f2be388bacbbaa3ad56f059bde693792b1",
    ("outage-feedback", 3): "8b572e58d96eba59c248b7cbcecaa6abe482f09c3e6f156b13913a59c99c6cfd",
    ("rate-feedback", 3): "6600ebe7aa8a8a06beba3d49feb594165d9ff136c229e93f2fe70d8f56913978",
}


def test_simulated_column_pins_cover_every_experiment():
    assert {name for name, _ in SIMULATED_COLUMN_DIGESTS} == set(EXPERIMENTS)


@pytest.mark.parametrize("name, seed", sorted(SIMULATED_COLUMN_DIGESTS))
def test_simulated_columns_are_pinned(name, seed, tmp_path):
    path = tmp_path / f"{name}.csv"
    rows_to_csv(run_experiment(name, ExperimentConfig(n_trials=300, seed=seed)), path)
    cells = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    assert {len(row) for row in cells} == {5}  # no series name holds a comma
    kept = "".join(f"{x},{series},{simulated}\n" for x, series, _, simulated, _ in cells)
    assert hashlib.sha256(kept.encode()).hexdigest() == SIMULATED_COLUMN_DIGESTS[name, seed]
