"""The recorder's summary of a BENCH_<n>.json record."""
import importlib.util
import json
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().parents[1] / "benchmarks" / "record.py"


def _load():
    spec = importlib.util.spec_from_file_location("benchmarks_record", RECORD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(label, setup_s, items_per_s, seed=None, trace=0):
    metrics = {"setup_s": {"unit": "s", "value": setup_s},
               "items_per_s": {"unit": "1/s", "value": items_per_s},
               "kernels.disc_batch_stats.calls": {"unit": "count", "value": 7}}
    run = {"label": label, "workload": "mc-batch", "trace": trace,
           "result": {"correct": True, "failed": 0, "metrics": metrics}}
    if seed is not None:
        run["seed"] = seed
    return run


SYNTHETIC = {"runs": [
    _run("parent", 0.50, 100.0), _run("change", 0.30, 110.0),
    _run("change", 0.70, 90.0), _run("parent", 0.60, 100.0),
    _run("parent", 0.55, 100.0), _run("change", 0.31, 100.0),
    _run("parent", 9.0, 1.0, trace=1),  # traced: no end-to-end numbers
    _run("parent", 0.52, 100.0, seed=2), _run("change", 0.32, 120.0, seed=2),
]}


def test_summary_gives_medians_quartiles_and_pair_wins():
    assert _load().summary(SYNTHETIC) == [
        "mc-batch seed=1 setup_s: parent 0.55 [0.525, 0.575] n=3; "
        "change 0.31 [0.305, 0.505] n=3; change better in 2/3 pairs",
        "mc-batch seed=1 items_per_s: parent 100 [100, 100] n=3; "
        "change 100 [95, 105] n=3; change better in 1/3 pairs",
        "mc-batch seed=2 setup_s: parent 0.52 [0.52, 0.52] n=1; "
        "change 0.32 [0.32, 0.32] n=1; change better in 1/1 pairs",
        "mc-batch seed=2 items_per_s: parent 100 [100, 100] n=1; "
        "change 120 [120, 120] n=1; change better in 1/1 pairs",
    ]


def test_summary_mode_reads_the_file_and_runs_nothing(tmp_path, capsys):
    record = _load()
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(SYNTHETIC))
    assert record.main([str(path), "--summary"]) == 0
    assert capsys.readouterr().out.splitlines() == record.summary(SYNTHETIC)
    with pytest.raises(SystemExit):
        record.main([str(path)])  # recording needs a label
