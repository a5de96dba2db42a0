"""The benchmark rebinds relaysim names and runs every experiment; each must still exist."""
import importlib.util
from pathlib import Path

from relaysim.experiments import EXPERIMENTS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer._targets()
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_tracer_installs_and_restores():
    tracer = _load("tracer")
    from relaysim import metrics
    original = metrics.average_rate
    with tracer.Tracer().installed():
        assert metrics.average_rate is not original
    assert metrics.average_rate is original


def test_figures_workload_runs_every_experiment():
    workloads = _load("workloads")
    assert sorted(workloads.Figures.TOLERANCE) == sorted(EXPERIMENTS)
