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


def test_law_evaluations_are_traced_under_their_public_names():
    # laws built before the tracer is installed still evaluate through the traced names
    tracer = _load("tracer")
    from relaysim import distributions as dist
    from relaysim import metrics
    from relaysim.model import Fading, PathLoss
    best, unequal = dist.best_cqi_law(1.0, 1.0), dist.unequal_snr_cqi_law(1.0, 0.5, 1.0, 1.5)
    with tracer.Tracer().installed() as trace:
        metrics.average_rate(best, 3.0, PathLoss.power_law(4.0), Fading.RAYLEIGH)
        unequal.quantile(0.5)
    assert trace.get("distributions.best_cqi_pdf").counts.get("points", 0) > 0
    assert trace.get("distributions.unequal_snr_cqi_cdf").counts.get("points", 0) > 0
