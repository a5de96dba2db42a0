"""The benchmark's tracer rebinds relaysim names; each must still exist."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer._targets()
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_tracer_installs_and_restores():
    tracer = _load_tracer()
    from relaysim import metrics
    original = metrics.average_rate
    with tracer.Tracer().installed():
        assert metrics.average_rate is not original
    assert metrics.average_rate is original
