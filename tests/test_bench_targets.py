import importlib
import importlib.util
from pathlib import Path


def test_every_traced_target_resolves():
    # bench/run.py --trace 1 wraps each (module, function) in spans.TARGETS
    # by name, so a renamed or deleted function would break the tracer.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, function, _ in spans.TARGETS:
        module = importlib.import_module(f"vogeluniq.{module_name}")
        assert callable(getattr(module, function, None)), f"{module_name}.{function}"
