"""The benchmark tracer wraps functions by name; every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    missing = []
    for layer, attrs in _load_tracer().TRACED.items():
        module = importlib.import_module(f"chainbook.{layer}")
        for attr in attrs:
            target = module
            for part in attr.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"chainbook.{layer}.{attr}")
    assert missing == []
