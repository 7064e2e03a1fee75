"""The traced benchmark run wraps package functions by name; a rename or a
deletion must fail here rather than crash ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = _load_spans().TRACED
    assert traced
    for name, module_name, attr in traced:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{attr} is missing"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module_name}.{attr} is not callable"
