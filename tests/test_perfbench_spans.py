"""The benchmark's files, read without changing them.

The traced benchmark run wraps package functions by name; a rename or a
deletion must fail here rather than crash ``perfbench/run.py --trace 1``, and
so must a result that a traced counter cannot read. The
workload names must agree across ``BENCHMARK.json``, ``perfbench/workloads.py``
and ``perfbench/expected.json``, so that re-picking a workload cannot leave one
of them behind."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from pseudofactor.generators import gnp
from pseudofactor.harness import verify_instance

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file loads
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    traced = _load("perfbench_spans", SPANS, monkeypatch).TRACED
    assert traced
    for name, module_name, attr in traced:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{name}: {module_name}.{attr} is missing"
            target = getattr(target, part)
        assert callable(target), f"{name}: {module_name}.{attr} is not callable"


def test_result_counters_read_what_traced_functions_return(monkeypatch):
    # a counter reads its function's result (the length of the move list, for
    # one); a result it cannot read must fail here, not in a traced run
    spans = _load("perfbench_spans", SPANS, monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for seed in range(4):
            verify_instance(gnp(8, 0.45, seed), 4, mode="both")
    finally:
        tracer.restore()
    totals = tracer.aggregate()
    for name, (counter, _) in spans.RESULT_COUNTERS.items():
        assert totals[f"{name}.calls"] > 0, f"{name} never ran"
        assert isinstance(totals[counter], int), counter


def test_workload_names_agree(monkeypatch):
    workloads = _load("perfbench_workloads", WORKLOADS, monkeypatch).WORKLOADS
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    assert declared and len(set(declared)) == len(declared)
    assert all(key == w.name for key, w in workloads.items())
    assert set(declared) == set(workloads) == set(expected)
