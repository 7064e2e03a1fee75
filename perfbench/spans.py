"""Spans around the public functions each pseudofactor module calls.

The traced run rebinds every module-level name that refers to a traced
function (for example ``pseudofactor.heuristic.longest_path``, through which
the solver reaches ``graph.longest_path``) to a wrapper that records a span:
name, start, end, parent span and row. Nothing under ``src/`` changes, and
``restore`` puts the original bindings back.

Spans stay in memory. A span's self time is its duration minus the time its
traced children took.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute path) of the function to wrap
TRACED = (
    ("generators.build", "pseudofactor.generators", "FamilySpec.build"),
    ("graph.read_graph_file", "pseudofactor.graph", "read_graph_file"),
    ("graph.independence_number", "pseudofactor.graph", "independence_number"),
    ("graph.longest_path", "pseudofactor.graph", "longest_path"),
    ("factor.spanning_in_range", "pseudofactor.factor", "spanning_in_range"),
    ("factor.is_2b_subgraph", "pseudofactor.factor", "is_2b_subgraph"),
    ("factor.PseudoFactor.build", "pseudofactor.factor", "PseudoFactor.build"),
    ("oracle.min_small_components_exact", "pseudofactor.oracle", "min_small_components_exact"),
    ("heuristic.solve", "pseudofactor.heuristic", "solve"),
    ("heuristic.initial_subgraph", "pseudofactor.heuristic", "initial_subgraph"),
    ("heuristic.improve", "pseudofactor.heuristic", "improve"),
    ("heuristic.enumerate_moves", "pseudofactor.heuristic", "enumerate_moves"),
    ("heuristic.apply_move", "pseudofactor.heuristic", "apply_move"),
    ("heuristic.posa_cover", "pseudofactor.heuristic", "posa_cover"),
    ("harness.verify_instance", "pseudofactor.harness", "verify_instance"),
    ("harness.run_corpus", "pseudofactor.harness", "run_corpus"),
    ("harness.write_jsonl", "pseudofactor.harness", "write_jsonl"),
)

#: span name -> (counter name, value added per call from the call's result)
RESULT_COUNTERS = {
    "factor.spanning_in_range": ("factor.spanning_in_range.feasible", lambda r: r is not None),
    "heuristic.enumerate_moves": ("heuristic.moves_enumerated", len),
    "heuristic.improve": ("heuristic.steps", lambda r: len(r.steps)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, row]
        self.child_s: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._row = -1
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.child_s.clear()
        self.counters.clear()
        self._row = -1

    def _wrap(self, name: str, fn):
        spans, child_s, stack, counters = self.spans, self.child_s, self._stack, self.counters
        counter = RESULT_COUNTERS.get(name)
        new_row = name == "harness.verify_instance"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if new_row:
                self._row += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self._row]
            spans.append(span)
            child_s.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1] = start
                span[2] = end
                if parent >= 0:
                    child_s[parent] += end - start
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded pseudofactor module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pseudofactor"]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()

    def aggregate(self) -> dict[str, float]:
        """calls, inclusive seconds (.s) and self seconds (.self_s) per span
        name, plus the result counters."""
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _, _), child in zip(self.spans, self.child_s):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child
        for counter, _ in RESULT_COUNTERS.values():
            out[counter] = self.counters.get(counter, 0)
        return out

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index, row."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
