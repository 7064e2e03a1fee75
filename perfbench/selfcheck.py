"""Consistency checks of the benchmark itself (needs pytest and hypothesis,
which the timed runs never import)::

    python3 perfbench/selfcheck.py

1. At the default seed the acceptance workload generates exactly the corpus
   of ``tests/conftest.py::build_random_corpus``: same ids, same edges.
2. The acceptance digest in ``expected.json`` is the report body that
   ``run_corpus`` writes for that conftest corpus.
3. ``BENCHMARK.json`` names the workloads and metrics ``run.py`` reports.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import CORPUS_B_VALUES, build_random_corpus  # noqa: E402
from pseudofactor.harness import jsonl_body_lines, run_corpus  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs  # noqa: E402


def main() -> int:
    problems = []
    corpus = build_random_corpus()
    want = [(iid, g.n, g.edges) for iid, g in corpus]
    for name in ("acceptance-both",):
        got = [(g.instance_id(), g.n, g.edges) for g in make_inputs(WORKLOADS[name], DEFAULT_SEED)]
        if got != want:
            problems.append(f"{name}: default-seed inputs differ from conftest's corpus")

    run = run_corpus(corpus, CORPUS_B_VALUES, mode="both")
    digest = hashlib.sha256("".join(line + "\n" for line in jsonl_body_lines(run)).encode()).hexdigest()
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    for name in ("acceptance-both",):
        if expected[name]["body_sha256"] != digest or expected[name]["summary"] != run.summary:
            problems.append(f"{name}: expected.json does not match the conftest corpus report")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
