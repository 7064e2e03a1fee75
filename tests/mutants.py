"""Planted-fault gate: every check in ``MUTANTS`` must have a test that fails
when the check is broken.

Each row plants one edit in a fresh copy of ``src/``. Its old text must occur
exactly once in its file. The row's test selection then runs against that
copy with ``-x``, and the mutant is killed when a test fails. The selections
first run once against an unedited copy and must pass there, so a kill is
never a test that fails anyway. The script prints one line per mutant and
exits 1 if any survives, or 2 if an edit does not apply or a selection does
not run cleanly.

Run it from any directory, with pytest and hypothesis installed:

    python tests/mutants.py

A row's selection is a list of pytest node ids relative to the repository
root; keep it narrow, since a survivor costs a full run of it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/pseudofactor/
    old: str
    new: str
    why: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("heuristic.py",
           "return ImproveOutcome(state, tuple(steps), 2 + top)",
           "return ImproveOutcome(state, tuple(steps), 1 + top)",
           "need one below the caps' reach reuses a descent at a b where X6's cap binds",
           ("tests/test_heuristic.py::TestSolve::test_need_is_2_without_an_enumerated_move",
            "tests/test_heuristic.py::TestSolve::test_degree_gain_of_x6_keeps_a_b7_descent_from_b5")),
    Mutant("heuristic.py",
           "top = max([top, *Counter(",
           "top = top or max([0, *Counter(",
           "need read from the seed alone misses the degrees that steps raise",
           ("tests/test_heuristic.py::TestSolve::test_caps_that_bind_are_not_shared",
            "tests/test_heuristic.py::TestSolve::test_degree_gain_of_x6_keeps_a_b7_descent_from_b5")),
    Mutant("harness.py",
           "bound == 0, delta == 0",
           "bound is not None and bound <= 1, delta == 0",
           "kl_regime past its boundary 2 alpha = b (delta - 1)",
           ("tests/test_harness.py::TestVerifyInstance::test_kl_regime_flag",)),
    Mutant("heuristic.py",
           "if shared.factor.max_degree > b:",
           "if False:",
           "solve returns a kept descent whose factor's degree exceeds the row's b",
           ("tests/test_heuristic.py::TestSolve::test_a_descent_reused_below_its_factors_degree_raises",)),
    Mutant("factor.py",
           "small, max(degree, default=0))",
           "small, max(degree, default=0) - 1)",
           "build records max_degree one low",
           ("tests/test_factor.py::TestValidate::test_max_degree_sets_the_bs_it_builds_at",)),
    Mutant("factor.py",
           "components if mask.bit_count() < 3)",
           "components if mask.bit_count() <= 3)",
           "build counts a triangle as a small component",
           ("tests/test_factor.py::TestValidate",)),
    Mutant("factor.py",
           "if d < 2 or d > b:",
           "if d < 1 or d > b:",
           "_check_window accepts degree 1 in a large component",
           ("tests/test_factor.py::TestValidate::test_degree_one_in_large_component",)),
    Mutant("factor.py",
           "if d < 2 or d > b:",
           "if d < 2 or d > b + 1:",
           "_check_window accepts degree b + 1",
           ("tests/test_factor.py::TestValidate::test_degree_above_b",)),
    Mutant("harness.py",
           "(oracle_opt or 0) <= heur <= alpha",
           "(oracle_opt or 0) <= heur",
           "a solver value above alpha(G) passes as consistent",
           ("tests/test_harness.py::TestVerifyInstance::test_impossible_heuristic_value",)),
    Mutant("heuristic.py",
           "if outcome.need <= b:",
           "if True:",
           "every descent is kept, also one whose caps bound at its own b",
           ("tests/test_heuristic.py::TestSolve::test_caps_that_bind_are_not_shared",)),
    Mutant("harness.py",
           "alpha - (b * (delta - 1)) // 2)",
           "alpha - -(-b * (delta - 1) // 2))",
           "theorem_bound rounds b (delta - 1) / 2 up",
           ("tests/test_harness.py::TestTheoremBound::test_odd_b_floors_exactly",)),
    Mutant("oracle.py",
           "kept.witness.max_degree <= b:",
           "kept.witness.max_degree <= b + 1:",
           "a kept oracle witness is reused one b below its largest degree",
           ("tests/test_oracle.py::TestSharedScan",)),
    Mutant("oracle.py",
           "if top <= b:",
           "if top <= b + 1:",
           "an oracle witness whose largest degree exceeds b is kept",
           ("tests/test_oracle.py::TestSharedScan",)),
    Mutant("memo.py",
           "except CapacityError as exc:\n                val = exc\n",
           "except CapacityError:\n                raise\n",
           "SolveMemo.path drops a refused search, so each row searches again",
           ("tests/test_graph.py::TestLongestPath::test_memo_keeps_its_refusal",)),
    Mutant("cli.py",
           '"capacity_skipped": EXIT_CAPACITY}',
           '"capacity_skipped": EXIT_OK}',
           "a refused row exits 0 under --strict",
           ("tests/test_cli.py::test_every_exit_code",)),
    Mutant("cli.py",
           '"BOUND_VIOLATION": EXIT_VIOLATION,',
           '"BOUND_VIOLATION": EXIT_OK,',
           "a bound violation exits 0",
           ("tests/test_cli.py::test_every_exit_code",)),
    Mutant("cli.py",
           '"SOLVER_INCONSISTENT": EXIT_INTERNAL,',
           '"SOLVER_INCONSISTENT": EXIT_OK,',
           "an inconsistent row exits 0",
           ("tests/test_cli.py::test_every_exit_code",)),
    Mutant("harness.py",
           "exact.witness.small_count != oracle_opt)",
           "exact.witness.small_count > oracle_opt)",
           "an optimum above its witness's small count passes as consistent",
           ("tests/test_harness.py::TestVerifyInstance::test_witness_must_attain_optimum",)),
    Mutant("oracle.py",
           "(-nu[full ^ large], large)",
           "(nu[full ^ large], large)",
           "the walk tries more vertex components first among equal small counts",
           ("tests/test_oracle.py::TestExact::test_witness_tie_breaks",)),
    Mutant("generators.py",
           "if vertices > DECLARED_VERTEX_LIMIT:",
           "if vertices > DECLARED_VERTEX_LIMIT + 1:",
           "a family one vertex past the limit is accepted",
           ("tests/test_generators.py::TestFamilySpec::test_too_many_vertices_rejected_at_parse",)),
    Mutant("generators.py",
           "if edges > MANIFEST_EDGE_LIMIT:",
           "if edges > MANIFEST_EDGE_LIMIT + 1:",
           "a family one edge past the limit is accepted",
           ("tests/test_generators.py::TestFamilySpec::test_edge_limit_refuses_one_past_its_boundary",)),
    Mutant("graph.py",
           "if n > DECLARED_VERTEX_LIMIT:",
           "if n > DECLARED_VERTEX_LIMIT + 1:",
           "a graph file header one vertex past the limit is accepted",
           ("tests/test_graph.py::TestParsing::test_declared_vertex_count_limit",)),
    Mutant("graph.py",
           "if steps > budget:",
           "if steps > budget + 1:",
           "the path search takes one branching step past its budget",
           ("tests/test_graph.py::TestLongestPath::test_step_budget",)),
)


def _copy_src(dest: Path) -> Path:
    """A copy of ``src/`` under ``dest``, without bytecode; its path."""
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _plant(src: Path, mutant: Mutant) -> None:
    """Apply ``mutant``'s edit to the copy at ``src``; ValueError unless its
    old text occurs exactly once."""
    path = src / "pseudofactor" / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.file}: {mutant.old!r} occurs {found} times, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run(src: Path, tests, cwd: Path) -> int:
    """pytest's exit code for ``tests`` against the package under ``src``:
    0 when all pass, 1 when one fails. It runs in ``cwd``, so nothing it
    writes (hypothesis' database) lands in the checkout."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *(str(ROOT / t) for t in tests)]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        selections = sorted({t for m in MUTANTS for t in m.tests})
        code = _run(_copy_src(tmp / "clean"), selections, tmp)
        if code != 0:
            print(f"the selections fail on the unedited source (pytest exit {code})")
            return 2
        survivors = broken = 0
        for i, mutant in enumerate(MUTANTS):
            src = _copy_src(tmp / str(i))
            try:
                _plant(src, mutant)
            except ValueError as exc:
                print(f"not applied  {exc}")
                broken += 1
                continue
            code = _run(src, mutant.tests, tmp)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error {code}")
            survivors += code == 0
            broken += code not in (0, 1)
            print(f"{verdict:<12} {mutant.file:<13} {mutant.why}")
    print(f"{len(MUTANTS)} mutants, {survivors} survived, {broken} did not run")
    return 2 if broken else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
