"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities when it succeeds.

The exact oracle is the ground truth everywhere; tolerances are exact
(integer equality / inequality), so there is nothing to calibrate.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pseudofactor
from conftest import CORPUS_B_VALUES, brute_force_alpha
from pseudofactor.factor import validate_pseudo_factor
from pseudofactor.generators import complete_graph, cycle_graph, join_sharpness, pendant_sharpness
from pseudofactor.graph import independence_number, min_degree
from pseudofactor.harness import theorem_bound
from pseudofactor.heuristic import posa_cover, solve
from pseudofactor.oracle import min_small_components_exact, min_small_components_naive


def test_criterion_1_bound_on_random_corpus(random_corpus, corpus_oracle):
    """Exact optimum never exceeds max(0, alpha - floor(b(delta-1)/2))."""
    start = time.time()
    assert len(random_corpus) >= 500
    violations = []
    tight = 0
    rows = 0
    for instance, g in random_corpus:
        delta = min_degree(g)
        assert delta >= 1
        alpha = independence_number(g)
        for b in CORPUS_B_VALUES:
            bound = theorem_bound(alpha, delta, b)
            optimum = corpus_oracle[(instance, b)].optimum
            rows += 1
            if optimum > bound:
                violations.append((instance, b, optimum, bound))
            if optimum == bound:
                tight += 1
    assert violations == []
    print(
        f"PASS criterion 1: {len(random_corpus)} graphs x {len(CORPUS_B_VALUES)} b "
        f"= {rows} rows, 0 violations, {tight} tight, {time.time() - start:.1f}s"
    )


def test_criterion_2_join_family_sharpness():
    """The join construction meets the ceiling exactly for every in-range
    (|H|, b, p) with n <= 13."""
    checked = 0
    for h_size in (1, 2, 3):
        for b in (4, 6):
            base_p = b * h_size // 2
            for p in (base_p + 1, base_p + 2, base_p + 3):
                n = h_size + 2 * p
                if n > 13:
                    continue
                g = join_sharpness(complete_graph(h_size), p)
                delta = min_degree(g)
                alpha = independence_number(g)
                assert (delta, alpha) == (h_size + 1, p)
                bound = theorem_bound(alpha, delta, b)
                optimum = min_small_components_exact(g, b).optimum
                assert optimum == bound, (h_size, b, p, optimum, bound)
                checked += 1
    assert checked == 7
    print(f"PASS criterion 2: {checked} join instances, oracle == bound on each")


def test_criterion_3_pendant_family_sharpness():
    """Hanging one pendant per vertex forces exactly |V(H)| small components."""
    checked = 0
    for cycle_len in (3, 4, 5):
        for b in (4, 5):
            g = pendant_sharpness(cycle_graph(cycle_len), b=b)
            delta = min_degree(g)
            alpha = independence_number(g)
            assert (delta, alpha) == (1, cycle_len)
            bound = theorem_bound(alpha, delta, b)
            optimum = min_small_components_exact(g, b).optimum
            assert bound == cycle_len
            assert optimum == cycle_len
            checked += 1
    print(f"PASS criterion 3: {checked} pendant instances, oracle == bound == |V(H)|")


def test_criterion_4_degree_window_regime(random_corpus, corpus_oracle):
    """Whenever 2*alpha <= b*(delta-1) and b >= 4, a full [2,b]-factor exists
    (optimum 0)."""
    regime_rows = 0
    for instance, g in random_corpus:
        delta = min_degree(g)
        alpha = independence_number(g)
        for b in CORPUS_B_VALUES:
            if 2 * alpha <= b * (delta - 1):
                regime_rows += 1
                assert corpus_oracle[(instance, b)].optimum == 0, (instance, b)
    # complete graphs sit deep inside the regime; make it non-vacuous
    for n in range(5, 10):
        g = complete_graph(n)
        assert 2 * independence_number(g) <= 4 * (min_degree(g) - 1)
        assert min_small_components_exact(g, 4).optimum == 0
        regime_rows += 1
    assert regime_rows > 50
    print(f"PASS criterion 4: {regime_rows} regime rows, all with a full factor")


def test_criterion_5_oracle_cross_equivalence(random_corpus, corpus_oracle):
    """Matching-table scan equals partition enumeration on every n <= 8 corpus graph."""
    start = time.time()
    small = [(instance, g) for instance, g in random_corpus if g.n <= 8]
    assert len(small) >= 300
    for instance, g in small:
        for b in CORPUS_B_VALUES:
            assert (
                min_small_components_naive(g, b)
                == corpus_oracle[(instance, b)].optimum
            ), (instance, b)
    print(
        f"PASS criterion 5: {len(small)} graphs x {len(CORPUS_B_VALUES)} b "
        f"cross-checked, {time.time() - start:.1f}s"
    )


def test_criterion_6_independence_oracle(random_corpus, midsize_corpus):
    """Branch-and-bound alpha equals the 2^n scan on every corpus graph
    (n <= 12)."""
    checked = 0
    for _, g in list(random_corpus) + list(midsize_corpus):
        assert g.n <= 12
        assert independence_number(g) == brute_force_alpha(g)
        checked += 1
    print(f"PASS criterion 6: branch-and-bound == 2^n scan on {checked} graphs")


def test_criterion_7_heuristic_soundness(random_corpus, corpus_oracle):
    """solve() always validates, never beats the oracle, never exceeds alpha,
    and descends strictly; bound attainment is reported, not asserted."""
    start = time.time()
    attained = 0
    rows = 0
    for instance, g in random_corpus:
        alpha = independence_number(g)
        delta = min_degree(g)
        for b in CORPUS_B_VALUES:
            result = solve(g, b)
            summary = validate_pseudo_factor(g, result.factor.edges, b)
            assert summary.small_count == result.small_count
            optimum = corpus_oracle[(instance, b)].optimum
            assert optimum <= result.small_count <= alpha, (instance, b)
            previous = None
            for step in result.steps:
                assert step.after < step.before
                if previous is not None:
                    assert step.before == previous
                previous = step.after
            assert not result.budget_exhausted
            rows += 1
            if result.small_count <= theorem_bound(alpha, delta, b):
                attained += 1
    print(
        f"PASS criterion 7: {rows} solves sound; bound attainment "
        f"{attained}/{rows} = {attained / rows:.3f} (informational), "
        f"{time.time() - start:.1f}s"
    )


def test_criterion_8_cover_never_exceeds_alpha(random_corpus, midsize_corpus):
    """The cycle/edge/vertex cover uses at most alpha pieces."""
    checked = 0
    for _, g in list(random_corpus) + list(midsize_corpus):
        pieces = posa_cover(g, range(g.n))
        assert len(pieces) <= independence_number(g)
        covered = sorted(v for piece in pieces for v in piece.vertices)
        assert covered == list(range(g.n))
        checked += 1
    print(f"PASS criterion 8: cover within alpha on {checked} graphs")


def test_criterion_9_report_determinism(tmp_path):
    """verify produces byte-identical report bodies across reruns and across
    worker counts."""
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "\n".join(
            ["join h=1 p=3", "pendant h=4", "cycle n=6", "complete n=5", "path n=5"]
            + [f"gnp n={n} p=0.5 seed={s}" for n in (6, 7, 8) for s in (1, 2)]
        )
        + "\n"
    )
    # the child imports the same (stdlib-only) package as this test,
    # installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(pseudofactor.__file__).parents[1])}

    def run(jobs: int, name: str) -> list[str]:
        report = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "pseudofactor", "verify", str(manifest),
                "-b", "4,5", "--mode", "both", "--jobs", str(jobs),
                "--report", str(report),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = report.read_text().splitlines()
        json.loads(lines[0])  # header (timestamp) excluded from comparison
        return lines[1:]

    serial_1 = run(1, "serial1.jsonl")
    serial_2 = run(1, "serial2.jsonl")
    parallel = run(8, "parallel.jsonl")
    assert serial_1 == serial_2
    assert serial_1 == parallel
    print(f"PASS criterion 9: {len(serial_1) - 1} rows byte-identical at jobs=1 and jobs=8")


if __name__ == "__main__":
    # standalone run: one verbose pass/fail line per criterion
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
