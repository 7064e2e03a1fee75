import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudofactor.cli as cli
import pseudofactor.graph as graph_module
import pseudofactor.harness as harness
import pseudofactor.memo as memo_module
import pseudofactor.oracle as oracle_module
from pseudofactor import heuristic
from pseudofactor.errors import CapacityError
from pseudofactor.generators import (
    FamilySpec,
    complete_graph,
    cycle_graph,
    gnp,
    join_sharpness,
    path_graph,
    pendant_sharpness,
)
from pseudofactor.graph import Graph
from pseudofactor.harness import (
    BoundReport,
    check_instance,
    jsonl_body_lines,
    run_corpus,
    summarize,
    theorem_bound,
    verify_instance,
    write_csv,
    write_jsonl,
    write_reproducers,
)
from pseudofactor.oracle import OracleResult, min_small_components_exact


def fake_pool(sizes: list):
    """A stand-in for ProcessPoolExecutor that records each requested size in
    ``sizes`` and maps in this process, so no pool starts for real."""

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    return FakePool


def spy_full_graph(monkeypatch, name: str) -> list[Graph]:
    """Record the graph of every call of ``graph.<name>`` on the whole vertex
    set, with or without its mask, through each module that binds the
    function."""
    original = getattr(graph_module, name)
    calls = []

    def spy(g, mask=None):
        if mask is None or mask == g.full_mask:
            calls.append(g)
        return original(g, mask)

    for module in (graph_module, memo_module, harness, heuristic, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


class TestTheoremBound:
    def test_values(self):
        assert theorem_bound(5, 3, 4) == 1
        assert theorem_bound(3, 1, 5) == 3
        assert theorem_bound(2, 3, 5) == 0

    def test_odd_b_floors_exactly(self):
        # floor(5*(4-1)/2) = 7, never 7.5 rounded
        assert theorem_bound(10, 4, 5) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            theorem_bound(0, 1, 4)
        with pytest.raises(ValueError):
            theorem_bound(3, 0, 4)
        with pytest.raises(ValueError):
            theorem_bound(3, 1, 1)

    def test_bound_violated(self, monkeypatch):
        # an exact optimum above the ceiling, for b != 3; the pendant
        # family's optimum is 3, and the ceiling is patched to ``bound``
        pendant = FamilySpec.parse("pendant h=3").build()

        def status(bound, b=4, mode="oracle", g=pendant):
            monkeypatch.setattr(harness, "theorem_bound", lambda alpha, delta, b: bound)
            return check_instance(g, b, mode=mode)[0].status

        assert status(2) == "BOUND_VIOLATION"
        assert status(3) == "ok"
        assert status(2, b=3) == "ok"  # b = 3 carries no guarantee
        assert status(2, mode="heuristic") == "ok"  # no optimum to check
        # no ceiling to check: an isolated vertex, optimum 2
        assert status(0, g=Graph.build(3, [(0, 1)])) == "ok"


class TestVerifyInstance:
    def test_cycle(self):
        report = verify_instance(cycle_graph(5), 4, mode="oracle", instance="c5")
        assert (report.delta, report.alpha) == (2, 2)
        assert report.theorem_bound == 0
        assert report.oracle_optimum == 0
        assert report.status == "ok"

    def test_join_family_is_tight(self):
        report = verify_instance(join_sharpness(complete_graph(1), 3), 4)
        assert report.theorem_bound == 1
        assert report.oracle_optimum == 1
        assert report.status == "ok"

    def test_single_edge(self):
        report = verify_instance(complete_graph(2), 4)
        assert (report.delta, report.alpha) == (1, 1)
        assert report.theorem_bound == 1
        assert report.oracle_optimum == 1
        assert report.status == "ok"

    def test_isolated_vertices_downgrade(self):
        g = Graph.build(3, [(0, 1)])
        report = verify_instance(g, 4)
        assert report.isolated_vertices
        assert report.theorem_bound is None
        assert report.status == "ok"

    def test_b3_flagged_without_guarantee(self):
        report = verify_instance(cycle_graph(5), 3)
        assert report.b3_no_guarantee
        assert report.status == "ok"

    def test_capacity_skipped(self):
        report = verify_instance(gnp(30, 0.5, 1), 4, mode="oracle")
        assert report.status == "capacity_skipped"
        assert report.oracle_optimum is None
        assert report.alpha is not None  # the cheap fields still fill in

    def test_check_instance_returns_every_stage(self):
        g = cycle_graph(5)
        row, exact, result, refusal = check_instance(g, 4, mode="both", instance="c5")
        assert row == verify_instance(g, 4, mode="both", instance="c5")
        assert (exact.optimum, result.small_count, refusal) == (0, 0, None)
        assert check_instance(g, 4, mode="heuristic")[1] is None
        assert check_instance(g, 4, mode="oracle")[2] is None
        # the oracle refuses at n = 16, so the solver after it never runs
        row, exact, result, refusal = check_instance(gnp(16, 0.3, 2), 4, mode="both")
        assert (row.status, exact, result) == ("capacity_skipped", None, None)
        assert isinstance(refusal, CapacityError)

    def test_heuristic_mode(self):
        report = verify_instance(cycle_graph(5), 4, mode="heuristic")
        assert report.oracle_optimum is None
        assert report.heuristic_value == 0

    @pytest.mark.parametrize("value", [-1, 3])
    def test_impossible_heuristic_value(self, monkeypatch, value):
        # C5 at b=4: oracle optimum 0, alpha 2; -1 beats the oracle, 3 exceeds alpha
        class Impossible:
            small_count = value

        monkeypatch.setattr(harness, "solve", lambda g, b, **_: Impossible())
        report = verify_instance(cycle_graph(5), 4, mode="both")
        assert report.heuristic_value == value
        assert report.status == "SOLVER_INCONSISTENT"

    def test_witness_must_attain_optimum(self, monkeypatch):
        # b = 3 carries no guarantee, so only the witness check can catch it
        real = min_small_components_exact

        def shifted(g, b, memo=None):
            result = real(g, b)
            return OracleResult(result.optimum + 1, result.witness)

        monkeypatch.setattr(harness, "min_small_components_exact", shifted)
        report = verify_instance(path_graph(4), 3, mode="oracle")
        assert report.status == "SOLVER_INCONSISTENT"

    def test_bound_violation_takes_precedence(self, monkeypatch):
        real = min_small_components_exact

        def inflated(g, b, memo=None):
            result = real(g, b)
            return OracleResult(result.optimum + 99, result.witness)

        monkeypatch.setattr(harness, "min_small_components_exact", inflated)
        report = verify_instance(cycle_graph(5), 4, mode="both")
        assert report.status == "BOUND_VIOLATION"

    def test_kl_regime_flag(self):
        report = verify_instance(complete_graph(5), 4)
        assert report.kl_regime
        assert report.oracle_optimum == 0


class TestRunCorpus:
    def test_empty(self):
        run = run_corpus([], [4])
        assert run.reports == ()
        assert run.summary["rows"] == 0
        assert run.summary["violations"] == 0

    def test_rows_follow_manifest_order(self):
        items = [("a", cycle_graph(5)), ("b", complete_graph(4))]
        run = run_corpus(items, [4, 5])
        assert [(r.instance, r.b) for r in run.reports] == [
            ("a", 4), ("a", 5), ("b", 4), ("b", 5),
        ]

    def test_parallel_equals_serial(self):
        items = [(f"gnp {s}", gnp(7, 0.5, s)) for s in range(6)]
        serial = run_corpus(items, [4], mode="both", jobs=1)
        parallel = run_corpus(items, [4], mode="both", jobs=4)
        assert serial.reports == parallel.reports
        assert serial.summary == parallel.summary

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_start_method_writes_the_serial_body(self, method):
        # Python 3.14 starts pools by forkserver on Linux, and macOS by spawn:
        # a worker that re-imports the package must still write the serial rows
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import multiprocessing\n"
            "from pseudofactor.generators import gnp\n"
            "from pseudofactor.harness import jsonl_body_lines, run_corpus\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "items = [(f'gnp {s}', gnp(7, 0.5, s)) for s in range(6)]\n"
            "serial = jsonl_body_lines(run_corpus(items, [4, 5], mode='both'))\n"
            "pooled = jsonl_body_lines(run_corpus(items, [4, 5], mode='both', jobs=2))\n"
            "print(len(serial), pooled == serial)\n"
        )
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.split() == ["13", "True"]

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                run_corpus([("c5", cycle_graph(5))], [4], jobs=jobs)

    def test_pool_size_is_clamped(self, monkeypatch):
        # never start a large pool for real: a fake executor records the
        # requested size and maps serially
        sizes = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fake_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        items = [(f"c{n}", cycle_graph(n)) for n in (4, 5, 6, 7)]
        serial = run_corpus(items, [4], jobs=1)
        assert run_corpus(items, [4], jobs=10**6).reports == serial.reports
        run_corpus(items[:2], [4], jobs=10**6)
        run_corpus(items, [4], jobs=2)
        assert sizes == [3, 2, 2]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_corpus(items, [4], jobs=8)  # unknown CPU count: serial
        assert sizes == [3, 2, 2]

    def test_b_rows_share_alpha_and_seed_path(self, monkeypatch):
        items = [(f"gnp {s}", gnp(8, 0.45, s)) for s in range(4)]
        expected = [
            verify_instance(g, b, mode="both", instance=instance)
            for instance, g in items
            for b in (4, 5, 6)
        ]
        alpha_calls = spy_full_graph(monkeypatch, "independence_number")
        path_calls = spy_full_graph(monkeypatch, "longest_path")
        sizes = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fake_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        graphs = [g for _, g in items]
        for jobs in (1, 2):  # serial, then per-graph tasks through the pool
            alpha_calls.clear()
            path_calls.clear()
            run = run_corpus(items, [4, 5, 6], mode="both", jobs=jobs)
            assert list(run.reports) == expected
            assert alpha_calls == graphs
            assert path_calls == graphs
        assert sizes == [2]

    def test_fallback_rows_search_alpha_of_g_once(self, monkeypatch):
        # with F empty, alpha(G - F) is alpha(G): one search serves both
        items = [("pendant c3", pendant_sharpness(cycle_graph(3))),
                 ("pendant c5", pendant_sharpness(cycle_graph(5))),
                 ("path 6", path_graph(6))]
        assert all(heuristic.solve(g, 4).fallback for _, g in items)
        alpha_calls = spy_full_graph(monkeypatch, "independence_number")
        sizes = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fake_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for jobs in (1, 2):  # serial, then per-graph tasks through the pool
            alpha_calls.clear()
            run_corpus(items, [4, 5, 6], mode="heuristic", jobs=jobs)
            assert alpha_calls == [g for _, g in items]
        assert sizes == [2]

    def test_b_rows_share_covers(self, monkeypatch):
        items = [(f"gnp {s}", gnp(8, 0.45, s)) for s in range(4)]
        original = heuristic.posa_cover
        calls = []

        def spy(g, mask, memo=None):
            calls.append((id(g), mask))
            return original(g, mask, memo)

        monkeypatch.setattr(heuristic, "posa_cover", spy)
        expected = [
            verify_instance(g, b, mode="both", instance=instance)
            for instance, g in items
            for b in (4, 5, 6)
        ]
        distinct = list(dict.fromkeys(calls))  # first row of each graph's leftover set
        assert len(distinct) < len(calls)  # some b rows repeat a leftover set
        sizes = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fake_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for jobs in (1, 2):  # serial, then per-graph tasks through the pool
            calls.clear()
            run = run_corpus(items, [4, 5, 6], mode="both", jobs=jobs)
            assert list(run.reports) == expected
            assert calls == distinct
        assert sizes == [2]

    @pytest.mark.parametrize("mode", ["oracle", "both"])
    def test_b_rows_share_the_oracle_scan(self, monkeypatch, mode):
        items = [(f"gnp {s}", gnp(8, 0.45, s)) for s in range(4)]
        expected = [
            verify_instance(g, b, mode=mode, instance=instance)
            for instance, g in items
            for b in (4, 5, 6)
        ]
        original = oracle_module._matching_scan
        calls = []

        def spy(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(oracle_module, "_matching_scan", spy)
        sizes = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", fake_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        for jobs in (1, 2):  # serial, then per-graph tasks through the pool
            calls.clear()
            run = run_corpus(items, [4, 5, 6], mode=mode, jobs=jobs)
            assert list(run.reports) == expected
            assert calls == [g for _, g in items]
        assert sizes == [2]

    def test_refusals_are_not_shared(self, monkeypatch):
        path_calls = spy_full_graph(monkeypatch, "longest_path")
        over_path = [("n19", gnp(19, 0.3, 1))]
        run = run_corpus(over_path, [4, 5, 6], mode="heuristic")
        assert [r.status for r in run.reports] == ["capacity_skipped"] * 3
        assert len(path_calls) == 3  # each row asks again and is refused again
        path_calls.clear()
        real = min_small_components_exact
        oracle_calls = []

        def counting(g, b, memo=None):
            oracle_calls.append(b)
            return real(g, b, memo=memo)

        monkeypatch.setattr(harness, "min_small_components_exact", counting)
        over_oracle = [("n16", gnp(16, 0.3, 1))]
        for mode in ("oracle", "both"):
            oracle_calls.clear()
            run = run_corpus(over_oracle, [4, 5, 6], mode=mode)
            assert [r.status for r in run.reports] == ["capacity_skipped"] * 3
            assert oracle_calls == [4, 5, 6]  # each row asks again and is refused again
        assert path_calls == []  # the oracle refuses before the solver runs

    def test_memo_of_another_graph_rejected(self):
        g = cycle_graph(5)
        twin = cycle_graph(5)  # equal, but not the same graph
        with pytest.raises(ValueError, match="another graph"):
            verify_instance(g, 4, mode="both", memo=heuristic.SolveMemo(twin))

    def test_violation_detection_and_reproducer(self, tmp_path, monkeypatch):
        # the guarantee holds on real graphs, so fake an optimum above the
        # ceiling to exercise the loud-failure path
        real = min_small_components_exact

        def inflated(g, b, memo=None):
            result = real(g, b)
            return OracleResult(result.optimum + 99, result.witness)

        monkeypatch.setattr(harness, "min_small_components_exact", inflated)
        items = [("c5", cycle_graph(5))]
        run = run_corpus(items, [4], jobs=1)
        assert run.reports[0].status == "BOUND_VIOLATION"
        assert run.summary["violations"] == 1
        written = write_reproducers(run, items, tmp_path)
        assert len(written) == 1
        text = (tmp_path / "violation_0000.edges").read_text()
        assert "b: 4" in text and "n 5" in text


def test_import_leaves_pool_and_datetime_unloaded():
    # a serial run needs neither; the pool is imported when one starts
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, pseudofactor; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'datetime') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestReports:
    def test_jsonl_round_trip(self, tmp_path):
        items = [("c5", cycle_graph(5)), ("k4", complete_graph(4))]
        run = run_corpus(items, [4], mode="both")
        path = tmp_path / "report.jsonl"
        write_jsonl(path, run, generated_at="T")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == 1
        rows = [json.loads(line) for line in lines[1:-1]]
        assert [r["instance"] for r in rows] == ["c5", "k4"]
        summary = json.loads(lines[-1])["summary"]
        assert summary == run.summary

    def test_body_is_timestamp_free(self, tmp_path):
        items = [("c5", cycle_graph(5))]
        run = run_corpus(items, [4])
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(first, run, generated_at="2000-01-01T00:00:00+00:00")
        write_jsonl(second, run, generated_at="2049-12-31T23:59:59+00:00")
        assert first.read_text().splitlines()[1:] == second.read_text().splitlines()[1:]

    def test_csv_fields(self, tmp_path):
        items = [("c5", cycle_graph(5))]
        run = run_corpus(items, [4], mode="both")
        path = tmp_path / "report.csv"
        write_csv(path, run, generated_at="T")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema=1")
        assert lines[1] == ",".join(harness.CSV_FIELDS)
        assert lines[2].startswith("c5,5,4,2,2,0,0,0,")

    def test_asdict_reads_only_the_fields(self):
        report = BoundReport("x", 5, 4, 2, 2, 0, 0, 0, True, False, False, "ok")
        # an attribute set outside the fields, as a row timer would be
        object.__setattr__(report, "_row_timer", (0.0, 1.0))
        assert report._asdict() == dict(zip(harness.CSV_FIELDS, report))
        assert tuple(report._asdict()) == harness.CSV_FIELDS

    def test_summary_counts(self):
        reports = [
            BoundReport("x", 5, 4, 2, 2, 0, 0, 0, True, False, False, "ok"),
            BoundReport("y", 5, 3, 2, 2, 2, 1, None, False, False, True, "ok"),
        ]
        summary = summarize(reports)
        assert summary["rows"] == 2
        assert summary["bound_checked"] == 1  # the b=3 row carries no guarantee
        assert summary["tight"] == 1
        assert summary["heuristic_attainment"] == "1/1"

    def test_body_lines_are_compact_json(self):
        run = run_corpus([("c5", cycle_graph(5))], [4])
        for line in jsonl_body_lines(run):
            assert json.loads(line)
            assert ": " not in line
