"""Per-instance bound checking and corpus runs with deterministic reports.

A report row records the instance parameters, the guaranteed ceiling
max(0, alpha - floor(b*(delta-1)/2)) on small components, the exact optimum
and/or the constructive solver's value, and a status. An exact optimum above
the ceiling would falsify the guarantee. Its row is marked BOUND_VIOLATION,
the run goes on, and verify exits 4 after it writes its report. A row
breaking the solvers' own invariants (oracle <= solver <= alpha, the oracle
witness attains the optimum) is an internal fault (SOLVER_INCONSISTENT).
b = 3 rows are processed but carry no guarantee, and graphs with isolated
vertices are downgraded to informational rows.

Report bodies are byte-deterministic for a fixed manifest: rows appear in
manifest order regardless of worker count, and the timestamp lives only in a
header line that comparisons exclude.
"""

from __future__ import annotations

import json
import os
import time
from typing import NamedTuple

from .errors import CapacityError
from .graph import Graph, min_degree, to_edge_list
from .heuristic import HeuristicResult, solve
from .memo import SolveMemo
from .oracle import OracleResult, min_small_components_exact

REPORT_SCHEMA = 1

MODES = ("oracle", "heuristic", "both")


def theorem_bound(alpha: int, delta: int, b: int) -> int:
    """max(0, alpha - floor(b*(delta-1)/2)), in exact integer arithmetic."""
    if alpha < 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    if delta < 1:
        raise ValueError(f"delta must be at least 1, got {delta}")
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    return max(0, alpha - (b * (delta - 1)) // 2)


class _BoundRow(NamedTuple):
    instance: str
    n: int
    b: int
    delta: int
    alpha: int | None
    theorem_bound: int | None
    oracle_optimum: int | None
    heuristic_value: int | None
    kl_regime: bool
    isolated_vertices: bool
    b3_no_guarantee: bool
    status: str  # ok | BOUND_VIOLATION | SOLVER_INCONSISTENT | capacity_skipped


class BoundReport(_BoundRow):
    """One report row. Unlike the other records it keeps an instance
    ``__dict__``, so a caller can attach its own data to a row (a row timer,
    say) without that data ever reaching the row's fields: ``_asdict()``
    reads the fields only."""


CSV_FIELDS = BoundReport._fields


def check_instance(
    g: Graph, b: int, mode: str = "oracle", instance: str = "", memo: SolveMemo | None = None
) -> tuple[BoundReport, OracleResult | None, HeuristicResult | None, CapacityError | None]:
    """The stages ``mode`` asks for on one (graph, b), for ``verify``'s rows and
    ``solve``'s output: ``(row, exact, result, refusal)``, the report row, the
    ``OracleResult`` and ``HeuristicResult`` (None where the stage did not
    run), and the ``CapacityError`` that stopped a stage (None where none did).

    A refusal skips every later stage and makes the row "capacity_skipped",
    never a silently truncated answer; BOUND_VIOLATION, then
    SOLVER_INCONSISTENT, outrank it. ``memo``, when given, must be a
    ``SolveMemo`` of this very graph; it holds alpha(G), the oracle's scan and
    the solver's searches, and other rows of the same graph may share it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if g.n < 1:
        raise ValueError(f"cannot verify an empty graph (instance {instance!r})")
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    memo = SolveMemo.of(g, memo)

    delta = min_degree(g)
    alpha: int | None = None
    bound: int | None = None
    kl = False
    exact: OracleResult | None = None
    result: HeuristicResult | None = None
    refusal: CapacityError | None = None
    try:
        alpha = memo.alpha(g.full_mask)
        if delta >= 1:
            bound = theorem_bound(alpha, delta, b)
            kl = 2 * alpha <= b * (delta - 1)
        if mode in ("oracle", "both"):
            exact = min_small_components_exact(g, b, memo=memo)
        if mode in ("heuristic", "both"):
            result = solve(g, b, memo=memo)
    except CapacityError as exc:
        refusal = exc

    oracle_opt = None if exact is None else exact.optimum
    heur = None if result is None else result.small_count
    if oracle_opt is not None and bound is not None and b != 3 and oracle_opt > bound:
        status = "BOUND_VIOLATION"
    elif ((exact is not None and exact.witness.small_count != oracle_opt)
          or (heur is not None and not (oracle_opt or 0) <= heur <= alpha)):
        status = "SOLVER_INCONSISTENT"
    elif refusal is not None:
        status = "capacity_skipped"
    else:
        status = "ok"

    row = BoundReport(
        instance=instance,
        n=g.n,
        b=b,
        delta=delta,
        alpha=alpha,
        theorem_bound=bound,
        oracle_optimum=oracle_opt,
        heuristic_value=heur,
        kl_regime=kl,
        isolated_vertices=delta == 0,
        b3_no_guarantee=b == 3,
        status=status,
    )
    return row, exact, result, refusal


def verify_instance(g: Graph, b: int, mode: str = "oracle", instance: str = "",
                    memo: SolveMemo | None = None) -> BoundReport:
    """The report row of ``check_instance`` for one (graph, b)."""
    return check_instance(g, b, mode=mode, instance=instance, memo=memo)[0]


# ---------------------------------------------------------------------------
# corpus runs


class CorpusRun(NamedTuple):
    reports: tuple[BoundReport, ...]
    summary: dict


def _verify_graph(task) -> list[BoundReport]:
    """The rows of one graph, in ``b_values`` order, sharing one memo."""
    instance, g, b_values, mode = task
    memo = SolveMemo(g)
    return [verify_instance(g, b, mode=mode, instance=instance, memo=memo) for b in b_values]


def summarize(reports) -> dict:
    reports = list(reports)
    guaranteed = [
        r
        for r in reports
        if r.theorem_bound is not None and r.oracle_optimum is not None and r.b != 3
    ]
    heur_rows = [
        r
        for r in reports
        if r.theorem_bound is not None and r.heuristic_value is not None and r.b != 3
    ]
    kl_rows = [r for r in reports if r.kl_regime and r.oracle_optimum is not None and r.b >= 4]
    attained = sum(1 for r in heur_rows if r.heuristic_value <= r.theorem_bound)
    return {
        "rows": len(reports),
        "violations": sum(1 for r in reports if r.status == "BOUND_VIOLATION"),
        "capacity_skipped": sum(1 for r in reports if r.status == "capacity_skipped"),
        "bound_checked": len(guaranteed),
        "tight": sum(1 for r in guaranteed if r.oracle_optimum == r.theorem_bound),
        "kl_rows": len(kl_rows),
        "kl_nonfactor": sum(1 for r in kl_rows if r.oracle_optimum != 0),
        "heuristic_rows": len(heur_rows),
        "heuristic_attained": attained,
        "heuristic_attainment": f"{attained}/{len(heur_rows)}",
    }


def run_corpus(items, b_values, mode: str = "oracle", jobs: int = 1) -> CorpusRun:
    """One report per (instance, b), in manifest order whatever the worker
    count; plus the aggregate summary.

    ``items`` is a sequence of (instance_id, Graph). A task is one graph with
    all its b values. Workers share nothing mutable, so parallel and serial
    runs produce identical reports. The pool never has more workers than
    graphs or CPUs, and a serial run never imports it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    b_values = tuple(b_values)
    tasks = [(instance, g, b_values, mode) for instance, g in items]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        per_graph = [_verify_graph(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_graph = list(pool.map(_verify_graph, tasks, chunksize=1))
    reports = [r for rows in per_graph for r in rows]
    return CorpusRun(tuple(reports), summarize(reports))


def write_reproducers(run: CorpusRun, items, out_dir) -> list[str]:
    """Edge-list reproducer files (graph + b) for every violating row."""
    from pathlib import Path

    graphs = dict(items)
    out = Path(out_dir)
    written = []
    for idx, report in enumerate(run.reports):
        if report.status != "BOUND_VIOLATION":
            continue
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"violation_{idx:04d}.edges"
        text = to_edge_list(
            graphs[report.instance],
            comments=(
                f"instance: {report.instance}",
                f"b: {report.b}",
                f"oracle_optimum: {report.oracle_optimum}",
                f"theorem_bound: {report.theorem_bound}",
            ),
        )
        path.write_text(text, encoding="utf-8")
        written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# report files


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def jsonl_body_lines(run: CorpusRun) -> list[str]:
    """Deterministic report body: one JSON object per row plus the summary."""
    lines = [
        json.dumps(r._asdict(), sort_keys=True, separators=(",", ":"))
        for r in run.reports
    ]
    lines.append(json.dumps({"summary": run.summary}, sort_keys=True, separators=(",", ":")))
    return lines


def write_jsonl(path, run: CorpusRun, generated_at: str | None = None) -> None:
    """Header line (schema + timestamp, excluded from comparisons) followed by
    the deterministic body."""
    header = json.dumps(
        {"schema": REPORT_SCHEMA, "generated_at": generated_at or _timestamp()},
        sort_keys=True,
        separators=(",", ":"),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for line in jsonl_body_lines(run):
            fh.write(line + "\n")


def write_csv(path, run: CorpusRun, generated_at: str | None = None) -> None:
    """Same fields as the JSONL rows; schema and timestamp in a '#' header."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={REPORT_SCHEMA} generated_at={generated_at or _timestamp()}\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for report in run.reports:
            row = report._asdict()
            writer.writerow({k: ("" if row[k] is None else row[k]) for k in CSV_FIELDS})
