"""Benchmark of the ``verify`` pipeline: load graphs, ``verify_instance`` per
(graph, b) row, write the JSONL report.

Run from the repository root::

    python3 perfbench/run.py --workload acceptance-both --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats passes of ``harness.run_corpus`` plus
``harness.write_jsonl`` (what ``verify`` runs after loading the graphs) at
jobs 1 for ``--seconds`` and reports the end-to-end metrics. Rows are timed
by one clock pair around each ``verify_instance`` call. Between rows a fixed
reference kernel is timed every 50 ms, and every time is scaled by the
host's speed around it (see ``speed.py``), so that the drift of a shared
host's cores does not read as a change of the program.
``--trace 1`` runs one untraced pass (and one at the workload's pool jobs),
then two passes at jobs 1 with spans around the public functions of every
module (see ``spans.py``), and reports the per-layer metrics; their counts
must repeat exactly.

Every row of every pass is checked (status ok, oracle <= ceiling for b != 3,
oracle <= heuristic <= alpha), every pass must write the same report body,
one row's factor is validated, the program must load the same graphs the
benchmark generated, and at the default seed the report-body digest and the
summary must equal ``expected.json``, recorded from the seed code. A failed
check makes the run incorrect and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(environment stamp, checks, every metric) goes to
``perfbench/work/<workload>/record-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from setup_probe import items_digest, load_items  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, expected_items, make_inputs, write_inputs  # noqa: E402

SETUP_REPEATS = 11
TAIL_PERCENTILES = (99, 95, 90)
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("row_p50_ms", "ms"),
    ("row_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("attained_frac", "ratio"),
)
#: printed and recorded with the end-to-end metrics, not given to BENCHMARK.json:
#: failed_frac is 0 on a correct run, and excess_small exists only where
#: both the oracle and the solver run
GUARDS = (("failed_frac", "ratio"), ("excess_small", "count"))

PER_LAYER = (
    ("generators.build.s", "s"),
    ("graph.read_graph_file.s", "s"),
    ("graph.independence_number.calls", "count"),
    ("graph.independence_number.s", "s"),
    ("graph.longest_path.calls", "count"),
    ("graph.longest_path.s", "s"),
    ("factor.spanning_in_range.calls", "count"),
    ("factor.spanning_in_range.s", "s"),
    ("factor.spanning_in_range.feasible_ratio", "ratio"),
    ("oracle.min_small_components_exact.calls", "count"),
    ("oracle.min_small_components_exact.s", "s"),
    ("oracle.min_small_components_exact.self_s", "s"),
    ("factor.PseudoFactor.build.calls", "count"),
    ("factor.PseudoFactor.build.s", "s"),
    ("factor.is_2b_subgraph.calls", "count"),
    ("factor.is_2b_subgraph.s", "s"),
    ("heuristic.solve.s", "s"),
    ("heuristic.initial_subgraph.s", "s"),
    ("heuristic.improve.s", "s"),
    ("heuristic.posa_cover.s", "s"),
    ("heuristic.enumerate_moves.calls", "count"),
    ("heuristic.enumerate_moves.s", "s"),
    ("heuristic.moves_enumerated", "count"),
    ("heuristic.apply_move.calls", "count"),
    ("heuristic.apply_move.s", "s"),
    ("heuristic.steps", "count"),
    ("heuristic.accept_ratio", "ratio"),
    ("harness.verify_instance.calls", "count"),
    ("harness.verify_instance.s", "s"),
    ("harness.verify_instance.self_s", "s"),
    ("harness.pool.parent_cpu_s", "s"),
    ("harness.pool.child_cpu_s", "s"),
    ("harness.write_jsonl.s", "s"),
    ("trace.overhead_s", "s"),
)
#: deterministic: must be identical in both traced passes
COUNTS = tuple(n for n, u in PER_LAYER if u in ("count", "ratio"))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, too few cores)."""


@dataclass
class Pass:
    seconds: float
    rows: int
    #: (start, end) perf_counter of each verify_instance call, when timed
    row_spans: list[tuple[float, float]]
    parent_cpu_s: float
    child_cpu_s: float
    body_digest: str
    summary: dict
    failed_rows: int
    faults: list[str]


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def row_faults(row: dict, mode: str) -> list[str]:
    """Invariants every report row must satisfy."""
    faults = []
    o, h, a, bound = row["oracle_optimum"], row["heuristic_value"], row["alpha"], row["theorem_bound"]
    if row["status"] != "ok":
        faults.append(f"status {row['status']}")
    if mode in ("oracle", "both") and o is None:
        faults.append("no oracle optimum")
    if mode in ("heuristic", "both") and h is None:
        faults.append("no heuristic value")
    if o is not None and bound is not None and row["b"] != 3 and o > bound:
        faults.append(f"oracle {o} above ceiling {bound}")
    if o is not None and h is not None and o > h:
        faults.append(f"heuristic {h} below oracle {o}")
    if a is not None and max(v for v in (o, h, -1) if v is not None) > a:
        faults.append(f"answer above alpha {a}")
    return [f"{row['instance']} b={row['b']}: {f}" for f in faults]


def run_pass(harness, items, workload, jobs: int, report: Path) -> Pass:
    """One timed pass of what verify runs after loading: run_corpus then
    write_jsonl. The report is read back and checked outside the clock."""
    ru_self, ru_kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    run = harness.run_corpus(items, workload.b_values, mode=workload.mode, jobs=jobs)
    harness.write_jsonl(report, run)
    seconds = time.perf_counter() - t0
    parent_cpu = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - _cpu(ru_self)
    child_cpu = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - _cpu(ru_kids)

    body = report.read_text(encoding="utf-8").splitlines()[1:]
    rows = [json.loads(line) for line in body[:-1]]
    per_row = [row_faults(row, workload.mode) for row in rows]
    faults = [f for fs in per_row for f in fs]
    want_rows = len(items) * len(workload.b_values)
    if len(rows) != want_rows:
        faults.append(f"report has {len(rows)} rows, expected {want_rows}")
    row_spans = [r.__dict__["_bench_row"] for r in run.reports if "_bench_row" in r.__dict__]
    return Pass(
        seconds=seconds,
        rows=len(rows),
        row_spans=row_spans,
        parent_cpu_s=parent_cpu,
        child_cpu_s=child_cpu,
        body_digest=hashlib.sha256(("\n".join(body) + "\n").encode()).hexdigest(),
        summary=json.loads(body[-1])["summary"],
        failed_rows=sum(1 for fs in per_row if fs) + abs(want_rows - len(rows)),
        faults=faults,
    )


def install_row_timer(harness, probe: SpeedProbe):
    """Time each verify_instance call, after a kernel sample when one is due.
    The (start, end) pair rides on the report object, outside its dataclass
    fields, so report bodies are unchanged."""
    original = harness.verify_instance

    def timed(*args, **kwargs):
        probe.maybe_sample()
        t0 = time.perf_counter()
        report = original(*args, **kwargs)
        object.__setattr__(report, "_bench_row", (t0, time.perf_counter()))
        return report

    harness.verify_instance = timed
    return lambda: setattr(harness, "verify_instance", original)


def tail(samples: list[float]) -> tuple[str, float, int]:
    """Highest of p99/p95/p90 with at least TAIL_MIN_BEYOND samples beyond
    it (nearest rank); the maximum when no percentile has that many."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return f"p{q}", ordered[rank - 1], n - rank
    return "max", ordered[-1], 0


def setup_times(kind: str, source: Path, want_digest: str) -> tuple[list[float], list[float], list[str]]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, raw and scaled by
    the median of the kernel samples each took around its set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled, faults = [], [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), kind, str(source)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["seconds"])
        scaled.append(probe["seconds"] * NOMINAL_S / statistics.median(probe["kernel_s"]))
        if probe["digest"] != want_digest:
            faults.append("fresh-interpreter set-up built different graphs")
    return raw, scaled, faults


def validate_one_row(workload, items, report: Path) -> list[str]:
    """Rebuild the factor behind the report's first row and check it with
    validate_pseudo_factor against the small count the row reports."""
    from pseudofactor.errors import FactorError
    from pseudofactor.factor import validate_pseudo_factor
    from pseudofactor.heuristic import solve
    from pseudofactor.oracle import min_small_components_exact

    row = json.loads(report.read_text(encoding="utf-8").splitlines()[1])
    instance, g = items[0]
    b = row["b"]
    checks = []
    if workload.mode in ("oracle", "both"):
        checks.append(("oracle witness", min_small_components_exact(g, b).witness, row["oracle_optimum"]))
    if workload.mode in ("heuristic", "both"):
        checks.append(("solve factor", solve(g, b).factor, row["heuristic_value"]))
    faults = []
    for label, factor, reported in checks:
        try:
            small = validate_pseudo_factor(g, factor.edges, b).small_count
        except FactorError as exc:
            faults.append(f"{instance} b={b}: {label} is invalid: {exc}")
            continue
        if small != reported:
            faults.append(f"{instance} b={b}: {label} has {small} small components, the row says {reported}")
    return faults


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, naming the code under test where no
    git revision is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pseudofactor").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def untraced(harness, workload, items, seconds: float, report: Path) -> tuple[dict, list[Pass], dict]:
    """Passes at jobs 1 until ``seconds`` would be overrun. Each row's time
    and each pass's remainder (the run_corpus loop and write_jsonl) are
    scaled to the nominal host speed; the metrics take medians over passes."""
    probe = SpeedProbe()
    restore = install_row_timer(harness, probe)
    passes: list[Pass] = []
    rows_n: list[list[float]] = []  # per pass, each row's scaled seconds
    rest_n: list[float] = []  # per pass, scaled seconds outside rows and samples
    kernel_med: list[float] = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            probe.clear()
            probe.sample()
            p = run_pass(harness, items, workload, 1, report)
            probe.sample()
            if len(p.row_spans) != p.rows:
                raise BenchError("row timings did not come back from every verify_instance call")
            passes.append(p)
            rows_n.append([probe.scale(a, b) for a, b in p.row_spans])
            rest = p.seconds - sum(b - a for a, b in p.row_spans) - sum(probe.dur[1:-1])
            kernel_med.append(statistics.median(probe.dur))
            rest_n.append(rest * NOMINAL_S / kernel_med[-1])
            typical = statistics.median(q.seconds for q in passes)
            if time.perf_counter() + typical > deadline:
                break
    finally:
        restore()
    # each row's median over passes, so one slow pass does not make a tail
    per_row = [statistics.median(times) for times in zip(*rows_n)]
    label, tail_s, beyond = tail(per_row)
    metrics = {
        "rows_per_s": len(per_row) / (sum(per_row) + statistics.median(rest_n)),
        "row_p50_ms": statistics.median(per_row) * 1000,
        "row_tail_ms": tail_s * 1000,
    }
    raw_row = [statistics.median(b - a for a, b in spans) for spans in zip(*(p.row_spans for p in passes))]
    info = {
        "passes": len(passes),
        "pass_s": [p.seconds for p in passes],
        "kernel_median_s": kernel_med,
        "rest_scaled_s": rest_n,
        "rows": len(per_row),
        "row_tail_percentile": label,
        "row_tail_rows_beyond": beyond,
        "unscaled": {
            "rows_per_s": statistics.median(p.rows / p.seconds for p in passes),
            "row_p50_ms": statistics.median(raw_row) * 1000,
            "row_tail_ms": tail(raw_row)[1] * 1000,
        },
    }
    return metrics, passes, info


def traced(harness, workload, items, kind: str, source: Path, report: Path, work: Path):
    """One untraced pass at jobs 1 (and one at the workload's pool jobs), a
    traced load, then two traced passes at jobs 1."""
    from spans import Tracer

    serial = run_pass(harness, items, workload, 1, report)
    pool = run_pass(harness, items, workload, workload.pool_jobs, report) if workload.pool_jobs else None
    tracer = Tracer()
    tracer.install()
    try:
        load_items(kind, source)
        setup = tracer.aggregate()
        runs = []
        for _ in range(2):
            tracer.reset()
            p = run_pass(harness, items, workload, 1, report)
            runs.append((p, tracer.aggregate()))
    finally:
        tracer.restore()
    tracer.write(work / "spans.jsonl")

    def layer(p: Pass, agg: dict) -> dict:
        m = {name: agg.get(name, 0.0) for name, _ in PER_LAYER}
        m["generators.build.s"] = setup["generators.build.s"]
        m["graph.read_graph_file.s"] = setup["graph.read_graph_file.s"]
        calls = agg["factor.spanning_in_range.calls"]
        m["factor.spanning_in_range.feasible_ratio"] = (
            agg["factor.spanning_in_range.feasible"] / calls if calls else 0.0
        )
        evals = agg["heuristic.apply_move.calls"]
        m["heuristic.accept_ratio"] = agg["heuristic.steps"] / evals if evals else 0.0
        m["harness.pool.parent_cpu_s"] = (pool or serial).parent_cpu_s
        m["harness.pool.child_cpu_s"] = (pool or serial).child_cpu_s
        m["trace.overhead_s"] = p.seconds - serial.seconds
        return m

    per_run = [layer(p, agg) for p, agg in runs]
    metrics = {
        name: per_run[1][name] if unit in ("count", "ratio") else statistics.mean(m[name] for m in per_run)
        for name, unit in PER_LAYER
    }
    faults = [
        f"count {name} differs between traced passes: {per_run[0][name]} vs {per_run[1][name]}"
        for name in COUNTS
        if per_run[0][name] != per_run[1][name]
    ]
    self_total = statistics.mean(
        sum(v for k, v in agg.items() if k.endswith(".self_s")) for _, agg in runs
    )
    info = {
        "untraced_pass_s": serial.seconds,
        "pool_jobs": workload.pool_jobs,
        "pool_pass_s": pool.seconds if pool else None,
        "traced_pass_s": [p.seconds for p, _ in runs],
        "self_s_total": self_total,
        "self_s_total_minus_overhead": self_total - metrics["trace.overhead_s"],
        "pool_overhead_cpu_s": pool.parent_cpu_s + pool.child_cpu_s - serial.parent_cpu_s if pool else None,
        "spans": len(tracer.spans),
    }
    return metrics, [serial] + ([pool] if pool else []) + [p for p, _ in runs], info, faults


def quality(report: Path) -> dict:
    """Deterministic answer quality, from the last report written."""
    body = report.read_text(encoding="utf-8").splitlines()[1:-1]
    rows = [json.loads(line) for line in body]
    bounded = [r for r in rows if r["theorem_bound"] is not None and r["b"] != 3]
    answer = [r["heuristic_value"] if r["heuristic_value"] is not None else r["oracle_optimum"] for r in bounded]
    attained = sum(1 for r, v in zip(bounded, answer) if v is not None and v <= r["theorem_bound"])
    both = [r for r in rows if r["oracle_optimum"] is not None and r["heuristic_value"] is not None]
    return {
        "attained_frac": attained / len(bounded) if bounded else 0.0,
        "excess_small": sum(r["heuristic_value"] - r["oracle_optimum"] for r in both) if both else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "pseudofactor" / "__init__.py").is_file():
        raise BenchError(f"no pseudofactor sources under {SRC}")
    cores = nproc()
    if args.trace and workload.pool_jobs > cores:
        raise BenchError(f"workload {workload.name} traces a pool of {workload.pool_jobs} jobs, only {cores} cores")
    sys.path.insert(0, str(SRC))
    from pseudofactor import harness

    load_start = os.getloadavg()
    work = HERE / "work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    report = work / "report.jsonl"

    inputs = make_inputs(workload, args.seed)
    source = write_inputs(workload, inputs, work)
    kind = "files" if workload.as_files else "manifest"
    want_digest = items_digest(expected_items(workload, inputs))
    items = load_items(kind, source)
    faults: list[str] = []
    if items_digest((i, g.n, g.edges) for i, g in items) != want_digest:
        faults.append("the program loaded different graphs than were generated")

    if args.trace:
        metrics, passes, info, trace_faults = traced(harness, workload, items, kind, source, report, work)
        faults += trace_faults
    else:
        metrics, passes, info = untraced(harness, workload, items, args.seconds, report)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    q = quality(report)
    faults += validate_one_row(workload, items, report)
    setup_raw, setup_s, setup_faults = setup_times(kind, source, want_digest)
    faults += setup_faults

    digests = {p.body_digest for p in passes}
    if len(digests) != 1:
        faults.append("report bodies differ between passes")
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))[workload.name]
    digest_checked = args.seed == DEFAULT_SEED
    bad_passes = set()
    if digest_checked:
        for i, p in enumerate(passes):
            if p.body_digest != expected["body_sha256"] or p.summary != expected["summary"]:
                bad_passes.add(i)
        if bad_passes:
            faults.append(f"report body or summary differs from expected.json in {len(bad_passes)} pass(es)")
    failed = sum(p.rows if i in bad_passes else p.failed_rows for i, p in enumerate(passes))
    attempted = sum(p.rows for p in passes)

    e2e = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_kib / 1024,
        "attained_frac": q["attained_frac"],
        "failed_frac": failed / attempted,
        "excess_small": q["excess_small"],
    }
    if not args.trace:
        e2e.update(metrics)
    correct = not faults and failed == 0
    record = {
        "workload": workload.name,
        "why": workload.why,
        "mode": workload.mode,
        "pool_jobs": workload.pool_jobs,
        "b_values": list(workload.b_values),
        "graphs": len(items),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "nproc": cores,
            "git_revision": git_revision(),
            "src_sha256": source_digest(),
            "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg()),
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "faults": (faults + [f for p in passes for f in p.faults])[:50],
        "checks": {
            "digest_checked": digest_checked,
            "body_sha256": passes[-1].body_digest,
            "summary": passes[-1].summary,
        },
        "end_to_end": e2e,
        "per_layer": metrics if args.trace else None,
        "setup_s_samples": setup_s,
        "setup_s_unscaled": setup_raw,
        "info": info,
    }
    (work / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}: seed {args.seed}, mode {workload.mode}, jobs 1, "
          f"{len(items)} graphs x b {','.join(map(str, workload.b_values))}, trace {args.trace}")
    shown = END_TO_END + GUARDS
    for name, unit in shown:
        if name in e2e:
            value = e2e[name]
            print(f"  {name:<16} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"  {name:<44} {metrics[name]:.6g} {unit}")
    for fault in record["faults"]:
        print(f"  FAULT {fault}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    source_metrics = metrics if args.trace else e2e
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": source_metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
