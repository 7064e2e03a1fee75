"""Command-line front door.

Subcommands:
  bound     evaluate the small-component ceiling for given alpha, delta, b
  generate  build the graphs of a manifest into edge-list files
  solve     run the exact oracle and/or the constructive solver on one graph
  verify    run a corpus and check every row against the ceiling

Exit codes: 0 ok, 2 parse error (or invalid option value, or a path that
cannot be opened), 3 capacity refusal in strict mode, 4 bound violation,
5 internal error (an invalid factor built by the oracle or the solver, or a
SOLVER_INCONSISTENT row).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .errors import CapacityError, FactorError, ParseError
from .factor import factor_to_text
from .generators import FamilySpec, parse_manifest
from .graph import Graph, independence_number, min_degree, read_graph_file, to_edge_list
from .harness import (
    run_corpus,
    theorem_bound,
    write_csv,
    write_jsonl,
    write_reproducers,
)
from .heuristic import solve as heuristic_solve
from .oracle import min_small_components_exact

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4
EXIT_INTERNAL = 5


def _parse_b_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"invalid b list {text!r}") from None
    if not values or any(b < 2 for b in values):
        raise ParseError("every b must be an integer >= 2")
    return values


def _load_items(source: str):
    """(instance_id, Graph) pairs from a manifest file or a directory of
    graph files."""
    path = Path(source)
    if path.is_dir():
        items = []
        for child in sorted(path.iterdir()):
            if child.is_file():
                items.append((child.name, read_graph_file(child)))
        return items
    specs = parse_manifest(path.read_text(encoding="utf-8"))
    return [(spec.instance_id(), spec.build()) for spec in specs]


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "-", text).strip("-")


def _cmd_bound(args) -> int:
    print(theorem_bound(args.alpha, args.delta, args.b))
    return EXIT_OK


def _cmd_generate(args) -> int:
    specs = parse_manifest(Path(args.manifest).read_text(encoding="utf-8"))
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for idx, spec in enumerate(specs):
        g = spec.build()
        name = f"{idx:03d}_{_slug(spec.instance_id())}.edges"
        (out / name).write_text(
            to_edge_list(g, comments=(f"instance: {spec.instance_id()}",)),
            encoding="utf-8",
        )
    print(f"wrote {len(specs)} graph(s) to {out}")
    return EXIT_OK


def _load_single_graph(args) -> tuple[str, Graph]:
    if args.family is not None:
        spec = FamilySpec.parse(args.family)
        return spec.instance_id(), spec.build()
    if args.graph is None:
        raise ParseError("give a graph file or --family")
    return args.graph, read_graph_file(args.graph)


def _cmd_solve(args) -> int:
    instance, g = _load_single_graph(args)
    print(f"instance: {instance}")
    print(f"n={g.n} m={len(g.edges)}")
    if g.n == 0:
        raise ParseError("cannot solve an empty graph")
    delta = min_degree(g)
    alpha = independence_number(g)
    print(f"delta={delta} alpha={alpha} b={args.b}")
    if delta >= 1:
        print(f"theorem_bound={theorem_bound(alpha, delta, args.b)}")
    else:
        print("theorem_bound=n/a (isolated vertices)")
    if args.mode in ("oracle", "both"):
        result = min_small_components_exact(g, args.b)
        print(f"oracle_optimum={result.optimum}")
        print("oracle witness:")
        print(factor_to_text(result.witness))
    if args.mode in ("heuristic", "both"):
        res = heuristic_solve(g, args.b)
        print(f"heuristic_small_count={res.small_count}"
              + (" (fallback: no seed cycle)" if res.fallback else ""))
        for i, step in enumerate(res.steps, 1):
            print(f"step {i}: {step.kind} {step.before} -> {step.after}")
        print("heuristic factor:")
        print(factor_to_text(res.factor))
    return EXIT_OK


def _cmd_verify(args) -> int:
    items = _load_items(args.source)
    b_values = _parse_b_list(args.b)
    run = run_corpus(items, b_values, mode=args.mode, jobs=args.jobs)
    if args.report:
        write_jsonl(args.report, run)
        print(f"report written to {args.report}")
    if args.csv:
        write_csv(args.csv, run)
        print(f"csv written to {args.csv}")
    for key, value in run.summary.items():
        print(f"{key}: {value}")
    if run.summary["violations"]:
        repro_dir = args.reproducer_dir
        if repro_dir is None:
            repro_dir = str(Path(args.report).parent) if args.report else "."
        written = write_reproducers(run, items, repro_dir)
        for path in written:
            print(f"reproducer written to {path}", file=sys.stderr)
        print("BOUND VIOLATION detected", file=sys.stderr)
        return EXIT_VIOLATION
    inconsistent = [r for r in run.reports if r.status == "SOLVER_INCONSISTENT"]
    for report in inconsistent:
        print(f"SOLVER INCONSISTENT: {report.instance} b={report.b}", file=sys.stderr)
    if inconsistent:
        return EXIT_INTERNAL
    if args.strict and run.summary["capacity_skipped"]:
        print("capacity refusals in strict mode", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudofactor",
        description="Pseudo [2,b]-factor solvers and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate the small-component ceiling")
    p_bound.add_argument("--alpha", type=int, required=True)
    p_bound.add_argument("--delta", type=int, required=True)
    p_bound.add_argument("-b", type=int, required=True)
    p_bound.set_defaults(func=_cmd_bound)

    p_gen = sub.add_parser("generate", help="build manifest graphs into edge-list files")
    p_gen.add_argument("manifest")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_solve = sub.add_parser("solve", help="solve a single instance")
    p_solve.add_argument("graph", nargs="?", help="graph file (edge list or DIMACS)")
    p_solve.add_argument("--family", help='family spec, e.g. "gnp n=8 p=0.5 seed=1"')
    p_solve.add_argument("-b", type=int, required=True)
    p_solve.add_argument("--mode", choices=("oracle", "heuristic", "both"), default="both")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run a corpus against the ceiling")
    p_verify.add_argument("source", help="manifest file or directory of graph files")
    p_verify.add_argument("-b", required=True, help="comma-separated b values, e.g. 4,5,6")
    p_verify.add_argument("--mode", choices=("oracle", "heuristic", "both"), default="oracle")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--report", help="JSONL output path")
    p_verify.add_argument("--csv", help="CSV output path")
    p_verify.add_argument("--strict", action="store_true",
                          help="fail (exit 3) when any row is capacity_skipped")
    p_verify.add_argument("--reproducer-dir",
                          help="where violation reproducers go (default: report dir)")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        # a path the user gave that cannot be opened; other OSErrors propagate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except FactorError as exc:
        # FactorError subclasses ValueError but is never the user's input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
