"""Command-line front door.

Subcommands:
  bound     evaluate the small-component ceiling for given alpha, delta, b
  generate  build the graphs of a manifest into edge-list files
  solve     run the exact oracle and/or the constructive solver on one graph
  verify    run a corpus and check every row against the ceiling

Exit codes, one rule for solve and verify: 0 ok; 2 parse error (or invalid
option value, or a path that cannot be opened or that verify would
overwrite); 4 a BOUND_VIOLATION row, else 5 a SOLVER_INCONSISTENT row, else
3 a capacity_skipped row (always in solve, in verify with --strict), the
statuses decided by harness.check_instance; 5 also an internal error (an
invalid factor built by the oracle or the solver, or a non-maximal path met
by the solver's piece rule).
"""

from __future__ import annotations

import argparse
import errno
import os
import re
import sys
from pathlib import Path

from .errors import FactorError, NonMaximalPathError, ParseError
from .factor import factor_to_text
from .generators import FamilySpec, read_manifest
from .graph import Graph, read_graph_file, to_edge_list
from .harness import (
    MODES,
    check_instance,
    run_corpus,
    theorem_bound,
    write_csv,
    write_jsonl,
    write_reproducers,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4
EXIT_INTERNAL = 5

#: each failing row status and its exit code, in precedence order
_STATUS_EXIT = {"BOUND_VIOLATION": EXIT_VIOLATION, "SOLVER_INCONSISTENT": EXIT_INTERNAL,
                "capacity_skipped": EXIT_CAPACITY}


def _exit_code(rows, strict: bool) -> int:
    """The first ``_STATUS_EXIT`` code that ``rows`` hold; capacity_skipped only if ``strict``."""
    statuses = {row.status for row in rows if strict or row.status != "capacity_skipped"}
    return next((code for status, code in _STATUS_EXIT.items() if status in statuses), EXIT_OK)


def _print_faults(rows) -> None:
    """One stderr line per BOUND_VIOLATION or SOLVER_INCONSISTENT row."""
    for row in rows:
        if row.status in ("BOUND_VIOLATION", "SOLVER_INCONSISTENT"):
            print(f"{row.status.replace('_', ' ')}: {row.instance} b={row.b}", file=sys.stderr)


def _parse_b_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"invalid b list {text!r}") from None
    if not values or any(b < 2 for b in values):
        raise ParseError("every b must be an integer >= 2")
    if len(set(values)) != len(values):
        raise ParseError(f"repeated b value in {text!r}")
    return values


def _source_files(source: str) -> list[Path]:
    """The files verify reads from ``source``: the manifest itself, or every
    regular file of a directory but the reports and reproducers verify
    writes."""
    path = Path(source)
    if not path.is_dir():
        return [path]
    return [child for child in sorted(path.iterdir())
            if child.is_file() and child.suffix not in (".jsonl", ".csv")
            and not child.match("violation_*.edges")]


def _load_items(source: str, files: list[Path]):
    """The (instance_id, Graph) pairs of a manifest file or of the graph
    files ``files`` that ``_source_files`` lists in a directory."""
    if Path(source).is_dir():
        return [(child.name, read_graph_file(child)) for child in files]
    return [(spec.instance_id(), spec.build()) for spec in read_manifest(source)]


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "-", text).strip("-")


def _cmd_bound(args) -> int:
    print(theorem_bound(args.alpha, args.delta, args.b))
    return EXIT_OK


def _cmd_generate(args) -> int:
    specs = read_manifest(args.manifest)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    # graphs of an earlier run would interleave with this run's in verify
    old = next(out.glob("*.edges"), None)
    if old is not None:
        raise FileExistsError(errno.EEXIST, "output directory already holds graph files", str(old))
    # one width for every name, so the files sort in manifest order
    width = max(3, len(str(len(specs) - 1)))
    for idx, spec in enumerate(specs):
        g = spec.build()
        name = f"{idx:0{width}d}_{_slug(spec.instance_id())}.edges"
        (out / name).write_text(
            to_edge_list(g, comments=(f"instance: {spec.instance_id()}",)),
            encoding="utf-8",
        )
    print(f"wrote {len(specs)} graph(s) to {out}")
    return EXIT_OK


def _load_single_graph(args) -> tuple[str, Graph]:
    if args.family is not None and args.graph is not None:
        raise ParseError("give a graph file or --family, not both")
    if args.family is not None:
        spec = FamilySpec.parse(args.family)
        return spec.instance_id(), spec.build()
    if args.graph is None:
        raise ParseError("give a graph file or --family")
    return args.graph, read_graph_file(args.graph)


def _cmd_solve(args) -> int:
    if args.b < 2:
        raise ParseError("b must be an integer >= 2")
    instance, g = _load_single_graph(args)
    print(f"instance: {instance}")
    print(f"n={g.n} m={len(g.edges)}")
    if g.n == 0:
        raise ParseError("cannot solve an empty graph")
    row, exact, res, refusal = check_instance(g, args.b, mode=args.mode, instance=instance)
    if row.alpha is not None:
        print(f"delta={row.delta} alpha={row.alpha} b={args.b}")
        bound = "n/a (isolated vertices)" if row.isolated_vertices else row.theorem_bound
        print(f"theorem_bound={bound}")
    if exact is not None:
        print(f"oracle_optimum={exact.optimum}")
        print("oracle witness:")
        print(factor_to_text(exact.witness))
    if res is not None:
        print(f"heuristic_small_count={res.small_count}"
              + (" (fallback: no seed cycle)" if res.fallback else ""))
        for i, step in enumerate(res.steps, 1):
            print(f"step {i}: {step.kind} {step.before} -> {step.after}")
        print("heuristic factor:")
        print(factor_to_text(res.factor))
    if refusal is not None:
        print(f"error: {refusal}", file=sys.stderr)
    _print_faults([row])
    return _exit_code([row], strict=True)


def _cmd_verify(args) -> int:
    b_values = _parse_b_list(args.b)
    if args.jobs < 1:
        raise ParseError(f"jobs must be at least 1, got {args.jobs}")
    sources = _source_files(args.source)
    # fail on an unwritable output path before any graph is built, with the
    # error that opening it for writing would raise; an output over an input
    # or over the other output would destroy what it overwrites
    taken = {path.resolve() for path in sources}
    for out in filter(None, (args.report, args.csv)):
        if Path(out).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        if not Path(out).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
        target = Path(out).resolve()
        if target in taken:
            raise ParseError(f"{out}: output path is an input or the other output of this run")
        taken.add(target)
    # a reproducer directory may be created later, but not over or under a file
    if args.reproducer_dir is not None:
        repro = Path(args.reproducer_dir)
        if not next(p for p in (repro, *repro.parents) if p.exists()).is_dir():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), args.reproducer_dir)
    items = _load_items(args.source, sources)
    run = run_corpus(items, b_values, mode=args.mode, jobs=args.jobs)
    if args.report:
        write_jsonl(args.report, run)
        print(f"report written to {args.report}")
    if args.csv:
        write_csv(args.csv, run)
        print(f"csv written to {args.csv}")
    for key, value in run.summary.items():
        print(f"{key}: {value}")
    _print_faults(run.reports)
    code = _exit_code(run.reports, args.strict)
    if code == EXIT_VIOLATION:
        repro_dir = args.reproducer_dir
        if repro_dir is None:
            repro_dir = str(Path(args.report).parent) if args.report else "."
        for path in write_reproducers(run, items, repro_dir):
            print(f"reproducer written to {path}", file=sys.stderr)
        print("BOUND VIOLATION detected", file=sys.stderr)
    elif code == EXIT_CAPACITY:
        print("capacity refusals in strict mode", file=sys.stderr)
    return code


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
    p_solve.add_argument("--mode", choices=MODES, default="both")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="run a corpus against the ceiling")
    p_verify.add_argument("source", help="manifest file or directory of graph files")
    p_verify.add_argument("-b", required=True, help="comma-separated b values, e.g. 4,5,6")
    p_verify.add_argument("--mode", choices=MODES, default="oracle")
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
    except (ParseError, FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        # bad input, or a path the user gave that cannot be opened; other OSErrors propagate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (FactorError, NonMaximalPathError) as exc:
        # both subclass ValueError but are never the user's input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
