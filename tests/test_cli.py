import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_harness import spy_full_graph

import pseudofactor
import pseudofactor.cli as cli
import pseudofactor.graph as graph_module
import pseudofactor.harness as harness
import pseudofactor.memo as memo_module
from pseudofactor.cli import main
from pseudofactor.errors import FactorError
from pseudofactor.generators import FamilySpec, gnp
from pseudofactor.graph import load_edge_list, to_edge_list
from pseudofactor.heuristic import solve
from pseudofactor.oracle import OracleResult, min_small_components_exact


def test_bound_command(capsys):
    assert main(["bound", "--alpha", "5", "--delta", "3", "-b", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_bound_domain_error(capsys):
    assert main(["bound", "--alpha", "0", "--delta", "3", "-b", "4"]) == 2


def test_solve_family(capsys):
    assert main(["solve", "--family", "join h=1 p=3", "-b", "4", "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "theorem_bound=1" in out
    assert "oracle_optimum=1" in out
    assert "heuristic_small_count=1" in out
    assert "component 0:" in out


def test_solve_graph_file(tmp_path, capsys):
    path = tmp_path / "c5.edges"
    path.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    assert main(["solve", str(path), "-b", "4", "--mode", "oracle"]) == 0
    assert "oracle_optimum=0" in capsys.readouterr().out


def test_solve_output_is_pinned(tmp_path, capsys):
    # a triangle plus a K_{1,3}: the oracle witness and the solver factor
    # each print a large, an edge and a vertex component line
    path = tmp_path / "tk13.edges"
    path.write_text("n 7\n0 1\n1 2\n0 2\n3 4\n3 5\n3 6\n")
    assert main(["solve", str(path), "-b", "4"]) == 0
    assert capsys.readouterr().out == (
        f"instance: {path}\n"
        "n=7 m=6\n"
        "delta=1 alpha=4 b=4\n"
        "theorem_bound=4\n"
        "oracle_optimum=3\n"
        "oracle witness:\n"
        "component 0: class=large vertices=0,1,2 edges=0-1,0-2,1-2\n"
        "component 1: class=edge vertices=3,4 edges=3-4\n"
        "component 2: class=vertex vertices=5 edges=\n"
        "component 3: class=vertex vertices=6 edges=\n"
        "heuristic_small_count=3\n"
        "heuristic factor:\n"
        "component 0: class=large vertices=0,1,2 edges=0-1,0-2,1-2\n"
        "component 1: class=edge vertices=3,5 edges=3-5\n"
        "component 2: class=vertex vertices=4 edges=\n"
        "component 3: class=vertex vertices=6 edges=\n"
    )


def test_solve_missing_input(capsys):
    assert main(["solve", "-b", "4"]) == 2


def test_solve_file_and_family_together(tmp_path, capsys):
    # neither input may be silently dropped for the other
    path = tmp_path / "tri.edges"
    path.write_text("n 3\n0 1\n1 2\n2 0\n")
    assert main(["solve", str(path), "--family", "cycle n=5", "-b", "4"]) == 2
    captured = capsys.readouterr()
    assert "not both" in captured.err
    assert "instance:" not in captured.out


def test_solve_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n")
    assert main(["solve", str(path), "-b", "4"]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 1: edge before the 'n <count>' header\n"


def test_solve_b_below_two_fails_first(capsys, monkeypatch):
    # refused before the graph is read or its alpha searched
    alpha_calls = spy_full_graph(monkeypatch, "independence_number")
    assert main(["solve", "--family", "path n=3", "-b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: b must be an integer >= 2\n"
    assert alpha_calls == []


def test_directory_paths_are_input_errors(tmp_path, capsys):
    # a directory where a file is expected is the user's input, not a crash
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    for argv in (["solve", str(tmp_path), "-b", "4"],
                 ["generate", str(tmp_path), "-o", str(tmp_path / "out")],
                 ["generate", str(manifest), "-o", str(manifest)],
                 ["verify", str(manifest), "-b", "4", "--report", str(tmp_path)]):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_verify_checks_output_paths_first(tmp_path, capsys, monkeypatch):
    # an unwritable report, CSV or reproducer path fails before any row is
    # computed
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    calls = []
    monkeypatch.setattr(cli, "run_corpus", lambda *args, **kwargs: calls.append(args))
    for flag, path in (("--report", tmp_path), ("--csv", tmp_path),
                       ("--report", tmp_path / "missing" / "r.jsonl"),
                       ("--csv", tmp_path / "missing" / "r.csv"),
                       ("--reproducer-dir", manifest),
                       ("--reproducer-dir", manifest / "repro" / "deeper")):
        assert main(["verify", str(manifest), "-b", "4", flag, str(path)]) == 2
        assert "error:" in capsys.readouterr().err
    assert calls == []


def test_verify_fails_before_building_graphs(tmp_path, capsys, monkeypatch):
    # a bad b list or an unwritable report is refused before any graph of
    # the manifest is built
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    builds = []
    build = FamilySpec.build
    monkeypatch.setattr(FamilySpec, "build", lambda spec: builds.append(spec) or build(spec))
    for options in (["-b", "1"], ["-b", "4", "--report", str(tmp_path)]):
        assert main(["verify", str(manifest), *options]) == 2, options
        assert capsys.readouterr().err.startswith("error: ")
    assert builds == []
    assert main(["verify", str(manifest), "-b", "4"]) == 0
    assert len(builds) == 1


def test_verify_refuses_outputs_over_its_inputs(tmp_path, capsys):
    # a report or CSV over the manifest, over a graph file of a directory
    # source, or over the other output would destroy it: nothing is written
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    link = tmp_path / "link.txt"
    link.symlink_to(manifest)
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    graph = gdir / "c5.edges"
    graph.write_text("n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    out = tmp_path / "out"
    cases = (
        (manifest, ["--report", str(manifest)]),
        (manifest, ["--csv", str(link)]),
        (link, ["--report", str(tmp_path / "." / "manifest.txt")]),
        (gdir, ["--report", str(graph)]),
        (gdir, ["--csv", str(gdir / ".." / "graphs" / "c5.edges")]),
        (manifest, ["--report", str(out), "--csv", str(out)]),
    )

    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    for source, outputs in cases:
        assert main(["verify", str(source), "-b", "4", *outputs]) == 2, outputs
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(": output path is an input or the other output of this run\n")
        assert files() == before
    assert main(["verify", str(manifest), "-b", "4"]) == 0


def test_verify_lists_its_sources_once(tmp_path, capsys, monkeypatch):
    # the graphs read and the paths no output may overwrite come from one
    # listing of the source directory
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "c5.edges").write_text("n 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    listings = []
    source_files = cli._source_files
    monkeypatch.setattr(cli, "_source_files", lambda source: listings.append(source) or source_files(source))
    assert main(["verify", str(gdir), "-b", "4", "--report", str(gdir / "c5.edges")]) == 2
    assert main(["verify", str(gdir), "-b", "4", "--report", str(tmp_path / "r.jsonl")]) == 0
    assert listings == [str(gdir)] * 2


@pytest.mark.parametrize("command", ["verify", "generate"])
@pytest.mark.parametrize("text, fault", [
    (b"cycle n=5\nfoo n=3\n",
     "line 2: unknown family 'foo' (expected one of join, pendant, gnp, cycle, complete, path)"),
    (b"cycle n=5\xff\n", "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
    # the file is read a line at a time, so a bad line is met before a later bad byte
    (b"foo n=3\ncycle n=5\xff\n",
     "line 1: unknown family 'foo' (expected one of join, pendant, gnp, cycle, complete, path)"),
], ids=["bad-line", "not-utf8", "bad-line-then-not-utf8"])
def test_manifest_errors_name_the_manifest(tmp_path, capsys, command, text, fault):
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(text)
    if command == "verify":
        argv = ["verify", str(manifest), "-b", "4"]
    else:
        argv = ["generate", str(manifest), "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {manifest}: {fault}\n"


def test_solve_capacity(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text(to_edge_list(gnp(18, 0.4, 1)))
    assert main(["solve", str(path), "-b", "4", "--mode", "oracle"]) == 3


def test_solve_bad_dimacs_edge_count(tmp_path, capsys):
    for m in ("banana", "-7"):
        path = tmp_path / "bad.dimacs"
        path.write_text(f"p edge 3 {m}\ne 1 2\n")
        assert main(["solve", str(path), "-b", "4"]) == 2
        assert "line 1: edge count" in capsys.readouterr().err


def test_solve_declared_vertex_count(tmp_path, capsys):
    # a one-line header must not allocate a billion vertices
    for name, text in (("huge.edges", "n 1000000000\n"), ("huge.dimacs", "p edge 1000000000 0\n")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["solve", str(path), "-b", "4"]) == 2
        assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(65536, 2), (1024, 3)])
def test_star_file_within_a_memory_cap(tmp_path, n, code):
    # a star file declaring n vertices, run in a child whose address space is
    # capped at 256 MiB: the 65536-vertex star (775 KB) is refused at its
    # header (exit 2), and the largest star a header admits still reaches
    # alpha's capacity refusal (exit 3)
    resource = pytest.importorskip("resource")
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    star = gdir / "star.edges"
    star.write_text(f"n {n}\n" + "".join(f"{i} {n - 1}\n" for i in range(n - 1)))
    cap = 256 << 20
    env = {**os.environ, "PYTHONPATH": str(Path(pseudofactor.__file__).parents[1])}
    for argv in (["solve", str(star), "-b", "4"], ["verify", str(gdir), "-b", "4", "--strict"]):
        proc = subprocess.run(
            [sys.executable, "-m", "pseudofactor", *argv], capture_output=True, text=True, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == code, proc.stderr
        header = f"line 1: vertex count {n} exceeds the limit of 1024"
        assert (header in proc.stderr) == (code == 2), proc.stderr


@pytest.mark.parametrize("header, line, size_mb", [
    pytest.param("n 2", "0 1", 8, id="edges"),
    pytest.param("p edge 2 1", "e 1 2", 8, id="dimacs"),
    pytest.param("n 2", "0 1", 32, id="edges-32mb"),
    pytest.param("p edge 2 1", "e 1 2", 32, id="dimacs-32mb"),
])
def test_duplicate_edge_file_within_a_memory_cap(tmp_path, header, line, size_mb):
    # a file repeating one edge, solved in a child whose address space is
    # capped at 256 MiB: the file is read a line at a time and duplicates
    # collapse as each line is read, so the memory held does not grow with
    # the file's size
    resource = pytest.importorskip("resource")
    path = tmp_path / "dup.txt"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for _ in range(size_mb):
            fh.write(f"{line}\n" * ((1 << 20) // (len(line) + 1)))
    cap = 256 << 20
    env = {**os.environ, "PYTHONPATH": str(Path(pseudofactor.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "pseudofactor", "solve", str(path), "-b", "4"], capture_output=True,
        text=True, env=env, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert proc.returncode == 0, proc.stderr
    assert "heuristic_small_count=1" in proc.stdout


def test_solve_non_finite_family_size(capsys):
    # rejected at parse time; float("inf") used to escape as OverflowError
    assert main(["solve", "--family", "path n=inf", "-b", "4"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_solve_fractional_family_value(capsys):
    # int(6.9) used to build n = 6 while the instance id still said 6.9
    assert main(["solve", "--family", "gnp n=6.9 p=0.5 seed=1", "-b", "4"]) == 2
    assert "n=6.9 is not an integer" in capsys.readouterr().err


def test_solve_fallback_searches_alpha_once(capsys, monkeypatch):
    # the printed alpha and the solver's alpha(G - F), F empty, are one search
    alpha_calls = spy_full_graph(monkeypatch, "independence_number")
    argv = ["solve", "--family", "pendant h=3", "-b", "4", "--mode", "heuristic"]
    assert main(argv) == 0
    assert "fallback" in capsys.readouterr().out
    assert len(alpha_calls) == 1


def test_solve_internal_error(capsys, monkeypatch):
    def broken(g, b, memo=None):
        raise FactorError("component (0, 1, 2): vertex 0 has degree 1, outside [2, 4]")

    monkeypatch.setattr(harness, "solve", broken)
    assert main(["solve", "--family", "cycle n=5", "-b", "4", "--mode", "heuristic"]) == 5
    assert "internal error:" in capsys.readouterr().err


def test_solve_non_maximal_path_is_internal(capsys, monkeypatch):
    # the seed path misses vertex 4, a neighbour of its endpoint 0 on C5
    monkeypatch.setattr(memo_module, "longest_path", lambda g, mask=None: (0, 1, 2))
    assert main(["solve", "--family", "cycle n=5", "-b", "4", "--mode", "heuristic"]) == 5
    err = capsys.readouterr().err
    assert "internal error:" in err and "not maximal" in err


def run_on_spec(command, tmp_path, spec, b, mode):
    """Exit code of ``solve`` or ``verify`` on one family spec at one b, and
    the status of verify's report row (None for solve)."""
    if command == "solve":
        return main(["solve", "--family", spec, "-b", str(b), "--mode", mode]), None
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(spec + "\n")
    report = tmp_path / "report.jsonl"
    code = main(["verify", str(manifest), "-b", str(b), "--mode", mode,
                 "--report", str(report), "--reproducer-dir", str(tmp_path / "repro")])
    return code, json.loads(report.read_text().splitlines()[1])["status"]


COMMANDS = ["solve", "verify"]


@pytest.mark.parametrize("command", COMMANDS)
def test_bound_violation_exit_code(tmp_path, capsys, monkeypatch, command):
    # the pendant family's optimum is 3, so a ceiling of 0 is violated, except
    # at b = 3, which carries no guarantee
    monkeypatch.setattr(harness, "theorem_bound", lambda alpha, delta, b: 0)
    code, status = run_on_spec(command, tmp_path, "pendant h=3", 4, "oracle")
    assert code == 4
    captured = capsys.readouterr()
    if command == "solve":
        assert "oracle_optimum=3" in captured.out
        assert "BOUND VIOLATION: pendant h=3 b=4" in captured.err
    else:
        assert status == "BOUND_VIOLATION"
        assert "BOUND VIOLATION detected" in captured.err
        assert len(list((tmp_path / "repro").iterdir())) == 1
    assert run_on_spec(command, tmp_path, "pendant h=3", 3, "oracle")[0] == 0
    assert "BOUND VIOLATION" not in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("value", [-1, 3])
def test_impossible_heuristic_value_exit_code(tmp_path, capsys, monkeypatch, command, value):
    # C5 at b=4: oracle optimum 0, alpha 2; -1 beats the oracle, 3 exceeds alpha
    def impossible(g, b, **_):
        real = solve(g, b)
        return SimpleNamespace(small_count=value, fallback=real.fallback,
                               steps=real.steps, factor=real.factor)

    monkeypatch.setattr(harness, "solve", impossible)
    code, status = run_on_spec(command, tmp_path, "cycle n=5", 4, "both")
    assert code == 5
    assert "SOLVER INCONSISTENT: cycle n=5 b=4" in capsys.readouterr().err
    assert status == (None if command == "solve" else "SOLVER_INCONSISTENT")


def _shifted_optimum(g, b, memo=None):
    result = min_small_components_exact(g, b)
    return OracleResult(result.optimum + 1, result.witness)


@pytest.mark.parametrize("command", COMMANDS)
def test_witness_off_the_optimum_exit_code(tmp_path, capsys, monkeypatch, command):
    # b = 3 carries no guarantee, so only the witness check can catch it
    monkeypatch.setattr(harness, "min_small_components_exact", _shifted_optimum)
    code, status = run_on_spec(command, tmp_path, "path n=4", 3, "oracle")
    assert code == 5
    assert "SOLVER INCONSISTENT: path n=4 b=3" in capsys.readouterr().err
    assert status == (None if command == "solve" else "SOLVER_INCONSISTENT")


def _internal_error(g, b, memo=None):
    raise FactorError("component (0, 1, 2): vertex 0 has degree 1, outside [2, 4]")


# a zero step budget makes the solver refuse its first branching path search
_REFUSE_SOLVER = (graph_module, "LONGEST_PATH_STEPS", 0)
_ZERO_BOUND = (harness, "theorem_bound", lambda alpha, delta, b: 0)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("code, spec, b, mode, patches, faults", [
    (0, "cycle n=5", "4", "both", (), ("", "")),
    (2, "cycle n=5", "1", "both", (),
     ("error: b must be an integer >= 2\n", "error: every b must be an integer >= 2\n")),
    (3, "gnp n=16 p=0.3 seed=2", "4", "oracle", (),
     ("error: exact oracle limited to 15 vertices, got 16\n", "capacity refusals in strict mode\n")),
    (4, "pendant h=3", "4", "oracle", (_ZERO_BOUND,),
     ("BOUND VIOLATION: pendant h=3 b=4\n", "BOUND VIOLATION detected\n")),
    (5, "cycle n=5", "4", "heuristic", ((harness, "solve", _internal_error),),
     ("internal error: component (0, 1, 2)",) * 2),
    (4, "pendant h=3", "4", "both", (_REFUSE_SOLVER, _ZERO_BOUND),
     ("error: longest-path search limited to 0 branching steps, on 6 vertices\n"
      "BOUND VIOLATION: pendant h=3 b=4\n", "BOUND VIOLATION: pendant h=3 b=4\n")),
    (5, "cycle n=5", "3", "both",
     (_REFUSE_SOLVER, (harness, "min_small_components_exact", _shifted_optimum)),
     ("error: longest-path search limited to 0 branching steps, on 5 vertices\n"
      "SOLVER INCONSISTENT: cycle n=5 b=3\n", "SOLVER INCONSISTENT: cycle n=5 b=3\n")),
], ids=["ok", "parse", "capacity", "violation", "internal",
        "violation-over-refusal", "inconsistent-over-refusal"])
def test_every_exit_code(tmp_path, capsys, monkeypatch, command, code, spec, b, mode, patches,
                         faults):
    # every documented exit code of both commands; verify runs serially, so
    # its rows call the patched harness, and under --strict, so a refused
    # row exits 3 as it does in solve. A violation or an inconsistent row
    # outranks a refusal on the same row, in both commands
    for patch in patches:
        monkeypatch.setattr(*patch)
    if command == "solve":
        argv = ["solve", "--family", spec, "-b", b, "--mode", mode]
        fault = faults[0]
    else:
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(spec + "\n")
        argv = ["verify", str(manifest), "-b", b, "--mode", mode, "--jobs", "1", "--strict",
                "--reproducer-dir", str(tmp_path / "repro")]
        fault = faults[1]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert fault in err
    assert (err == "") == (code == 0)


@pytest.mark.parametrize("spec, mode, stages, refusal", [
    ("gnp n=41 p=0.3 seed=1", "both", "n=41 m=235\n",
     "independence search limited to 40 vertices, got 41"),
    ("gnp n=16 p=0.3 seed=2", "oracle", "n=16 m=34\ndelta=2 alpha=6 b=4\ntheorem_bound=4\n",
     "exact oracle limited to 15 vertices, got 16"),
    ("gnp n=16 p=0.3 seed=2", "both", "n=16 m=34\ndelta=2 alpha=6 b=4\ntheorem_bound=4\n",
     "exact oracle limited to 15 vertices, got 16"),
    ("gnp n=19 p=0.2 seed=3", "heuristic", "n=19 m=30\ndelta=2 alpha=9 b=4\ntheorem_bound=7\n",
     "longest-path search limited to 18 vertices, got 19"),
], ids=["alpha", "oracle", "oracle-both", "solver"])
def test_solve_refusal_output(capsys, spec, mode, stages, refusal):
    # alpha, the oracle and the solver each refuse past their limit: solve
    # prints the stages before the refusal, then the refusal, and exits 3
    assert main(["solve", "--family", spec, "-b", "4", "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"instance: {spec}\n{stages}"
    assert captured.err == f"error: {refusal}\n"


def test_solve_refuses_a_path_search_past_its_step_budget(capsys, monkeypatch):
    # the solver's first path search on K_3 joined to 6 disjoint edges takes
    # 91,299 branching steps; under a budget of 4,096 solve prints the
    # stages before the search, then the refusal, and exits 3
    monkeypatch.setattr(graph_module, "LONGEST_PATH_STEPS", 1 << 12)
    assert main(["solve", "--family", "join h=3 p=6", "-b", "4", "--mode", "heuristic"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "instance: join h=3 p=6\nn=15 m=45\ndelta=4 alpha=6 b=4\ntheorem_bound=0\n"
    assert captured.err == "error: longest-path search limited to 4096 branching steps, on 15 vertices\n"


def test_generate_round_trip(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\njoin h=1 p=3\n")
    out_dir = tmp_path / "graphs"
    assert main(["generate", str(manifest), "-o", str(out_dir)]) == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 2
    g = load_edge_list(files[0].read_text())
    assert g.n == 5 and len(g.edges) == 5


def test_generate_keeps_manifest_order_past_999_specs(tmp_path, capsys):
    # index 1000 must not sort between 099 and 100
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"gnp n=2 p=1 seed={i}\n" for i in range(1001)))
    out = tmp_path / "graphs"
    assert main(["generate", str(manifest), "-o", str(out)]) == 0
    expected = [cli._slug(name) for name, _ in cli._load_items(str(manifest), [manifest])]
    names = [name for name, _ in cli._load_items(str(out), cli._source_files(str(out)))]
    assert [name.split("_", 1)[1].removesuffix(".edges") for name in names] == expected
    assert names[0].startswith("0000_") and names[-1].startswith("1000_")


def test_generate_refuses_a_directory_holding_graphs(tmp_path, capsys):
    # a second run into the same directory would leave its graphs mixed
    # with the first run's, and verify would read both
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text("cycle n=5\ncycle n=6\ncycle n=7\n")
    second.write_text("path n=4\ncomplete n=4\n")
    out = tmp_path / "g"
    assert main(["generate", str(first), "-o", str(out)]) == 0
    before = {f.name: f.read_text() for f in out.iterdir()}
    assert len(before) == 3
    capsys.readouterr()
    assert main(["generate", str(second), "-o", str(out)]) == 2
    assert "already holds graph files" in capsys.readouterr().err
    assert {f.name: f.read_text() for f in out.iterdir()} == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["generate", str(second), "-o", str(empty)]) == 0
    assert len(list(empty.iterdir())) == 2


def test_verify_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\njoin h=1 p=3\ngnp n=7 p=0.5 seed=3\n")
    report = tmp_path / "report.jsonl"
    code = main(["verify", str(manifest), "-b", "4,5", "--mode", "both",
                 "--report", str(report)])
    assert code == 0
    lines = report.read_text().splitlines()
    assert len(lines) == 1 + 6 + 1  # header, six rows, summary
    assert "violations: 0" in capsys.readouterr().out


def test_verify_directory_input(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\npath n=4\n")
    gdir = tmp_path / "graphs"
    assert main(["generate", str(manifest), "-o", str(gdir)]) == 0
    assert main(["verify", str(gdir), "-b", "4"]) == 0


def test_verify_directory_skips_its_own_reports(tmp_path, capsys, monkeypatch):
    # a report, a CSV and a violation reproducer (written to the report's
    # directory by default) kept in the corpus directory are not graphs, so
    # the next run over that directory still reads only the graph file
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "pendant.edges").write_text("n 6\n0 1\n1 2\n0 2\n0 3\n1 4\n2 5\n")
    outputs = ["--report", str(gdir / "report.jsonl"), "--csv", str(gdir / "report.csv")]
    with monkeypatch.context() as patched:
        # the pendant triangle's optimum is 3, so a ceiling of 0 is violated
        patched.setattr(harness, "theorem_bound", lambda alpha, delta, b: 0)
        assert main(["verify", str(gdir), "-b", "4", *outputs]) == 4
    assert (gdir / "violation_0000.edges").is_file()
    capsys.readouterr()
    assert main(["verify", str(gdir), "-b", "4"]) == 0
    captured = capsys.readouterr()
    assert "rows: 1" in captured.out
    assert "error:" not in captured.err


def test_verify_empty_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# nothing here\n")
    assert main(["verify", str(manifest), "-b", "4"]) == 0
    assert "rows: 0" in capsys.readouterr().out


def test_verify_bad_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("nonsense spec\n")
    assert main(["verify", str(manifest), "-b", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_bad_b_list(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    assert main(["verify", str(manifest), "-b", "4,x"]) == 2


def test_verify_repeated_b(tmp_path, capsys):
    # a repeated b would write each of its rows twice
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    assert main(["verify", str(manifest), "-b", "4,5,4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated b value in '4,5,4'\n"


@pytest.mark.parametrize("text, fault", [
    (b"n 3\n0 1 2\n", "line 2: expected 'u v', got '0 1 2'"),
    (b"n 3\n0 1\xff\n", "'utf-8' codec can't decode byte 0xff in position 7: invalid start byte"),
])
def test_verify_directory_names_the_bad_file(tmp_path, capsys, text, fault):
    (tmp_path / "a.edges").write_text("n 3\n0 1\n1 2\n")
    bad = tmp_path / "b.edges"
    bad.write_bytes(text)
    assert main(["verify", str(tmp_path), "-b", "4"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {fault}\n"


def test_verify_directory_names_the_empty_graph(tmp_path, capsys):
    (tmp_path / "a.edges").write_text("n 3\n0 1\n1 2\n")
    (tmp_path / "b.edges").write_text("n 0\n")
    assert main(["verify", str(tmp_path), "-b", "4"]) == 2
    assert capsys.readouterr().err == "error: cannot verify an empty graph (instance 'b.edges')\n"


def test_verify_bad_jobs(tmp_path, capsys):
    # checked before the manifest is read, so a bad line after it is not reached
    for name, text in (("good.txt", "cycle n=5\n"), ("bad.txt", "cycle n=5\nfoo n=3\n")):
        manifest = tmp_path / name
        manifest.write_text(text)
        for jobs in ("0", "-3"):
            assert main(["verify", str(manifest), "-b", "4", "--jobs", jobs]) == 2
            assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"


def test_verify_strict_capacity(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("gnp n=18 p=0.4 seed=1\n")
    assert main(["verify", str(manifest), "-b", "4", "--strict"]) == 3
    assert main(["verify", str(manifest), "-b", "4"]) == 0  # informational otherwise
