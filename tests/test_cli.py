import json

import pseudofactor.cli as cli
import pseudofactor.harness as harness
from pseudofactor.cli import main
from pseudofactor.errors import FactorError
from pseudofactor.generators import gnp
from pseudofactor.graph import load_edge_list, to_edge_list
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


def test_solve_missing_input(capsys):
    assert main(["solve", "-b", "4"]) == 2


def test_solve_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n")
    assert main(["solve", str(path), "-b", "4"]) == 2


def test_directory_paths_are_input_errors(tmp_path, capsys):
    # a directory where a file is expected is the user's input, not a crash
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    for argv in (["solve", str(tmp_path), "-b", "4"],
                 ["generate", str(tmp_path), "-o", str(tmp_path / "out")],
                 ["verify", str(manifest), "-b", "4", "--report", str(tmp_path)]):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_solve_capacity(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text(to_edge_list(gnp(18, 0.4, 1)))
    assert main(["solve", str(path), "-b", "4", "--mode", "oracle"]) == 3


def test_solve_declared_vertex_count(tmp_path, capsys):
    # a one-line header must not allocate a billion vertices
    for name, text in (("huge.edges", "n 1000000000\n"), ("huge.dimacs", "p edge 1000000000 0\n")):
        path = tmp_path / name
        path.write_text(text)
        assert main(["solve", str(path), "-b", "4"]) == 2
        assert "exceeds the limit" in capsys.readouterr().err


def test_solve_non_finite_family_size(capsys):
    # rejected at parse time; float("inf") used to escape as OverflowError
    assert main(["solve", "--family", "path n=inf", "-b", "4"]) == 2
    assert "not finite" in capsys.readouterr().err


def test_solve_internal_error(capsys, monkeypatch):
    def broken(g, b):
        raise FactorError("component (0, 1, 2): vertex 0 has degree 1, outside [2, 4]")

    monkeypatch.setattr(cli, "heuristic_solve", broken)
    assert main(["solve", "--family", "cycle n=5", "-b", "4", "--mode", "heuristic"]) == 5
    assert "internal error:" in capsys.readouterr().err


def test_generate_round_trip(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\njoin h=1 p=3\n")
    out_dir = tmp_path / "graphs"
    assert main(["generate", str(manifest), "-o", str(out_dir)]) == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 2
    g = load_edge_list(files[0].read_text())
    assert g.n == 5 and len(g.edges) == 5


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


def test_verify_bad_jobs(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    for jobs in ("0", "-3"):
        assert main(["verify", str(manifest), "-b", "4", "--jobs", jobs]) == 2
        assert "jobs must be at least 1" in capsys.readouterr().err


def test_verify_solver_inconsistent_exit_code(tmp_path, capsys, monkeypatch):
    class Impossible:
        small_count = 99  # above alpha(C5) = 2

    monkeypatch.setattr(harness, "solve", lambda g, b: Impossible())
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    report = tmp_path / "report.jsonl"
    code = main(["verify", str(manifest), "-b", "4", "--mode", "both",
                 "--report", str(report)])
    assert code == 5
    assert "SOLVER INCONSISTENT: cycle n=5 b=4" in capsys.readouterr().err
    row = json.loads(report.read_text().splitlines()[1])
    assert row["status"] == "SOLVER_INCONSISTENT"


def test_verify_strict_capacity(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("gnp n=18 p=0.4 seed=1\n")
    assert main(["verify", str(manifest), "-b", "4", "--strict"]) == 3
    assert main(["verify", str(manifest), "-b", "4"]) == 0  # informational otherwise


def test_verify_violation_exit_code(tmp_path, capsys, monkeypatch):
    real = min_small_components_exact

    def inflated(g, b, limit=15):
        result = real(g, b, limit=limit)
        return OracleResult(result.optimum + 99, result.witness, result.blocks)

    monkeypatch.setattr(harness, "min_small_components_exact", inflated)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("cycle n=5\n")
    report = tmp_path / "report.jsonl"
    code = main(["verify", str(manifest), "-b", "4", "--jobs", "1",
                 "--report", str(report),
                 "--reproducer-dir", str(tmp_path / "repro")])
    assert code == 4
    repro_files = list((tmp_path / "repro").iterdir())
    assert len(repro_files) == 1
    row = json.loads(report.read_text().splitlines()[1])
    assert row["status"] == "BOUND_VIOLATION"
