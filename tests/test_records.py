"""The package's records are NamedTuples: immutable, picklable (the process
pool sends graphs and report rows between processes), and built without
``dataclasses``, so importing the package stays cheap."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pseudofactor
from pseudofactor import heuristic
from pseudofactor.generators import FamilySpec
from pseudofactor.harness import BoundReport, run_corpus
from pseudofactor.memo import SolveMemo
from pseudofactor.oracle import min_small_components_exact

SRC = Path(__file__).resolve().parents[1] / "src"


def _samples() -> dict:
    """One value of every record the package defines, keyed by class name."""
    spec = FamilySpec.parse("join h=1 p=3")
    g = spec.build()
    memo = SolveMemo(g)
    result = heuristic.solve(g, 4, memo=memo)
    state = heuristic.initial_subgraph(g, memo)
    outcome = heuristic.improve(state, g, 4, memo)
    run = run_corpus([("join", g)], [4], mode="both")
    return {
        "Graph": g,
        "FactorComponent": result.factor.components[0],
        "PseudoFactor": result.factor,
        "FamilySpec": spec,
        "OracleResult": min_small_components_exact(g, 4),
        "BoundReport": run.reports[0],
        "CorpusRun": run,
        "ExchangeMove": heuristic.enumerate_moves(state, g, 4, memo)[0],
        "StepRecord": outcome.steps[0],
        "SearchState": state,
        "ImproveOutcome": outcome,
        "HeuristicResult": result,
    }


SAMPLES = _samples()


def test_every_exported_record_has_a_sample():
    exported = {name for name, obj in vars(pseudofactor).items()
                if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert exported
    assert exported <= set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_is_an_immutable_picklable_namedtuple(name):
    record = SAMPLES[name]
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record
    assert type(copy) is type(record)


def test_custom_reprs_are_kept():
    assert repr(SAMPLES["Graph"]) == "Graph(n=7, m=9)"
    assert repr(SAMPLES["PseudoFactor"]) == "PseudoFactor(n=7, chosen=7, small=1, large=1, b=4)"


def test_report_keeps_an_outside_attribute_through_pickling():
    report = BoundReport("x", 5, 4, 2, 2, 0, 0, 0, True, False, False, "ok")
    # as a row timer attaches its span
    object.__setattr__(report, "_row_timer", (0.0, 1.0))
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert copy._row_timer == (0.0, 1.0)
    assert "_row_timer" not in copy._asdict()


def test_import_loads_neither_dataclasses_nor_inspect():
    # the modules that the import adds to those a bare interpreter of the
    # same Python starts with, so start-up imports never count against it
    probe = ("import sys; bare = set(sys.modules); import pseudofactor.cli; "
             "print(*sorted(set(sys.modules) - bare))")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "pseudofactor.harness" in added
    assert not {"dataclasses", "inspect"} & added
