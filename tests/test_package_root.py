"""The package root's names: exactly the exported ones, each the very object
its module defines, whether read as an attribute, through ``import *`` or
listed by ``dir``. The solver modules load on first use, so these checks read
every name through the root's own lookup, and ``dir`` is also read before
any of them has loaded."""

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import pseudofactor

EXPORTS = {
    "errors": ("CapacityError", "FactorError", "GraphParseError", "ManifestError",
               "NonMaximalPathError", "ParseError"),
    "graph": ("Graph", "independence_number", "load_dimacs", "load_edge_list", "load_graph_text",
              "longest_path", "min_degree", "read_graph_file", "to_edge_list"),
    "generators": ("FamilySpec", "complete_graph", "cycle_graph", "gnp", "join_sharpness",
                   "parse_manifest", "path_graph", "pendant_sharpness"),
    "factor": ("PseudoFactor", "factor_to_text", "is_2b_subgraph", "spanning_in_range",
               "validate_pseudo_factor"),
    "memo": ("SolveMemo",),
    "oracle": ("OracleResult", "min_small_components_exact"),
    "heuristic": ("ExchangeMove", "HeuristicResult", "SearchState", "enumerate_moves", "improve",
                  "initial_subgraph", "posa_cover", "solve"),
    "harness": ("BoundReport", "CorpusRun", "run_corpus", "theorem_bound", "verify_instance",
                "write_csv", "write_jsonl"),
}
HOME = {name: module for module, names in EXPORTS.items() for name in names}
SRC = Path(__file__).resolve().parents[1] / "src"


def test_exports_exactly_the_documented_names():
    assert len(HOME) == 46
    assert len(pseudofactor.__all__) == len(set(pseudofactor.__all__))
    assert set(pseudofactor.__all__) == set(HOME)


def test_each_name_is_its_module_object():
    strays = [name for name, module in HOME.items()
              if getattr(pseudofactor, name) is not getattr(importlib.import_module(f"pseudofactor.{module}"), name)]
    assert strays == []


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from pseudofactor import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(HOME)
    assert all(value is getattr(pseudofactor, name) for name, value in namespace.items())


def test_dir_lists_every_name_before_any_is_read():
    # in a fresh interpreter, where no solver module has loaded yet
    probe = ("import sys, pseudofactor; listed = set(dir(pseudofactor)); "
             "print(sorted(set(pseudofactor.__all__) - listed), 'pseudofactor.heuristic' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "False"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pseudofactor.no_such_name  # noqa: B018
    assert not hasattr(pseudofactor, "no_such_name")
    # the import system reads a missing attribute as a submodule to import
    from pseudofactor import harness

    assert isinstance(harness, ModuleType)
    assert harness is sys.modules["pseudofactor.harness"]
