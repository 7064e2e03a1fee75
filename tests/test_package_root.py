"""The package root's names: exactly those README's Library section lists,
each the very object its module defines, whether read as an attribute,
through ``import *`` or listed by ``dir``. The solver modules load on first
use, so these checks read every name through the root's own lookup, and
``dir`` is also read before any of them has loaded."""

import importlib
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path
from types import ModuleType

import pytest

import pseudofactor

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: the header of README's one table of the root's names
TABLE_HEADER = "| module | names exported from `pseudofactor` |"
#: internals that stay in their modules and are not read from the root
INTERNAL = {
    "graph": ("longest_path",),
    "factor": ("is_2b_subgraph", "spanning_in_range", "validate_pseudo_factor"),
    "heuristic": ("ExchangeMove", "SearchState", "enumerate_moves", "improve", "initial_subgraph",
                  "posa_cover"),
}


def readme_exports() -> list[tuple[str, str]]:
    """(name, module) for each name of README's table, in table order."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert lines.count(TABLE_HEADER) == 1
    rows = takewhile(lambda line: line.startswith("|"), lines[lines.index(TABLE_HEADER) + 2:])
    listed = []
    for row in rows:
        module, names = re.fullmatch(r"\| `(\w+)` \| (.*) \|", row).groups()
        listed += [(name, module) for name in re.findall(r"`(\w+)`", names)]
    return listed


HOME = dict(readme_exports())


def test_exports_exactly_the_documented_names():
    assert len(HOME) == len(readme_exports()) == 36  # no name listed twice
    assert len(pseudofactor.__all__) == len(set(pseudofactor.__all__))
    assert set(pseudofactor.__all__) == set(HOME)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in INTERNAL.items() for n in names])
def test_internals_are_read_from_their_modules(module, name):
    assert name not in HOME and name not in dir(pseudofactor)
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(pseudofactor, name)
    assert callable(getattr(importlib.import_module(f"pseudofactor.{module}"), name))


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
