"""The package is stdlib-only: every import in src/pseudofactor is relative
or names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pseudofactor").glob("*.py"))


def test_sources_found():
    assert any(p.name == "graph.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [f"line {node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports outside the standard library: {outside}"
