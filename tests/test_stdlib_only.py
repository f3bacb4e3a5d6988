"""The package is standard-library-only: every import in ``src/detsize`` is
relative or names a standard-library module. Every module-level import of a
module (other than the package's ``__init__`` and ``__main__``) is used."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "detsize").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "boolmat.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    outside = [name for name in _absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("__init__.py", "__main__.py")], ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path) == []
