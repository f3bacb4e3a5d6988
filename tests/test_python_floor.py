"""Every module of ``src/detsize`` parses as the oldest Python that
``pyproject.toml`` admits (``requires-python``)."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "detsize").glob("*.py"))


def _floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_floor_is_declared():
    assert _floor() == (3, 10)


def test_check_rejects_newer_syntax():
    # except* came in 3.11, so the 3.10 grammar refuses it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=_floor())


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=_floor())
