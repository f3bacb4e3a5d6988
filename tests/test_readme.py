"""The examples in README.md run and mean what their comments say."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

from detsize.fsa import parse_fsa

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    state_complexity, subset_complexity = map(int, out.getvalue().split())
    assert state_complexity == 64
    assert subset_complexity >= 64
    assert namespace["s"].n == 64


def test_text_format_example_parses():
    section = README.read_text(encoding="utf-8").split("## Automaton text format", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    a = parse_fsa(block.group(1))
    assert a.states == ("q0", "q1")
    assert a.alphabet == ("a", "b")
    assert a.has_epsilon
    assert (a.initial, a.final) == ({"q0"}, {"q1"})
