"""The Python example in README.md runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

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
