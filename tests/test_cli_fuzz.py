"""Fuzz test of the command-line front end, run in-process.

Random argv over every command and cap flag, on small random automaton texts
(at most 8 states and 3 symbols, with epsilon edges and malformed lines mixed
in), must end in exit code 0, 1, 2 or 3; exit 1 is reserved for a negative
``universal`` or ``equiv`` verdict. The only exception allowed out of
``main`` is argparse's ``SystemExit(2)`` for a malformed command line.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detsize.cli import main

SYMBOLS = ("a", "b", "c")


@st.composite
def automaton_texts(draw) -> str:
    n = draw(st.integers(0, 8))
    states = [f"q{i}" for i in range(n)]
    symbols = SYMBOLS[: draw(st.integers(1, 3))] * 4 + ("<eps>",)
    lines = []
    if states:
        edge = st.tuples(st.sampled_from(states), st.sampled_from(symbols), st.sampled_from(states))
        lines += [" ".join(e) for e in draw(st.lists(edge, max_size=3 * n))]
        lines += [f"@initial {q}" for q in draw(st.lists(st.sampled_from(states), max_size=2))]
        lines += [f"@final {q}" for q in draw(st.lists(st.sampled_from(states), max_size=3))]
    # hypothesis favours the first entry of ``sampled_from``, so most texts get no odd line
    odd = draw(st.sampled_from((None,) * 8 + ("q0 a", "@alphabet a a", "@initial", "@bogus q0", "# c", "", "@alphabet b a c")))
    if odd is not None:
        lines.append(odd)
    return "\n".join(draw(st.permutations(lines))) + "\n"


DENSITIES = st.sampled_from((-0.5, 0.0, 0.3, 0.7, 1.0, 1.5))
CAP_FLAGS = {
    "--max-states": st.integers(-1, 300),
    "--monoid-cap": st.integers(-1, 300),
    "--range-cap": st.integers(-1, 10),
}


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str]]:
    """(argv with file placeholders ``{A}``/``{B}``/``{OUT}``, texts to write)."""
    command = draw(
        st.sampled_from(("gen", "determinize", "minimize", "state-complexity", "bounds", "universal", "equiv"))
    )
    texts = {"A": draw(automaton_texts())}
    if command == "gen":
        family = draw(st.sampled_from(("universal", "moore", "mf", "moore-mod", "random", "gadget-union", "gadget-mf")))
        argv = ["gen", family]
        for flag, values in (
            ("--n", st.integers(-1, 8)),
            ("--t", st.integers(-1, 6)),
            ("--sigma", st.integers(-1, 4)),
            ("--density", DENSITIES),
            ("--initial-density", DENSITIES),
            ("--final-density", DENSITIES),
            ("--seed", st.integers(0, 50)),
        ):
            if draw(st.booleans()):
                argv += [flag, str(draw(values))]
        argv += [flag for flag in ("--trim", "--total", "--codeterministic") if draw(st.booleans())]
        if draw(st.booleans()):
            argv += ["--base", "{A}"]
    elif command == "equiv":
        texts["B"] = draw(automaton_texts())
        argv = ["equiv", "{A}", draw(st.sampled_from(("{A}", "{B}", "{MISSING}")))]
    else:
        argv = [command, draw(st.sampled_from(("{A}", "{A}", "{A}", "{MISSING}")))]
    for flag, values in CAP_FLAGS.items():
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    if command == "bounds" and "--monoid-cap" not in argv:
        argv += ["--monoid-cap", "300"]  # keeps closures of 8-state inputs small
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("text", "tree") * 4 + ("xml",)))]
    if draw(st.sampled_from((False, False, False, True))):
        argv.append("--no-eps-removal")
    if draw(st.booleans()):
        argv += ["--out", "{OUT}"]
    stray = draw(st.sampled_from((None,) * 20 + ("--bogus", "--max-states", "x")))
    if stray is not None:
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv, texts


@given(invocations())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_codes(invocation):
    argv, texts = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"MISSING": str(Path(tmp) / "missing.fsa"), "OUT": str(Path(tmp) / "out.txt")}
        for key, text in texts.items():
            paths[key] = str(Path(tmp) / f"{key}.fsa")
            Path(paths[key]).write_text(text, encoding="utf-8")
        args = [arg.format(**paths) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(args)
            except SystemExit as exc:
                assert exc.code == 2, f"{args}: argparse exit {exc.code}"
                return
    assert code in (0, 1, 2, 3), f"{args}: exit {code}"
    if code == 1:
        assert args[0] in ("universal", "equiv"), f"{args}: exit 1"
    if code == 2:
        assert err.getvalue().startswith("error: "), f"{args}: {err.getvalue()!r}"
