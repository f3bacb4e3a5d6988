"""Fuzz test of the command-line front end, run in-process.

Random argv over every command and ``gen`` family, each drawing only the
options it declares, on small random automaton texts (at most 8 states and
3 symbols, with epsilon edges and malformed lines mixed in), must end in
exit code 0, 1, 2 or 3; exit 1 is reserved for a negative ``universal`` or
``equiv`` verdict. The only exception allowed out of ``main`` is argparse's
``SystemExit(2)`` for a malformed command line, which an option declared
only by another command must always give. A ``determinize`` or ``minimize``
that succeeds must write ``serialize_fsa`` of the library's DFA for the
automaton it read.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detsize.cli import main
from detsize.determinize import minimize, subset_construct, subset_to_dfa
from detsize.fsa import parse_fsa, remove_epsilon, serialize_fsa

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
# option -> its values (None for a flag); the union of every command's options
VALUES = {
    "--out": st.just("{OUT}"),
    "--no-eps-removal": None,
    "--max-states": st.integers(-1, 300),
    "--monoid-cap": st.integers(-1, 300),
    "--range-cap": st.integers(-1, 10),
    "--format": st.sampled_from(("text", "tree") * 4 + ("xml",)),
    "--n": st.integers(-1, 8),
    "--t": st.integers(-1, 6),
    "--base": st.just("{A}"),
    "--sigma": st.integers(-1, 4),
    "--density": DENSITIES,
    "--initial-density": DENSITIES,
    "--final-density": DENSITIES,
    "--seed": st.integers(0, 50),
    "--trim": None,
    "--total": None,
    "--codeterministic": None,
}
ANALYSIS = ("--out", "--no-eps-removal", "--max-states")
RANDOM = ("--out", "--n", "--sigma", "--density", "--initial-density", "--final-density", "--seed",
          "--trim", "--total", "--codeterministic")
# the options each command or gen family declares; argparse rejects any other
OPTIONS = {
    "gen universal": ("--out",),
    "gen moore": ("--out", "--n"),
    "gen mf": ("--out", "--n"),
    "gen moore-mod": ("--out", "--n"),
    "gen random": RANDOM,
    "gen gadget-union": ("--out", "--base", "--no-eps-removal"),
    "gen gadget-mf": ("--out", "--base", "--t", "--no-eps-removal"),
    "determinize": ANALYSIS,
    "minimize": ANALYSIS,
    "state-complexity": ANALYSIS,
    "bounds": ANALYSIS + ("--monoid-cap", "--range-cap", "--format"),
    "universal": ANALYSIS,
    "equiv": ANALYSIS,
}
REQUIRED = ("--n", "--t", "--base")


def _option(draw, option: str) -> list[str]:
    values = VALUES[option]
    return [option] if values is None else [option, str(draw(values))]


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, str], bool]:
    """(argv with file placeholders ``{A}``/``{B}``/``{OUT}``, texts to write,
    whether a stray argument is an option the command does not declare)."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    texts = {"A": draw(automaton_texts())}
    if command.startswith("gen "):
        argv = command.split()
    elif command == "equiv":
        texts["B"] = draw(automaton_texts())
        argv = ["equiv", "{A}", draw(st.sampled_from(("{A}", "{B}", "{MISSING}")))]
    else:
        argv = [command, draw(st.sampled_from(("{A}", "{A}", "{A}", "{MISSING}")))]
    for option in OPTIONS[command]:
        if option in REQUIRED:
            present = draw(st.sampled_from((True,) * 7 + (False,)))
        elif option == "--no-eps-removal":
            present = draw(st.sampled_from((False, False, False, True)))
        else:
            present = draw(st.booleans())
        if present:
            argv += _option(draw, option)
    if command == "bounds" and "--monoid-cap" not in argv:
        argv += ["--monoid-cap", "300"]  # keeps closures of 8-state inputs small
    stray = draw(st.sampled_from((None,) * 20 + ("--bogus", "--max-states", "x", "foreign")))
    if stray == "foreign":
        # an option some other command declares, with its value
        stray = _option(draw, draw(st.sampled_from([o for o in VALUES if o not in OPTIONS[command]])))
    elif stray is not None:
        stray = [stray]
    if stray is not None:
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = stray
    return argv, texts, stray is not None and stray[0] in VALUES and stray[0] not in OPTIONS[command]


@given(invocations())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_codes(invocation):
    argv, texts, foreign = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"MISSING": str(Path(tmp) / "missing.fsa"), "OUT": str(Path(tmp) / "out.txt")}
        for key, text in texts.items():
            paths[key] = str(Path(tmp) / f"{key}.fsa")
            Path(paths[key]).write_text(text, encoding="utf-8")
        args = [arg.format(**paths) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(args)
            except SystemExit as exc:
                assert exc.code == 2, f"{args}: argparse exit {exc.code}"
                return
        if code == 0 and args[0] in ("determinize", "minimize"):
            written = Path(paths["OUT"]).read_text(encoding="utf-8") if "--out" in argv else out.getvalue()
            dfa = subset_to_dfa(subset_construct(remove_epsilon(parse_fsa(texts["A"]))))
            want = minimize(dfa) if args[0] == "minimize" else dfa
            assert written == serialize_fsa(want), f"{args}: output differs from the library's"
    assert not foreign, f"{args}: an option the command does not declare was accepted"
    assert code in (0, 1, 2, 3), f"{args}: exit {code}"
    if code == 1:
        assert args[0] in ("universal", "equiv"), f"{args}: exit 1"
    if code == 2:
        assert err.getvalue().startswith("error: "), f"{args}: {err.getvalue()!r}"
