"""Command-line front end. ``entry`` raises the cycle collector's threshold: the library makes no reference cycles.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 usage or
parse error, 3 subset-construction blow-up abort or out of memory.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Iterable, Iterator

from .fsa import DEFAULT_MAX_STATES, EPSILON, BlowUpError, Fsa, _text, parse_fsa, remove_epsilon, serialize_fsa

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3


def _out_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")


def _eps_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-eps-removal",
        action="store_true",
        help="fail on epsilon transitions instead of removing them",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detsize",
        allow_abbrev=False,
        description="Determinize NFAs and compute a priori bounds on the resulting DFA size.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", allow_abbrev=False, help="emit a generated automaton")
    families = gen.add_subparsers(dest="family", required=True)

    def family(name: str, make) -> argparse.ArgumentParser:
        p = families.add_parser(name, allow_abbrev=False)
        p.set_defaults(run=_cmd_gen, make=make)
        _out_option(p)
        return p

    # a family's make takes the generators module, which only gen loads
    family("universal", lambda g, args: g.gen_universal())
    for name, make in (("moore", "gen_moore"), ("mf", "gen_meyer_fischer"), ("moore-mod", "gen_modified_moore")):
        family(name, lambda g, args, make=make: getattr(g, make)(args.n)).add_argument("--n", type=int, required=True)
    # each dest is a RandomNfaSpec field; an option left out keeps the spec's default
    p = family("random", _gen_random)
    p.argument_default = argparse.SUPPRESS
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", dest="alphabet_size", metavar="SIGMA", type=int, help="alphabet size")
    for flag in ("--density", "--initial-density", "--final-density"):
        p.add_argument(flag, type=float)
    p.add_argument("--seed", type=int)
    for flag in ("trim", "total", "codeterministic"):
        p.add_argument(f"--{flag}", dest=f"force_{flag}", action="store_true")
    for name, make in (
        ("gadget-union", lambda g, args: g.gen_union_gadget(_load(args, args.base))),
        ("gadget-mf", lambda g, args: g.gen_mf_gadget(_load(args, args.base), args.t)),
    ):
        p = family(name, make)
        p.add_argument("--base", metavar="PATH", required=True, help="base automaton")
        _eps_option(p)
        if name == "gadget-mf":
            p.add_argument("--t", type=int, required=True, help="tail size")

    for name, run, help_text in (
        ("determinize", _cmd_determinize, "run the subset construction"),
        ("minimize", _cmd_determinize, "determinize and minimize"),
        ("state-complexity", _cmd_state_complexity, "print the minimal equivalent DFA size"),
        ("bounds", _cmd_bounds, "emit the full bound report"),
        ("universal", _cmd_universal, "decide universality"),
        ("equiv", _cmd_equiv, "decide language equivalence of two automata"),
    ):
        p = sub.add_parser(name, allow_abbrev=False, help=help_text)
        p.set_defaults(run=run)
        if name == "equiv":
            p.add_argument("input_a", metavar="FILE_A")
            p.add_argument("input_b", metavar="FILE_B")
        else:
            p.add_argument("input", metavar="FILE")
        _out_option(p)
        _eps_option(p)
        p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
        if name == "bounds":
            # the caps are full_report's keyword arguments: one left out takes its default there
            p.add_argument("--monoid-cap", type=int, default=argparse.SUPPRESS)
            p.add_argument("--range-cap", type=int, default=argparse.SUPPRESS)
            p.add_argument("--format", choices=("text", "tree"), default="text")
    return parser


def _write(args, chunks: Iterable[str]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a reader that closed stdout early shows here, not at exit
        except BrokenPipeError:  # the rest goes to devnull, as the Python docs advise; the exit status stands
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load(args, path: str) -> Fsa:
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
        a = parse_fsa(fh.read())
    if a.has_epsilon:
        if args.no_eps_removal:
            raise ValueError(f"{path}: input has epsilon transitions")
        a = remove_epsilon(a)
    return a


def _gen_random(g, args) -> Fsa:
    given = vars(args)
    spec = g.RandomNfaSpec(**{name: given[name] for name in g.RandomNfaSpec.__match_args__ if name in given})
    return g.gen_random(spec)


def _cmd_gen(args) -> int:
    from . import generators
    _write(args, [serialize_fsa(args.make(generators, args))])
    return EXIT_OK


def _dfa_text(s: SubsetAutomaton, minimal: bool) -> tuple[int, Iterator[str]]:
    """State count and ``serialize_fsa`` text, in chunks, of ``subset_to_dfa(s)``, or of its ``minimize`` when
    ``minimal``, with no named ``Fsa``. Each state has a line per symbol, so first use is sorted order."""
    from .determinize import _minimal_table
    table = _minimal_table(s.transitions, s.final_flags, 0) if minimal else None
    names, rows, final_flags = table or (s.names, s.transitions, s.final_flags)
    alphabet = s.base.alphabet
    order = sorted(zip(alphabet, range(len(alphabet))))
    edges = ((i, sym, row[k]) for i, row in enumerate(rows) for sym, k in order)
    final = [i for i, f in enumerate(final_flags) if f]
    return len(rows), _text(alphabet, sorted(alphabet) != list(alphabet), names, edges, [0], final)


def _cmd_determinize(args) -> int:
    from .determinize import subset_construct
    n, chunks = _dfa_text(subset_construct(_load(args, args.input), args.max_states), args.command == "minimize")
    print(n, file=sys.stderr)
    _write(args, chunks)
    return EXIT_OK


def _cmd_state_complexity(args) -> int:
    from .determinize import state_complexity
    a = _load(args, args.input)
    _write(args, [f"{state_complexity(a, args.max_states)}\n"])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import full_report, render_report_text, report_to_json
    a = _load(args, args.input)
    report = full_report(a, **{k: v for k, v in vars(args).items() if k in ("monoid_cap", "range_cap", "max_states")})
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before Python 3.10.7
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)  # exact values are written whole; full_report has held the estimate to the limit already
    try:
        text = report_to_json(report) if args.format == "tree" else render_report_text(report)
    finally:
        set_limit(limit)
    _write(args, [text])
    return EXIT_OK


def _verdict(args, verdict: str, witness: tuple[str, ...] | None) -> int:
    if witness is None:
        _write(args, [f"{verdict}\n"])
        return EXIT_OK
    _write(args, [f"not {verdict}: {' '.join(witness) or EPSILON}\n"])
    return EXIT_NEGATIVE


def _cmd_universal(args) -> int:
    from .determinize import universality_witness
    a = _load(args, args.input)
    return _verdict(args, "universal", universality_witness(a, args.max_states))


def _cmd_equiv(args) -> int:
    from .determinize import distinguishing_word
    a = _load(args, args.input_a)
    b = _load(args, args.input_b)
    return _verdict(args, "equivalent", distinguishing_word(a, b, args.max_states))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BlowUpError as exc:
        print(f"blow-up abort: {exc.states_found} states found", file=sys.stderr)
        return EXIT_BLOWUP
    except MemoryError:
        print("blow-up abort: out of memory", file=sys.stderr)
        return EXIT_BLOWUP
    except (OSError, ValueError) as exc:  # unreadable FILE, unwritable --out, ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    gc.set_threshold(100_000, 50, 100)
    sys.exit(main())
