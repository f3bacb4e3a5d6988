"""Command-line front end.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 usage or
parse error, 3 subset-construction blow-up abort.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .boolmat import DEFAULT_RANGE_CAP
from .bounds import DEFAULT_MONOID_CAP, full_report, render_report_text, report_to_json
from .determinize import (
    DEFAULT_MAX_STATES,
    BlowUpError,
    SubsetAutomaton,
    _minimal_table,
    distinguishing_word,
    state_complexity,
    subset_construct,
    universality_witness,
)
from .fsa import EPSILON, Fsa, _text, parse_fsa, remove_epsilon, serialize_fsa
from .generators import (
    RandomNfaSpec,
    gen_meyer_fischer,
    gen_mf_gadget,
    gen_modified_moore,
    gen_moore,
    gen_random,
    gen_union_gadget,
    gen_universal,
)

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

    family("universal", lambda args: gen_universal())
    for name, make in (("moore", gen_moore), ("mf", gen_meyer_fischer), ("moore-mod", gen_modified_moore)):
        family(name, lambda args, make=make: make(args.n)).add_argument("--n", type=int, required=True)
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
        ("gadget-union", lambda args: gen_union_gadget(_load(args, args.base))),
        ("gadget-mf", lambda args: gen_mf_gadget(_load(args, args.base), args.t)),
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
            p.add_argument("--monoid-cap", type=int, default=DEFAULT_MONOID_CAP)
            p.add_argument("--range-cap", type=int, default=DEFAULT_RANGE_CAP)
            p.add_argument("--format", choices=("text", "tree"), default="text")
    return parser


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args, path: str) -> Fsa:
    with open(path, encoding="utf-8") as fh:
        a = parse_fsa(fh.read())
    if a.has_epsilon:
        if args.no_eps_removal:
            raise ValueError(f"{path}: input has epsilon transitions")
        a = remove_epsilon(a)
    return a


def _gen_random(args) -> Fsa:
    given = vars(args)
    spec = RandomNfaSpec(**{f.name: given[f.name] for f in fields(RandomNfaSpec) if f.name in given})
    return gen_random(spec)


def _cmd_gen(args) -> int:
    _write(args, serialize_fsa(args.make(args)))
    return EXIT_OK


def _dfa_text(s: SubsetAutomaton, minimal: bool) -> tuple[int, str]:
    """State count and ``serialize_fsa`` text of ``subset_to_dfa(s)``, or of its ``minimize`` when
    ``minimal``, with no named ``Fsa``. Each state has a line per symbol, so first use is sorted order."""
    table = _minimal_table(s.transitions, s.final_flags, 0) if minimal else None
    names, rows, final_flags = table or (s.names, s.transitions, s.final_flags)
    alphabet = s.base.alphabet
    order = sorted(zip(alphabet, range(len(alphabet))))
    edges = ((i, sym, row[k]) for i, row in enumerate(rows) for sym, k in order)
    final = [i for i, f in enumerate(final_flags) if f]
    return len(rows), _text(alphabet, sorted(alphabet) != list(alphabet), names, edges, [0], final)


def _cmd_determinize(args) -> int:
    a = _load(args, args.input)
    n, text = _dfa_text(subset_construct(a, args.max_states), args.command == "minimize")
    print(n, file=sys.stderr)
    _write(args, text)
    return EXIT_OK


def _cmd_state_complexity(args) -> int:
    a = _load(args, args.input)
    _write(args, f"{state_complexity(a, args.max_states)}\n")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    a = _load(args, args.input)
    report = full_report(a, args.monoid_cap, args.range_cap, args.max_states)
    text = report_to_json(report) if args.format == "tree" else render_report_text(report)
    _write(args, text)
    return EXIT_OK


def _verdict(args, verdict: str, witness: tuple[str, ...] | None) -> int:
    if witness is None:
        _write(args, f"{verdict}\n")
        return EXIT_OK
    _write(args, f"not {verdict}: {' '.join(witness) or EPSILON}\n")
    return EXIT_NEGATIVE


def _cmd_universal(args) -> int:
    a = _load(args, args.input)
    return _verdict(args, "universal", universality_witness(a, args.max_states))


def _cmd_equiv(args) -> int:
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
    except (OSError, ValueError) as exc:  # unreadable FILE, unwritable --out, ParseError, RangeCapExceeded
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
