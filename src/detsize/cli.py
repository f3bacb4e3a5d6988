"""Command-line front end.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 usage or
parse error, 3 subset-construction blow-up abort.
"""

from __future__ import annotations

import argparse
import sys

from .boolmat import DEFAULT_RANGE_CAP
from .bounds import DEFAULT_MONOID_CAP, full_report, render_report_text, report_to_json
from .determinize import (
    DEFAULT_MAX_STATES,
    BlowUpError,
    distinguishing_word,
    state_complexity,
    minimize,
    subset_construct,
    subset_to_dfa,
    universality_witness,
)
from .fsa import Fsa, ParseError, parse_fsa, remove_epsilon, serialize_fsa
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


class _CliError(Exception):
    pass


def _common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    parser.add_argument("--monoid-cap", type=int, default=DEFAULT_MONOID_CAP)
    parser.add_argument("--range-cap", type=int, default=DEFAULT_RANGE_CAP)
    parser.add_argument("--format", choices=("text", "tree"), default="text")
    parser.add_argument(
        "--no-eps-removal",
        action="store_true",
        help="fail on epsilon transitions instead of removing them",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detsize",
        description="Determinize NFAs and compute a priori bounds on the resulting DFA size.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a generated automaton")
    p_gen.add_argument(
        "family",
        choices=("universal", "moore", "mf", "moore-mod", "random", "gadget-union", "gadget-mf"),
    )
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--t", type=int, help="gadget-mf tail size")
    p_gen.add_argument("--base", metavar="PATH", help="base automaton for gadgets")
    p_gen.add_argument("--sigma", type=int, default=2, help="random alphabet size")
    p_gen.add_argument("--density", type=float, default=0.3)
    p_gen.add_argument("--initial-density", type=float, default=0.5)
    p_gen.add_argument("--final-density", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--trim", action="store_true")
    p_gen.add_argument("--total", action="store_true")
    p_gen.add_argument("--codeterministic", action="store_true")
    _common_options(p_gen)

    for name, help_text in (
        ("determinize", "run the subset construction"),
        ("minimize", "determinize and minimize"),
        ("state-complexity", "print the minimal equivalent DFA size"),
        ("bounds", "emit the full bound report"),
        ("universal", "decide universality"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", metavar="FILE")
        _common_options(p)

    p_eq = sub.add_parser("equiv", help="decide language equivalence of two automata")
    p_eq.add_argument("input_a", metavar="FILE_A")
    p_eq.add_argument("input_b", metavar="FILE_B")
    _common_options(p_eq)
    return parser


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(str(exc)) from exc
    else:
        sys.stdout.write(text)


def _load(args, path: str) -> Fsa:
    try:
        with open(path, encoding="utf-8") as fh:
            a = parse_fsa(fh.read())
    except OSError as exc:
        raise _CliError(str(exc)) from exc
    if a.has_epsilon:
        if args.no_eps_removal:
            raise _CliError(f"{path}: input has epsilon transitions")
        a = remove_epsilon(a)
    return a


def _format_word(word: tuple[str, ...]) -> str:
    return " ".join(word) if word else "<eps>"


def _cmd_gen(args) -> int:
    def need_n() -> int:
        if args.n is None:
            raise _CliError(f"gen {args.family} requires --n")
        return args.n

    family = args.family
    if family == "universal":
        a = gen_universal()
    elif family == "moore":
        a = gen_moore(need_n())
    elif family == "mf":
        a = gen_meyer_fischer(need_n())
    elif family == "moore-mod":
        a = gen_modified_moore(need_n())
    elif family == "random":
        spec = RandomNfaSpec(
            n=need_n(),
            alphabet_size=args.sigma,
            density=args.density,
            initial_density=args.initial_density,
            final_density=args.final_density,
            seed=args.seed,
            force_trim=args.trim,
            force_total=args.total,
            force_codeterministic=args.codeterministic,
        )
        try:
            a = gen_random(spec)
        except RuntimeError as exc:  # the forcing flags left no sample after every retry
            raise _CliError(str(exc)) from exc
    else:
        if args.base is None:
            raise _CliError(f"gen {family} requires --base")
        base = _load(args, args.base)
        if family == "gadget-union":
            a = gen_union_gadget(base)
        else:
            if args.t is None:
                raise _CliError("gen gadget-mf requires --t")
            a = gen_mf_gadget(base, args.t)
    _write(args, serialize_fsa(a))
    return EXIT_OK


def _cmd_determinize(args, minimal: bool) -> int:
    a = _load(args, args.input)
    d = subset_to_dfa(subset_construct(a, args.max_states))
    if minimal:
        d = minimize(d)
    print(d.n, file=sys.stderr)
    _write(args, serialize_fsa(d))
    return EXIT_OK


def _cmd_state_complexity(args) -> int:
    a = _load(args, args.input)
    _write(args, f"{state_complexity(a, args.max_states)}\n")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    a = _load(args, args.input)
    report = full_report(
        a,
        monoid_cap=args.monoid_cap,
        range_cap=args.range_cap,
        max_states=args.max_states,
    )
    text = report_to_json(report) if args.format == "tree" else render_report_text(report)
    _write(args, text)
    return EXIT_OK


def _cmd_universal(args) -> int:
    a = _load(args, args.input)
    witness = universality_witness(a, args.max_states)
    if witness is None:
        _write(args, "universal\n")
        return EXIT_OK
    _write(args, f"not universal: {_format_word(witness)}\n")
    return EXIT_NEGATIVE


def _cmd_equiv(args) -> int:
    a = _load(args, args.input_a)
    b = _load(args, args.input_b)
    witness = distinguishing_word(a, b, args.max_states)
    if witness is None:
        _write(args, "equivalent\n")
        return EXIT_OK
    _write(args, f"not equivalent: {_format_word(witness)}\n")
    return EXIT_NEGATIVE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "determinize":
            return _cmd_determinize(args, minimal=False)
        if args.command == "minimize":
            return _cmd_determinize(args, minimal=True)
        if args.command == "state-complexity":
            return _cmd_state_complexity(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "universal":
            return _cmd_universal(args)
        if args.command == "equiv":
            return _cmd_equiv(args)
        raise AssertionError(f"unhandled command {args.command}")
    except BlowUpError as exc:
        print(f"blow-up abort: {exc.states_found} states found", file=sys.stderr)
        return EXIT_BLOWUP
    except (ParseError, _CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
