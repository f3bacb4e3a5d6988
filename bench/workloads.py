"""Inputs, operations and answer checks of the three benchmark workloads.

Inputs come from the package's seeded generators (for ``corpus``, from the
corpus that ``tests/conftest.py`` defines).  The workload seed reorders each
automaton's states, which changes the state numbering, the bitmask layout and
the serialized text.  It never changes an automaton's language or size, so
every seed asks for the same amount of work and the spread between runs
measures the program, not the inputs.

Every answer is checked against one the code under test did not produce:
closed forms for the classical families, and otherwise the independent
oracles of ``tests/oracles.py`` plus the frozenset-based refinement and the
integer-row range and monoid enumerations below, computed once at set-up on
each automaton as parsed from its text.  Every in-process operation parses
its automaton from text on each call, so no call reuses an object that an
earlier call could have warmed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import pickle
import random
import sys
import types
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent

# every cap is passed explicitly, so a change to the library's defaults does
# not change the work; forecast uses the monoid cap of the ROADMAP baseline
FORECAST_CAPS = {"monoid_cap": 10_000, "range_cap": 20, "max_states": 2**20}
CORPUS_CAPS = {"monoid_cap": 100_000, "range_cap": 20, "max_states": 2**20}
MOORE24_MAX_STATES = 262_144

# operations that fail at the benchmark's first commit, with the start of
# their failure detail; any other failure makes a run incorrect
KNOWN_FAILURES = {
    "universal moore24": "exit 3:",  # blow-up abort after 2^18 subsets
    "report random-792": "ParseError:",  # no states declared
    "report random-882": "ParseError:",
}


@dataclass
class Op:
    """One benchmark operation.  ``call`` runs it in-process; a CLI op has
    ``argv`` (the detsize arguments) instead.  ``check`` gets the result and
    returns None for a right answer or a description of the wrong one."""

    name: str
    kind: str  # "determinize", "verdict" or "forecast"
    check: Callable[[object], str | None]
    call: Callable[[], object] | None = None
    argv: list[str] | None = None
    expect_rc: int = 0


@dataclass
class Workload:
    name: str
    seed: int
    inputs_sha256: str
    ops: list[Op] = field(default_factory=list)


def load_test_module(name: str):
    """A module of ``tests/``.  conftest.py imports pytest only for its
    fixture decorator; a stand-in keeps pytest out of the benchmark's
    process, its set-up time and its memory."""
    path = ROOT / "tests" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"detsize_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("pytest")
    sys.modules["pytest"] = types.SimpleNamespace(fixture=lambda *args, **kwargs: lambda fn: fn)
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["pytest"]
        else:
            sys.modules["pytest"] = saved
    return module


def reorder(a, rng: random.Random):
    """The same automaton with its states in a random order."""
    from detsize import Fsa

    states = list(a.states)
    rng.shuffle(states)
    return Fsa(a.alphabet, tuple(states), a.initial, a.final, a.transitions)


def _named_inputs(workload: str) -> list[tuple[str, object]]:
    """The generated automata of a workload, before reordering."""
    from detsize import RandomNfaSpec, gen_meyer_fischer, gen_modified_moore, gen_moore, gen_random

    if workload == "blowup":
        return [
            ("moore14", gen_moore(14)),
            ("mf14", gen_meyer_fischer(14)),
            ("moore16", gen_moore(16)),
            ("moore24", gen_moore(24)),
        ]
    if workload == "forecast":
        out = [
            (
                f"random-n{n}-s{sigma}",
                gen_random(RandomNfaSpec(n=n, alphabet_size=sigma, density=0.15, seed=1)),
            )
            for n in (14, 16, 18)
            for sigma in (2, 3)
        ]
        out.append(("modmoore18", gen_modified_moore(18)))
        out.append(("mf12", gen_meyer_fischer(12)))
        return out
    if workload == "corpus":
        conftest = load_test_module("conftest")
        out = [(f"random-{i}", a) for i, a in enumerate(conftest.build_random_nfas())]
        out += [(f"family-{i}", a) for i, a in enumerate(conftest.build_families())]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def build_inputs(workload: str, seed: int) -> tuple[list[tuple[str, object, str]], str]:
    """(name, reordered automaton, its text) per input, and the SHA-256 of
    the serialized generator output.  The digest does not depend on the
    seed; it changes when a generator or the text format changes."""
    from detsize import serialize_fsa

    digest = hashlib.sha256()
    out = []
    for name, a in _named_inputs(workload):
        digest.update(f"{name}\n{serialize_fsa(a)}\n".encode())
        b = reorder(a, random.Random(f"{workload}/{seed}/{name}"))
        out.append((name, b, serialize_fsa(b)))
    return out, digest.hexdigest()


# ---------------------------------------------------------------- oracles


@dataclass(frozen=True)
class Expected:
    subsets: int  # accessible subsets, the empty one included when reached
    minimal: int  # states of the minimal total DFA
    shortest_rejected: int | None  # length of a shortest rejected word; None if universal


def expected_answers(a, oracles) -> Expected:
    """Subset count from ``oracles.accessible_subsets``; minimal size and
    shortest rejected word by breadth-first search and Moore refinement over
    frozenset subsets, without the library's bitmask code."""
    table = oracles.step_table(a)
    start = frozenset(a.initial)
    dist = {start: 0}
    order = [start]
    succ = {}
    for cur in order:
        row = []
        for sym in a.alphabet:
            step = table.get(sym, {})
            nxt = frozenset(q for src in cur for q in step.get(src, ()))
            row.append(nxt)
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                order.append(nxt)
        succ[cur] = row
    subsets = len(oracles.accessible_subsets(a))
    if subsets != len(order):
        raise RuntimeError("oracle disagreement on the accessible subsets")

    block = {s: int(bool(s & a.final)) for s in order}
    classes = len(set(block.values()))
    while True:
        ids: dict[tuple, int] = {}
        block = {
            s: ids.setdefault((block[s],) + tuple(block[t] for t in succ[s]), len(ids))
            for s in order
        }
        if len(ids) == classes:
            break
        classes = len(ids)
    rejected = [dist[s] for s in order if not s & a.final]
    return Expected(subsets, classes, min(rejected) if rejected else None)


def _symbol_rows(a, oracles) -> dict[str, tuple[int, ...]]:
    """Per symbol, row i is the bitmask of the successors of state i, built
    from the oracles' step table rather than the library's matrices."""
    index = {q: i for i, q in enumerate(a.states)}
    table = oracles.step_table(a)
    return {
        sym: tuple(sum(1 << index[t] for t in table.get(sym, {}).get(q, ())) for q in a.states)
        for sym in a.alphabet
    }


def _image_count(rows: tuple[int, ...]) -> int:
    """Size of the range {union of rows[i] for i in S : S any subset},
    built one row at a time; the empty union is included."""
    images = {0}
    for r in rows:
        images |= {x | r for x in images}
    return len(images)


def _closure_size(gens: list[tuple[int, ...]], n: int, cap: int) -> int | None:
    """Size of the monoid the Boolean matrices ``gens`` generate, the
    identity included; None when it has more than ``cap`` elements."""
    identity = tuple(1 << i for i in range(n))
    seen = {identity}
    todo = [identity]
    for x in todo:
        for g in gens:
            y = []
            for r in x:
                acc = 0
                while r:
                    low = r & -r
                    acc |= g[low.bit_length() - 1]
                    r ^= low
                y.append(acc)
            y = tuple(y)
            if y not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(y)
                todo.append(y)
    return len(seen)


@dataclass(frozen=True)
class ExpectedReport:
    caps: dict[str, int]
    subsets: int
    range_sizes: tuple[int, ...] | None  # per symbol; None when n is above the range cap
    monoid: int | None  # None when the monoid has more than monoid_cap elements
    split_values: dict[tuple[str, ...], int]  # per split whose monoid is within the cap
    alphabet: tuple[str, ...]


def expected_report(a, caps: dict[str, int], subsets: int, oracles) -> ExpectedReport:
    """The exact range sizes, monoid bound and subset complexity of ``a``
    under ``caps``, by direct enumeration over integer rows."""
    rows = _symbol_rows(a, oracles)
    cap = caps["monoid_cap"]
    split_values = {}
    sizes = None
    if a.n <= caps["range_cap"]:
        ranges = {sym: _image_count(r) for sym, r in rows.items()}
        sizes = tuple(ranges[sym] for sym in a.alphabet)
        for k in range(len(a.alphabet) + 1):
            for split in combinations(a.alphabet, k):
                size = _closure_size([rows[sym] for sym in split], a.n, cap)
                if size is not None:
                    factor = 1 + sum(ranges[sym] for sym in a.alphabet if sym not in split)
                    split_values[split] = factor * size
    monoid = _closure_size(list(rows.values()), a.n, cap)
    return ExpectedReport(dict(caps), subsets, sizes, monoid, split_values, a.alphabet)


def check_report(text: str, want: ExpectedReport) -> str | None:
    """The report must echo the caps it was asked for, give the exact subset
    size, range sizes, range bound, monoid bound and subset complexity, and
    a sound all-but-one bound wherever the caps allow one."""
    data = json.loads(text)
    got = {
        "max_states": data["subset_size"]["cap"],
        "monoid_cap": data["monoid_bound"]["cap"],
        "range_cap": data["range_bound"]["cap"],
    }
    if got != want.caps:
        return f"caps {got}, expected {want.caps}"
    if data["subset_size"]["value"] != want.subsets:
        return f"subset_size {data['subset_size']['value']}, expected {want.subsets}"
    if data["monoid_bound"]["value"] != want.monoid:
        return f"monoid_bound {data['monoid_bound']['value']}, expected {want.monoid}"
    sizes = [s["range_size"] for s in data["per_symbol"]]
    if want.range_sizes is None:
        expected = {"range sizes": [None] * len(want.alphabet), "range_bound": None,
                    "subset_complexity": None, "all_but_one_certified": None}
    else:
        expected = {
            "range sizes": list(want.range_sizes),
            "range_bound": 1 + sum(want.range_sizes),
            "subset_complexity": min(want.split_values.values()),
        }
    got = {
        "range sizes": sizes,
        "range_bound": data["range_bound"]["value"],
        "subset_complexity": data["subset_complexity"]["value"],
        "all_but_one_certified": data["all_but_one_certified"]["value"],
    }
    for key, value in expected.items():
        if got[key] != value:
            return f"{key} {got[key]}, expected {value}"
    if want.range_sizes is not None:
        split = tuple(data["subset_complexity"]["split"])
        if want.split_values.get(split) != got["subset_complexity"]:
            return f"subset_complexity split {split} does not give {got['subset_complexity']}"
        certified = got["all_but_one_certified"]
        if want.alphabet and (certified is None or certified < want.subsets):
            return f"all_but_one_certified {certified} is missing or below {want.subsets}"
    return None


def _check_equal(expected, what: str) -> Callable[[object], str | None]:
    def check(got) -> str | None:
        return None if got == expected else f"{what} {got!r}, expected {expected!r}"

    return check


def _check_witness(a, want: Expected, oracles) -> Callable[[object], str | None]:
    def check(witness) -> str | None:
        if want.shortest_rejected is None:
            return None if witness is None else f"witness {witness!r} for a universal language"
        if witness is None:
            return "reported universal"
        if len(witness) != want.shortest_rejected:
            return f"witness {witness!r} is not of shortest length {want.shortest_rejected}"
        if oracles.nfa_accepts_by_sets(a, tuple(witness)):
            return f"witness {witness!r} is accepted"
        return None

    return check


# ---------------------------------------------------------------- workloads


def _cli_output(expected_stdout: str) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        _rc, out, _err = result
        return None if out == expected_stdout else f"stdout {out!r}, expected {expected_stdout!r}"

    return check


def _check_moore16_dfa(result) -> str | None:
    _rc, out, err = result
    if err.strip() != str(2**16):
        return f"stderr {err.strip()!r}, expected {2**16}"
    transitions = sum(1 for line in out.splitlines() if line and not line.startswith("@"))
    if transitions != 2 * 2**16:
        return f"{transitions} transitions, expected {2 * 2**16}"
    return None


def blowup(seed: int, workdir: Path, minimize: Callable[[Path, Path], None]) -> Workload:
    """Classical worst-case families through the CLI.  ``minimize(src, dst)``
    writes the minimal DFA of ``src`` with the CLI, once, at set-up."""
    inputs, digest = build_inputs("blowup", seed)
    paths = {}
    for name, _a, text in inputs:
        paths[name] = workdir / f"{name}.fsa"
        paths[name].write_text(text, encoding="utf-8")
    paths["moore14-min"] = workdir / "moore14-min.fsa"
    minimize(paths["moore14"], paths["moore14-min"])
    p = {k: str(v) for k, v in paths.items()}
    wl = Workload("blowup", seed, digest)
    wl.ops = [
        Op("state-complexity moore14", "determinize", _cli_output(f"{2**14}\n"),
           argv=["state-complexity", p["moore14"]]),
        Op("state-complexity mf14", "determinize", _cli_output(f"{2**14}\n"),
           argv=["state-complexity", p["mf14"]]),
        Op("determinize moore16", "determinize", _check_moore16_dfa,
           argv=["determinize", p["moore16"]]),
        Op("universal moore16", "verdict", _cli_output("not universal: <eps>\n"),
           argv=["universal", p["moore16"]], expect_rc=1),
        Op("equiv moore14 minimized", "verdict", _cli_output("equivalent\n"),
           argv=["equiv", p["moore14"], p["moore14-min"]]),
        Op("universal moore24", "verdict", _cli_output("not universal: <eps>\n"),
           argv=["universal", p["moore24"], "--max-states", str(MOORE24_MAX_STATES)],
           expect_rc=1),
    ]
    return wl


def _report_op(name: str, text: str, caps: dict[str, int], want: ExpectedReport, epsilon: bool) -> Op:
    """Text to bound report, as ``detsize bounds --json`` does it."""
    import detsize

    def call():
        # looked up at call time, so a traced pass sees the traced functions
        return detsize.bounds.report_to_json(detsize.full_report(_parsed(text, epsilon), **caps))

    return Op(f"report {name}", "forecast", lambda got: check_report(got, want), call=call)


def _forked(fn, *args):
    """``fn(*args)`` computed in a forked child and sent back pickled, so
    that the oracles' memory does not count in this process's peak RSS."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            with os.fdopen(write_end, "wb") as out:
                pickle.dump(fn(*args), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"set-up: the oracle process ended with status {status}")
    return pickle.loads(data)


def _parsed(text: str, epsilon: bool):
    import detsize

    a = detsize.parse_fsa(text)
    return detsize.remove_epsilon(a) if epsilon else a


def _forecast_expected(inputs) -> dict[str, ExpectedReport]:
    oracles = load_test_module("oracles")
    out = {}
    for name, _b, text in inputs:
        a = _parsed(text, epsilon=False)
        # Meyer-Fischer has the closed form 2^n; the others take the oracle's count
        subsets = 2**12 if name == "mf12" else expected_answers(a, oracles).subsets
        out[name] = expected_report(a, FORECAST_CAPS, subsets, oracles)
    return out


def forecast(seed: int) -> Workload:
    """In-process bound reports on mid-sized automata, at the monoid cap of
    the ROADMAP baseline."""
    inputs, digest = build_inputs("forecast", seed)
    expected = _forked(_forecast_expected, inputs)
    wl = Workload("forecast", seed, digest)
    for name, _b, text in inputs:
        wl.ops.append(_report_op(name, text, FORECAST_CAPS, expected[name], epsilon=False))
    return wl


def _corpus_expected(inputs) -> dict[str, tuple[Expected, ExpectedReport]]:
    """Expected answers per input whose text parses."""
    import detsize

    oracles = load_test_module("oracles")
    out = {}
    for name, _b, text in inputs:
        try:
            a = _parsed(text, epsilon=True)
        except detsize.ParseError:
            continue
        want = expected_answers(a, oracles)
        out[name] = want, expected_report(a, CORPUS_CAPS, want.subsets, oracles)
    return out


def corpus(seed: int) -> Workload:
    """The seeded small-NFA corpus of the tests, each automaton from text to
    bound report, state complexity and universality verdict.  Texts that do
    not parse stay in and fail their operation."""
    import detsize

    oracles = load_test_module("oracles")
    inputs, digest = build_inputs("corpus", seed)
    expected = _forked(_corpus_expected, inputs)
    wl = Workload("corpus", seed, digest)
    for name, _b, text in inputs:
        if name not in expected:
            unparsed = "parsed a text that did not parse at set-up"
            wl.ops.append(Op(f"report {name}", "forecast", lambda _r: unparsed,
                             call=lambda text=text: _parsed(text, epsilon=True)))
            continue
        want, want_report = expected[name]
        wl.ops += [
            _report_op(name, text, CORPUS_CAPS, want_report, epsilon=True),
            Op(f"state_complexity {name}", "determinize",
               _check_equal(want.minimal, "state complexity"),
               call=lambda text=text: detsize.state_complexity(_parsed(text, epsilon=True))),
            Op(f"universality_witness {name}", "verdict",
               _check_witness(_parsed(text, epsilon=True), want, oracles),
               call=lambda text=text: detsize.universality_witness(_parsed(text, epsilon=True))),
        ]
    return wl
