"""Finite-state automata: values, a line-oriented text format, and structural transforms.

States and symbols are plain strings; internally every state also has a dense
index given by its position in ``Fsa.states``. All values are immutable after
construction and every operation is a pure function, so automata can be shared
freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

EPSILON = "<eps>"

Word = tuple[str, ...]

__all__ = [
    "EPSILON",
    "Word",
    "ParseError",
    "Fsa",
    "parse_fsa",
    "serialize_fsa",
    "remove_epsilon",
    "reverse",
    "trim",
    "is_trim",
    "is_total",
    "is_deterministic",
    "is_codeterministic",
    "complete_with_dead_state",
    "accepts",
    "fresh_state_name",
]


class ParseError(ValueError):
    """Malformed automaton text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _require(name: str, value: int, low: int, high: int | None = None) -> None:
    """The one rule for a cap or size parameter, checked before any work: ValueError below ``low`` or above ``high``."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}")


def _valid_symbol(sym: str) -> bool:
    return isinstance(sym, str) and sym.split() == [sym] and sym != EPSILON


def _valid_state(name: str) -> bool:
    return _valid_symbol(name) and not name.startswith(("@", "#"))


@dataclass(frozen=True)
class Fsa:
    """A finite-state automaton.

    ``transitions`` holds (source, symbol, target) triples; the symbol may be
    the reserved out-of-alphabet marker ``EPSILON``. Transitions form a set,
    so duplicates collapse; multiplicity never affects the language. The empty
    state set is a legal value (it arises from trimming an empty language).
    """

    alphabet: tuple[str, ...] = ()
    states: tuple[str, ...] = ()
    initial: frozenset[str] = frozenset()
    final: frozenset[str] = frozenset()
    transitions: frozenset[tuple[str, str, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "final", frozenset(self.final))
        object.__setattr__(self, "transitions", frozenset(tuple(t) for t in self.transitions))
        symbol_set = set(self.alphabet)
        if len(symbol_set) != len(self.alphabet):
            raise ValueError("duplicate symbol in alphabet")
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError("duplicate state name")
        for sym in self.alphabet:
            if not _valid_symbol(sym):
                raise ValueError(f"invalid symbol {sym!r}")
        for q in self.states:
            if not _valid_state(q):
                raise ValueError(f"invalid state name {q!r}")
        for kind, group in (("initial", self.initial), ("final", self.final)):
            for q in group:
                if q not in state_set:
                    raise ValueError(f"{kind} state {q!r} not in state set")
        for t in self.transitions:
            if len(t) != 3:
                raise ValueError(f"transition {t!r} is not a triple")
            src, sym, dst = t
            if src not in state_set or dst not in state_set:
                raise ValueError(f"transition {t!r} uses an unknown state")
            if sym != EPSILON and sym not in symbol_set:
                raise ValueError(f"transition {t!r} uses an unknown symbol")

    @classmethod
    def make(
        cls,
        transitions: Iterable[tuple[str, str, str]] = (),
        initial: Iterable[str] = (),
        final: Iterable[str] = (),
        *,
        states: Iterable[str] = (),
        alphabet: Iterable[str] = (),
    ) -> "Fsa":
        """Build an automaton, inferring state and alphabet order from first use:
        ``states``, then the transition endpoints and the initial and final
        states it does not list; ``alphabet``, then the other transition
        symbols. A name repeated in ``states`` or ``alphabet`` is refused."""
        transitions = [tuple(t) for t in transitions]
        initial = list(initial)
        final = list(final)
        states, alphabet = tuple(states), tuple(alphabet)
        listed = set(states)
        used = dict.fromkeys([*(q for src, _, dst in transitions for q in (src, dst)), *initial, *final])
        states += tuple(q for q in used if q not in listed)
        extra = (sym for sym in dict.fromkeys(t[1] for t in transitions) if sym != EPSILON and sym not in alphabet)
        return cls(alphabet + tuple(extra), states, frozenset(initial), frozenset(final), frozenset(transitions))

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {q: i for i, q in enumerate(self.states)}

    @cached_property
    def has_epsilon(self) -> bool:
        return any(sym == EPSILON for _, sym, _ in self.transitions)


def parse_fsa(text: str) -> Fsa:
    """Parse the line-oriented automaton text format.

    Lines are either ``src sym dst`` transitions (``<eps>`` denotes the empty
    symbol), ``@initial q`` / ``@final q`` markers, or an optional
    ``@alphabet a b c`` line pinning alphabet order. Blank lines are ignored,
    and so is a comment line, whose first non-blank character is ``#``; a ``#``
    anywhere else is an ordinary character. States and symbols are declared
    by first use; state indexing follows first-appearance order.
    """
    pinned: list[str] | None = None
    states: dict[str, None] = {}  # insertion-ordered: first use fixes the index
    symbols: dict[str, None] = {}
    initial: list[str] = []
    final: list[str] = []
    transitions: list[tuple[str, str, str]] = []

    def declare_state(name: str, lineno: int) -> None:
        if name not in states:
            if not _valid_state(name):
                raise ParseError(f"invalid state name {name!r}", lineno)
            states[name] = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        head = tokens[0]
        if head == "@alphabet":
            if pinned is not None:
                raise ParseError("duplicate @alphabet declaration", lineno)
            pinned = tokens[1:]
            if len(set(pinned)) != len(pinned):
                raise ParseError("duplicate symbol in @alphabet", lineno)
            for sym in pinned:
                if not _valid_symbol(sym):
                    raise ParseError(f"invalid symbol {sym!r}", lineno)
            for sym in symbols:
                if sym not in pinned:
                    raise ParseError(f"symbol {sym!r} not in declared alphabet", lineno)
        elif head in ("@initial", "@final"):
            if len(tokens) != 2:
                raise ParseError(f"{head} takes exactly one state", lineno)
            declare_state(tokens[1], lineno)
            (initial if head == "@initial" else final).append(tokens[1])
        elif head.startswith("@"):
            raise ParseError(f"unknown directive {head!r}", lineno)
        else:
            if len(tokens) != 3:
                raise ParseError("transition line must be 'src sym dst'", lineno)
            src, sym, dst = tokens
            declare_state(src, lineno)
            declare_state(dst, lineno)
            if sym != EPSILON and sym not in symbols:
                if pinned is not None and sym not in pinned:
                    raise ParseError(f"symbol {sym!r} not in declared alphabet", lineno)
                symbols[sym] = None
            transitions.append((src, sym, dst))

    if not states:
        raise ParseError("no states declared")
    alphabet = tuple(symbols if pinned is None else pinned)
    return Fsa(alphabet, tuple(states), frozenset(initial), frozenset(final), transitions)


def serialize_fsa(a: Fsa) -> str:
    """Render an automaton in the text format, deterministically.

    Transitions are sorted by (source index, symbol, target index); then come
    ``@initial`` and ``@final`` lines in state-index order. The ``@alphabet``
    line is emitted only when first-use order in the transitions would not
    reproduce the alphabet, so parse(serialize(a)) restores it either way.
    """
    idx = a.state_index
    edges = sorted((idx[src], sym, idx[dst]) for src, sym, dst in a.transitions)
    first_use = tuple(sym for sym in dict.fromkeys(sym for _, sym, _ in edges) if sym != EPSILON)
    initial, final = (sorted(idx[q] for q in group) for group in (a.initial, a.final))
    return "".join(_text(a.alphabet, first_use != a.alphabet, a.states, edges, initial, final))


def _text(alphabet: tuple[str, ...], pinned: bool, names, edges, initial, final) -> Iterator[str]:
    """The one writer of the text format: an ``@alphabet`` line when ``pinned``, a line per
    (source index, symbol, target index) of ``edges`` in order, then the ``@initial`` and
    ``@final`` lines of the indices in ``initial`` and ``final``; state i is ``names[i]``. The text
    comes in chunks of at most 4,096 lines as it is made, so a caller that writes each one never holds it whole."""
    label = {sym: f" {sym} " for sym in (*alphabet, EPSILON)}
    yield "@alphabet" + "".join(" " + sym for sym in alphabet) + "\n" if pinned else ""
    edges = iter(edges)
    while lines := [names[i] + label[sym] + names[j] for i, sym, j in islice(edges, 4096)]:
        yield "\n".join([*lines, ""])
    yield "".join(["@initial " + names[i] + "\n" for i in initial] + ["@final " + names[i] + "\n" for i in final])


def _adjacency(a: Fsa) -> dict[str, dict[str, set[str]]]:
    adj: dict[str, dict[str, set[str]]] = {q: {} for q in a.states}
    for src, sym, dst in a.transitions:
        adj[src].setdefault(sym, set()).add(dst)
    return adj


def _reachable(states: Iterable[str], edges: dict[str, set[str]]) -> set[str]:
    seen = set(states)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for r in edges.get(q, ()):
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def remove_epsilon(a: Fsa) -> Fsa:
    """Equivalent automaton without epsilon transitions; the state set is unchanged."""
    if not a.has_epsilon:
        return a
    adj = _adjacency(a)
    eps = {q: out[EPSILON] for q, out in adj.items() if EPSILON in out}
    closures = {q: _reachable((q,), eps) for q in a.states}
    moves = {q: [(sym, dst) for sym, out in adj[q].items() if sym != EPSILON for dst in out] for q in a.states}
    new_trans = frozenset((q, sym, dst) for q in a.states for p in closures[q] for sym, dst in moves[p])
    new_final = frozenset(q for q in a.states if closures[q] & a.final)
    return Fsa(a.alphabet, a.states, a.initial, new_final, new_trans)


def reverse(a: Fsa) -> Fsa:
    """Flip every transition and swap initial with final states."""
    flipped = frozenset((dst, sym, src) for src, sym, dst in a.transitions)
    return Fsa(a.alphabet, a.states, a.final, a.initial, flipped)


def trim(a: Fsa) -> Fsa:
    """Keep exactly the states that lie on some path from an initial to a final
    state; ``a`` itself when that is every state."""
    fwd: dict[str, set[str]] = {}
    bwd: dict[str, set[str]] = {}
    for src, _, dst in a.transitions:
        fwd.setdefault(src, set()).add(dst)
        bwd.setdefault(dst, set()).add(src)
    keep = _reachable(a.initial, fwd) & _reachable(a.final, bwd)
    if len(keep) == a.n:
        return a
    states = tuple(q for q in a.states if q in keep)
    trans = frozenset(t for t in a.transitions if t[0] in keep and t[2] in keep)
    return Fsa(a.alphabet, states, a.initial & keep, a.final & keep, trans)


def is_trim(a: Fsa) -> bool:
    return trim(a) is a


def _missing_pairs(a: Fsa) -> list[tuple[str, str]]:
    """The (state, symbol) pairs without a successor, in state then alphabet order."""
    pairs = {(src, sym) for src, sym, _ in a.transitions if sym != EPSILON}
    return [(q, w) for q in a.states for w in a.alphabet if (q, w) not in pairs]


def is_total(a: Fsa) -> bool:
    """True when every (state, symbol) pair has at least one successor."""
    return not _missing_pairs(a)


def is_deterministic(a: Fsa) -> bool:
    """True iff there is a unique initial state and every (state, symbol) pair
    has exactly one successor. The transitions form a set, so that holds iff no
    pair lacks a successor and there are n * |alphabet| transitions, which
    leaves no room for a second successor or an epsilon edge."""
    return len(a.initial) == 1 and len(a.transitions) == a.n * len(a.alphabet) and not _missing_pairs(a)


def is_codeterministic(a: Fsa) -> bool:
    """True iff the reversed automaton is deterministic."""
    return is_deterministic(reverse(a))


def fresh_state_name(base: str, taken: Iterable[str]) -> str:
    """Deterministically pick a state name not in ``taken``, starting from ``base``."""
    taken = set(taken)
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def complete_with_dead_state(a: Fsa) -> Fsa:
    """Make the transition relation total by routing missing (state, symbol)
    pairs to a fresh non-final sink with self-loops; a total automaton is
    returned unchanged, which makes the operation idempotent."""
    missing = _missing_pairs(a)
    if not missing:
        return a
    dead = fresh_state_name("q_dead", a.states)
    new_trans = a.transitions | {(q, w, dead) for q, w in missing} | {(dead, w, dead) for w in a.alphabet}
    return Fsa(a.alphabet, a.states + (dead,), a.initial, a.final, new_trans)


def accepts(a: Fsa, word: Iterable[str]) -> bool:
    """Membership test by on-the-fly subset simulation, after removing any
    epsilon transitions."""
    a = remove_epsilon(a)
    alphabet = set(a.alphabet)
    adj = _adjacency(a)
    current = set(a.initial)
    for sym in word:
        if sym not in alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet")
        current = set().union(*(adj[q].get(sym, ()) for q in current))
        if not current:
            return False
    return bool(current & a.final)
