"""Finite-state automata: values, a line-oriented text format, and structural transforms.

States and symbols are plain strings; internally every state also has a dense
index given by its position in ``Fsa.states``. All values are immutable after
construction and every operation is a pure function, so automata can be shared
freely between threads.
"""

from __future__ import annotations

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


DEFAULT_MAX_STATES = 2**20  # the cap of every subset search: here with its error, so a command names both unloaded


class BlowUpError(RuntimeError):
    """The subset construction was aborted after discovering too many states."""

    def __init__(self, states_found: int, max_states: int):
        self.states_found = states_found
        self.max_states = max_states
        super().__init__(f"subset construction aborted: {states_found} states found, cap is {max_states}")


def _refuse_str(*collections) -> None:
    """ValueError for a bare string among the five collections of an ``Fsa``, in field order: it reads as letters."""
    for name, value in zip(("alphabet", "states", "initial", "final", "transitions"), collections):
        if type(value) is str:
            raise ValueError(f"{name} must be a collection, not the string {value!r}")


def _valid_symbol(sym: str) -> bool:
    return isinstance(sym, str) and sym.split() == [sym] and sym != EPSILON


class _Record:
    """A value whose fields are the parameters of its class's ``__init__``, kept in order as ``__match_args__`` (so
    ``match`` patterns take them positionally): equal, hashed and shown by them. ``__init__`` stores them once with
    ``_set``; assigning or deleting an attribute afterwards raises AttributeError."""

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1:code.co_argcount]

    def _set(self, *values) -> None:
        # object.__setattr__ keeps the values inline; writing to vars(self) would build a __dict__, which slows
        # every attribute read. Each call returns None, so any() makes them all.
        any(map(object.__setattr__.__get__(self), self.__match_args__, values))

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Fsa(_Record):
    """A finite-state automaton.

    ``transitions`` holds (source, symbol, target) triples; the symbol may be
    the reserved out-of-alphabet marker ``EPSILON``. Transitions form a set,
    so duplicates collapse; multiplicity never affects the language. The empty
    state set is a legal value (it arises from trimming an empty language).
    The constructor also sets ``state_index``, each state's index, and ``has_epsilon``, whether a transition is on
    ``EPSILON``: derived from the fields, they are neither fields nor compared.
    """

    def __init__(self, alphabet: Iterable[str] = (), states: Iterable[str] = (), initial: Iterable[str] = (),
                 final: Iterable[str] = (), transitions: Iterable[tuple[str, str, str]] = ()):
        if str in map(type, (alphabet, states, initial, final, transitions)):  # inline: fast
            _refuse_str(alphabet, states, initial, final, transitions)
        if str in map(type, transitions := [*transitions]):  # read as letters, "qaq" would be a triple
            raise ValueError(f"transition {next(t for t in transitions if type(t) is str)!r} is a string, not a triple")
        alphabet, states, initial, final = tuple(alphabet), tuple(states), frozenset(initial), frozenset(final)
        transitions = frozenset(map(tuple, transitions))
        symbol_set = set(alphabet)
        if len(symbol_set) != len(alphabet):
            raise ValueError("duplicate symbol in alphabet")
        index = dict(zip(states, range(len(states))))  # also the duplicate check and the membership test
        if len(index) != len(states):
            raise ValueError("duplicate state name")
        for sym in alphabet:
            if not _valid_symbol(sym):
                raise ValueError(f"invalid symbol {sym!r}")
        for q in states:
            if not _valid_symbol(q) or q[0] in "@#":  # a valid symbol is a non-empty string
                raise ValueError(f"invalid state name {q!r}")
        for kind, group in (("initial", initial), ("final", final)):
            for q in group:
                if q not in index:
                    raise ValueError(f"{kind} state {q!r} not in state set")
        has_epsilon = False
        for t in transitions:
            if len(t) != 3:
                raise ValueError(f"transition {t!r} is not a triple")
            src, sym, dst = t
            if src not in index or dst not in index:
                raise ValueError(f"transition {t!r} uses an unknown state")
            if sym not in symbol_set:  # the alphabet holds no EPSILON: a valid symbol is not that marker
                if sym != EPSILON:
                    raise ValueError(f"transition {t!r} uses an unknown symbol")
                has_epsilon = True
        self._set(alphabet, states, initial, final, transitions)
        object.__setattr__(self, "state_index", index)
        object.__setattr__(self, "has_epsilon", has_epsilon)

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
        _refuse_str(alphabet, states, initial, final, transitions)
        transitions = list(transitions)  # as given: the constructor refuses a string
        initial = list(initial)
        final = list(final)
        states, alphabet = tuple(states), tuple(alphabet)
        listed = set(states)
        triples = [t for t in transitions if len(t) == 3]  # the constructor names any other
        used = dict.fromkeys([*(q for src, _, dst in triples for q in (src, dst)), *initial, *final])
        states += tuple(q for q in used if q not in listed)
        extra = (sym for sym in dict.fromkeys(t[1] for t in triples) if sym != EPSILON and sym not in alphabet)
        return cls(alphabet + tuple(extra), states, initial, final, transitions)

    @property
    def n(self) -> int:
        return len(self.states)


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
    # A state name is checked at its first use. A token of str.split() is non-empty and holds no whitespace, so it is
    # a valid state name unless it is EPSILON or starts with @ or #.
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        head = tokens[0]
        if head[0] != "@":
            if len(tokens) != 3:
                raise ParseError("transition line must be 'src sym dst'", lineno)
            src, sym, dst = tokens
            if src not in states:
                if src == EPSILON:  # the line's head, so neither @ nor #
                    raise ParseError(f"invalid state name {src!r}", lineno)
                states[src] = None
            if dst not in states:
                if dst == EPSILON or dst[0] in "@#":
                    raise ParseError(f"invalid state name {dst!r}", lineno)
                states[dst] = None
            if sym not in symbols and sym != EPSILON:
                if pinned is not None and sym not in pinned:
                    raise ParseError(f"symbol {sym!r} not in declared alphabet", lineno)
                symbols[sym] = None
            transitions.append((src, sym, dst))
        elif head == "@initial" or head == "@final":
            if len(tokens) != 2:
                raise ParseError(f"{head} takes exactly one state", lineno)
            q = tokens[1]
            if q not in states:
                if q == EPSILON or q[0] in "@#":
                    raise ParseError(f"invalid state name {q!r}", lineno)
                states[q] = None
            (initial if head == "@initial" else final).append(q)
        elif head == "@alphabet":
            if pinned is not None:
                raise ParseError("duplicate @alphabet declaration", lineno)
            pinned = tokens[1:]
            if len(set(pinned)) != len(pinned):
                raise ParseError("duplicate symbol in @alphabet", lineno)
            if EPSILON in pinned:  # a token is otherwise a valid symbol
                raise ParseError(f"invalid symbol {EPSILON!r}", lineno)
            for sym in symbols:
                if sym not in pinned:
                    raise ParseError(f"symbol {sym!r} not in declared alphabet", lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

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
