"""The subset construction, DFA minimization, language equivalence and
universality checks, and state complexity."""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import compress
from typing import Callable

from .boolmat import BoolMatrix, image_table, transition_matrices
from .fsa import (DEFAULT_MAX_STATES, BlowUpError, Fsa, Word, _Record, _require, is_codeterministic, is_deterministic,
                  is_trim)

# the memory ceiling of image tables: no 2**n table is built above this dimension
_TABLE_LIMIT = 16
# a symbol's image table is built once the symbol has taken 2**(n - _PAYBACK) steps
_PAYBACK = 5

__all__ = [
    "DEFAULT_MAX_STATES",
    "BlowUpError",
    "SubsetAutomaton",
    "subset_construct",
    "subset_to_dfa",
    "minimize",
    "state_complexity",
    "equivalent",
    "distinguishing_word",
    "is_universal",
    "universality_witness",
    "check_brzozowski",
]


class SubsetAutomaton(_Record):
    """Output of the subset construction.

    ``subsets[i]`` is the bitmask of base states making up state i, with state
    0 the set of initial states; states are numbered in discovery order.
    ``transitions[i][k]`` is the successor of state i under ``base.alphabet[k]``,
    so the automaton is deterministic and total by construction. The empty
    subset, when reached, is an ordinary (dead) state.
    """

    def __init__(self, base: Fsa, subsets: tuple[int, ...], transitions: tuple[tuple[int, ...], ...],
                 final_flags: tuple[bool, ...]):
        self._set(base, subsets, transitions, final_flags)

    @property
    def n(self) -> int:
        return len(self.subsets)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """``S<i>=`` and the base states of subset i, comma-separated in base
        index order, as in ``S0=q1,q2``. The bin() digits are read from the
        lowest member up, so a name costs its span, not the base's size."""
        states, bit = self.base.states, bytes.maketrans(b"01", b"\0\1")  # bin() digits as bytes 0 and 1
        names = []
        for i, mask in enumerate(self.subsets):
            low = (mask ^ (mask - 1)).bit_length() - 1  # the lowest member; 0 for the empty subset
            digits = bin(mask >> low)[:1:-1].encode().translate(bit)
            names.append(f"S{i}={','.join(compress(states[low:low + len(digits)], digits))}")
        return tuple(names)

    def accepts(self, word: Word) -> bool:
        i = 0
        for sym in word:
            if sym not in self.base.alphabet:
                raise ValueError(f"symbol {sym!r} not in alphabet")
            i = self.transitions[i][self.base.alphabet.index(sym)]
        return self.final_flags[i]


class _Steps(list):
    """Subset-step functions, with the initial subset ``init`` and the ``final`` mask of their automaton."""
    __slots__ = ("__weakref__", "init", "final")  # renting steps reference their list weakly: no cycle outlives its users


def _subset_steps(a: Fsa, alphabet: tuple[str, ...], mats: dict[str, BoolMatrix]) -> _Steps:
    """The subset-step function of each symbol of ``alphabet`` in order, mapping
    a subset bitmask of ``a`` to its successor, as one ``_Steps`` value that
    carries ``a``'s initial subset and final mask. Users call ``steps[k]``
    afresh each time, since a step may replace itself; a monoid closure fills
    its image lists, one level ahead, through the same calls.

    A symbol of ``a`` rents ``BoolMatrix.apply`` until it has taken 2**(n - _PAYBACK)
    steps, then buys the image table of its matrix in ``mats`` and steps through
    it: ski rental (Karlin, Manasse, Rudolph and Sleator, 1988), never much more
    than twice the cheaper choice made in hindsight. A price of at most 4 steps
    buys at once, keeping the many tiny automata off the meter; above
    ``_TABLE_LIMIT`` states nothing is bought. A symbol that ``a`` lacks steps
    every subset to the empty one, with no table."""
    steps = _Steps()
    for sym in alphabet:
        m = mats.get(sym)
        if m is None:
            steps.append(lambda subset: 0)
        elif a.n > _TABLE_LIMIT:
            steps.append(m.apply)
        elif a.n - _PAYBACK <= 2:
            steps.append(image_table(m).__getitem__)
        else:
            steps.append(_rent(weakref.ref(steps), len(steps), m, 1 << a.n - _PAYBACK))
    idx = a.state_index
    steps.init = sum(1 << idx[q] for q in a.initial)
    steps.final = sum(1 << idx[q] for q in a.final)
    return steps


def _rent(steps: weakref.ref, k: int, m: BoolMatrix, price: int) -> Callable[[int], int]:
    """``m.apply``, counting its calls; the ``price``-th call puts the image table of ``m`` in ``steps()[k]``."""
    def step(subset: int) -> int:
        nonlocal price
        price -= 1
        if not price:
            steps()[k] = image_table(m).__getitem__
        return m.apply(subset)
    return step


def subset_construct(a: Fsa, max_states: int = DEFAULT_MAX_STATES) -> SubsetAutomaton:
    """Determinize by exploring accessible subsets with a LIFO stack.

    Popped subsets are expanded symbol by symbol in alphabet order; a subset is
    numbered by its insertion into ``index`` the first time it is seen, so two
    runs on the same input number alike, and gets its row when popped.
    Discovering more than ``max_states`` subsets raises BlowUpError rather
    than truncating.
    """
    _require("max_states", max_states, 1)
    return _construct(a, _subset_steps(a, a.alphabet, transition_matrices(a)), max_states)


def _construct(a: Fsa, steps: _Steps, max_states: int) -> SubsetAutomaton:
    index = {steps.init: 0}
    rows: list[tuple[int, ...]] = [()]
    stack = [steps.init]
    while stack:
        cur = stack.pop()
        row = []
        for step in steps:
            nxt = step(cur)
            j = index.get(nxt)
            if j is None:
                j = len(index)
                if j >= max_states:
                    raise BlowUpError(j, max_states)
                index[nxt] = j
                rows.append(())
                stack.append(nxt)
            row.append(j)
        rows[index[cur]] = tuple(row)
    subsets = tuple(index)
    return SubsetAutomaton(a, subsets, tuple(rows), tuple(bool(s & steps.final) for s in subsets))


def _named_dfa(alphabet: tuple[str, ...], names, rows, final_flags) -> Fsa:
    """The total DFA with state 0 initial whose state i is ``names[i]``, steps
    to ``rows[i][k]`` on ``alphabet[k]`` and is final iff ``final_flags[i]``."""
    trans = frozenset((names[i], sym, names[j]) for i, row in enumerate(rows) for sym, j in zip(alphabet, row))
    final = frozenset(name for name, f in zip(names, final_flags) if f)
    return Fsa(alphabet, tuple(names), frozenset({names[0]}), final, trans)


def subset_to_dfa(s: SubsetAutomaton) -> Fsa:
    """The subset automaton as an ``Fsa``: a total DFA with state 0 initial,
    named as in ``SubsetAutomaton.names``."""
    return _named_dfa(s.base.alphabet, s.names, s.transitions, s.final_flags)


def _refine(transitions, final_flags) -> list[int]:
    """Block of each state of a total DFA, two states sharing a block iff no
    word tells them apart; a block's id is its index among the blocks made.

    Hopcroft's algorithm (1971) on inverse transition lists: a pending splitter
    cuts every block holding states that step into it and states that do not.
    The smaller part of a cut block becomes a new block and a new splitter
    (the smaller-half rule: O(sigma n log n) in all)."""
    preds: list[list[list[int]]] = [[[] for _ in transitions] for _ in transitions[0]]
    for q, row in enumerate(transitions):
        for inverse, r in zip(preds, row):
            inverse[r].append(q)
    block_of = [int(final) for final in final_flags]
    blocks = [{q for q, b in enumerate(block_of) if not b}, {q for q, b in enumerate(block_of) if b}]
    pending = [int(len(blocks[1]) < len(blocks[0]))]
    while pending:
        splitter = tuple(blocks[pending.pop()])
        for inverse in preds:
            touched: dict[int, list[int]] = {}
            for r in splitter:
                for q in inverse[r]:
                    touched.setdefault(block_of[q], []).append(q)
            for b, hit in touched.items():
                members = blocks[b]
                if len(hit) == len(members):
                    continue
                part = set(hit)
                if 2 * len(part) > len(members):
                    part = members - part
                members -= part
                for q in part:
                    block_of[q] = len(blocks)
                pending.append(len(blocks))
                blocks.append(part)
    return block_of


def _minimal_table(rows, final_flags, start: int) -> tuple[list[str], list[list[int]], list[bool]] | None:
    """State names, successor rows (one entry per symbol) and final flags of
    the minimal DFA of the total DFA with successor ``rows``, ``final_flags``
    and initial state ``start``, numbered and named as in ``minimize``; None
    when that DFA is minimal already (every state reachable, none merged)."""
    block = _refine(rows, final_flags)
    member = dict(zip(block, range(len(block))))  # equivalent states: any one stands for its block
    order = [block[start]]  # the blocks reachable from the initial one, in breadth-first order
    number = {order[0]: 0}
    for b in order:
        for r in rows[member[b]]:
            if block[r] not in number:
                number[block[r]] = len(order)
                order.append(block[r])
    if len(order) == len(rows):
        return None
    reps = [member[b] for b in order]
    return [f"m{i}" for i in range(len(reps))], [[number[block[r]] for r in rows[q]] for q in reps], [final_flags[q] for q in reps]


def minimize(d: Fsa) -> Fsa:
    """Minimal total DFA for the same language, unique up to renaming.

    Raises ValueError unless ``d`` is a total DFA with one initial state.

    Merges indistinguishable states by partition refinement (``_refine``),
    then keeps the blocks reachable from the initial state; state ``m<i>`` is
    the i-th block met by a breadth-first search from the initial block, with
    successors in alphabet order. An automaton with no reachable accepting
    state collapses to the 1-state all-rejecting DFA. When the input is
    already minimal it is returned unchanged.
    """
    if not is_deterministic(d):
        raise ValueError("minimize needs a total DFA with one initial state")
    index = d.state_index
    column = {sym: k for k, sym in enumerate(d.alphabet)}
    rows = [[0] * len(column) for _ in d.states]
    for src, sym, dst in d.transitions:
        rows[index[src]][column[sym]] = index[dst]
    table = _minimal_table(rows, [q in d.final for q in d.states], index[next(iter(d.initial))])
    return d if table is None else _named_dfa(d.alphabet, *table)


def state_complexity(a: Fsa, max_states: int = DEFAULT_MAX_STATES) -> int:
    """Number of states of the minimal total DFA equivalent to ``a``."""
    s = subset_construct(a, max_states)
    return len(set(_refine(s.transitions, s.final_flags)))


def _shortest_word(alphabet: tuple[str, ...], sides: list[_Steps], is_witness: Callable, max_states: int) -> Word | None:
    """Breadth-first search over tuples of subsets, one per automaton, each
    stepped by its ``_Steps`` of ``sides`` from its ``init``, and tested by
    ``is_witness`` when discovered. Successors come in alphabet order, so the
    first witness found is reached by the shortlex-least witness word.
    Discovering more than ``max_states`` distinct tuples raises BlowUpError."""
    start = tuple(steps.init for steps in sides)
    if is_witness(start):
        return ()
    parent: dict[tuple[int, ...], tuple[tuple[int, ...], str] | None] = {start: None}
    known = 1  # len(parent): one dict operation per successor, since hashing a wide node costs
    queue = [start]
    for node in queue:
        successors = zip(*[[step(s) for step in steps] for s, steps in zip(node, sides)])
        for sym, nxt in zip(alphabet, successors):
            parent.setdefault(nxt, (node, sym))
            if len(parent) == known:
                continue
            if known >= max_states:
                raise BlowUpError(known, max_states)
            known += 1
            if is_witness(nxt):
                word = [sym]
                while parent[node] is not None:
                    node, sym = parent[node]
                    word.append(sym)
                return tuple(reversed(word))
            queue.append(nxt)
    return None


def distinguishing_word(a: Fsa, b: Fsa, max_states: int = DEFAULT_MAX_STATES) -> Word | None:
    """The shortlex-least word over the union alphabet accepted by exactly one
    of the two automata, or None when they are equivalent.

    The search runs over pairs of subsets and stops at the first witness;
    ``max_states`` bounds the distinct pairs it discovers.
    """
    _require("max_states", max_states, 1)
    union = tuple(dict.fromkeys(a.alphabet + b.alphabet))
    sides = [_subset_steps(x, union, transition_matrices(x)) for x in (a, b)]
    final_a, final_b = (steps.final for steps in sides)
    return _shortest_word(union, sides, lambda node: bool(node[0] & final_a) != bool(node[1] & final_b), max_states)


def equivalent(a: Fsa, b: Fsa, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff the two automata accept the same language."""
    return distinguishing_word(a, b, max_states) is None


def universality_witness(a: Fsa, max_states: int = DEFAULT_MAX_STATES) -> Word | None:
    """The shortlex-least rejected word, or None when the language is universal.

    A word is rejected iff the subset it reaches holds no final state; the
    empty subset, reached where transitions are missing, is one of those. The
    search runs over subsets and stops at the first witness; ``max_states``
    bounds the distinct subsets it discovers.
    """
    _require("max_states", max_states, 1)
    steps = _subset_steps(a, a.alphabet, transition_matrices(a))
    return _shortest_word(a.alphabet, [steps], lambda node: not node[0] & steps.final, max_states)


def is_universal(a: Fsa, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """True iff ``a`` accepts every word over its alphabet."""
    return universality_witness(a, max_states) is None


def check_brzozowski(a: Fsa) -> bool | None:
    """For a trim, co-deterministic automaton the subset construction yields
    the minimal DFA already; verify that by size comparison, under the default
    cap (it takes none). Returns None when the precondition does not hold."""
    if not (is_trim(a) and is_codeterministic(a)):
        return None
    s = subset_construct(a)
    return s.n == len(set(_refine(s.transitions, s.final_flags)))
