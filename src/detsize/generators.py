"""Named automaton families, the two reduction gadgets built around them, and
seeded random NFAs for property testing."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .fsa import Fsa, _require, complete_with_dead_state, fresh_state_name, is_trim, reverse, trim

_RANDOM_RETRIES = 200

__all__ = [
    "gen_universal",
    "gen_moore",
    "gen_meyer_fischer",
    "gen_modified_moore",
    "gen_union_gadget",
    "gen_mf_gadget",
    "RandomNfaSpec",
    "gen_random",
]


def gen_universal() -> Fsa:
    """The 1-state DFA over {a, b} accepting every word: one state, both
    initial and final, with a self-loop on each symbol."""
    return Fsa(
        alphabet=("a", "b"),
        states=("q",),
        initial=frozenset({"q"}),
        final=frozenset({"q"}),
        transitions=frozenset({("q", "a", "q"), ("q", "b", "q")}),
    )


def gen_moore(n: int) -> Fsa:
    """The n-state family whose determinization needs exactly 2**n states:
    a b-loop on q1, a from q1 to q2, an a,b chain q2..qn, and two
    nondeterministic a-edges from qn back to q1 and q2."""
    _require("n", n, 2)
    states = tuple(f"q{i}" for i in range(1, n + 1))
    trans = {("q1", "b", "q1"), ("q1", "a", "q2")}
    for i in range(2, n):
        trans.add((f"q{i}", "a", f"q{i + 1}"))
        trans.add((f"q{i}", "b", f"q{i + 1}"))
    trans.add((f"q{n}", "a", "q1"))
    trans.add((f"q{n}", "a", "q2"))
    return Fsa(("a", "b"), states, frozenset({"q1"}), frozenset({f"q{n}"}), frozenset(trans))


def gen_meyer_fischer(n: int) -> Fsa:
    """The n-state family with a single initial-and-final state p1 and
    determinization size exactly 2**n: an a-cycle p1 -> p2 -> ... -> pn -> p1,
    a b-loop on every state except p1, and b-edges from every other state back
    to p1. p1 deliberately has no outgoing b, which is what makes the empty
    subset reachable and the full 2**n count attainable."""
    _require("n", n, 2)
    states = tuple(f"p{i}" for i in range(1, n + 1))
    trans = set()
    for i in range(1, n + 1):
        trans.add((f"p{i}", "a", f"p{i % n + 1}"))
    for i in range(2, n + 1):
        trans.add((f"p{i}", "b", f"p{i}"))
        trans.add((f"p{i}", "b", "p1"))
    return Fsa(("a", "b"), states, frozenset({"p1"}), frozenset({"p1"}), frozenset(trans))


def gen_modified_moore(n: int) -> Fsa:
    """gen_moore(n) with the two back edges from qn relabeled to a fresh
    symbol c, leaving a as a bare shift; over {a, b, c} the determinization
    becomes polynomial."""
    base = gen_moore(n)
    trans = set(base.transitions)
    trans.discard((f"q{n}", "a", "q1"))
    trans.discard((f"q{n}", "a", "q2"))
    trans.add((f"q{n}", "c", "q1"))
    trans.add((f"q{n}", "c", "q2"))
    return Fsa(("a", "b", "c"), base.states, base.initial, base.final, frozenset(trans))


def _require_ab(a: Fsa) -> None:
    if set(a.alphabet) != {"a", "b"}:
        raise ValueError("base automaton must be over the alphabet {a, b}")


def _fresh_names(bases: Iterable[str], taken: Iterable[str]) -> list[str]:
    """One fresh state name per base, in order, avoiding ``taken`` and each other."""
    taken = set(taken)
    names = []
    for base in bases:
        names.append(fresh_state_name(base, taken))
        taken.add(names[-1])
    return names


def gen_union_gadget(a: Fsa) -> Fsa:
    """Union of two #-concatenations with 2(n+1) states, n = |a|:
    a universal state chained by # into an n-state gen_moore copy, alongside
    ``a`` chained by # from each of its final states into a second universal
    state. Its language is then sigma* # L(moore) united with L(a) # sigma*,
    so the whole thing collapses to 3 states exactly when ``a`` is universal.
    """
    _require_ab(a)
    moore = gen_moore(a.n)
    u1, u2, *m = _fresh_names(["u1", "u2"] + [f"m{q[1:]}" for q in moore.states], a.states)
    m_names = dict(zip(moore.states, m))

    states = (u1,) + tuple(m_names[q] for q in moore.states) + a.states + (u2,)
    trans = {(u1, "a", u1), (u1, "b", u1), (u2, "a", u2), (u2, "b", u2)}
    trans.add((u1, "#", m_names["q1"]))
    trans.update((m_names[s], sym, m_names[d]) for s, sym, d in moore.transitions)
    trans.update(a.transitions)
    trans.update((q, "#", u2) for q in a.final)
    initial = frozenset({u1}) | a.initial
    final = frozenset({m_names[f"q{a.n}"], u2})
    return Fsa(("a", "b", "#"), states, initial, final, frozenset(trans))


def gen_mf_gadget(a: Fsa, t: int) -> Fsa:
    """Conjoin ``a`` (completed with a dead state) with a t-state
    gen_meyer_fischer copy: every non-final state of the completed base,
    including the dead state, gets a #-edge to p1, and every final state gets
    #-edges to all t states. p1 stops being initial but stays final. A base
    without an initial state is refused (ValueError): the gadget would then
    accept nothing and add no subset state, not the 2**t of a non-universal base."""
    _require_ab(a)
    if not a.initial:
        raise ValueError("base automaton must have an initial state")
    _require("t", t, 2)
    base = complete_with_dead_state(a)
    mf = gen_meyer_fischer(t)
    p_names = dict(zip(mf.states, _fresh_names(mf.states, base.states)))

    states = base.states + tuple(p_names[q] for q in mf.states)
    trans = set(base.transitions)
    trans.update((p_names[s], sym, p_names[d]) for s, sym, d in mf.transitions)
    p1 = p_names["p1"]
    for q in base.states:
        if q in base.final:
            trans.update((q, "#", p_names[p]) for p in mf.states)
        else:
            trans.add((q, "#", p1))
    final = base.final | {p1}
    return Fsa(("a", "b", "#"), states, base.initial, final, frozenset(trans))


@dataclass(frozen=True)
class RandomNfaSpec:
    """Parameters for seeded random automata; the output is a deterministic
    function of the spec."""

    n: int
    alphabet_size: int = 2
    density: float = 0.3
    initial_density: float = 0.5
    final_density: float = 0.5
    seed: int = 0
    force_trim: bool = False
    force_total: bool = False
    force_codeterministic: bool = False

    def __post_init__(self):
        _require("n", self.n, 1)
        _require("alphabet_size", self.alphabet_size, 1, 26)
        for name in ("density", "initial_density", "final_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def _random_codeterministic(spec: RandomNfaSpec, alphabet: tuple[str, ...]) -> Fsa:
    # reverse of a random trim total DFA: trim and co-deterministic by construction
    rng = random.Random(spec.seed)
    states = tuple(f"s{i}" for i in range(spec.n))
    for _ in range(_RANDOM_RETRIES):
        trans = frozenset(
            (q, sym, states[rng.randrange(spec.n)]) for q in states for sym in alphabet
        )
        final = frozenset(q for q in states if rng.random() < spec.final_density)
        if not final:
            continue
        dfa = Fsa(alphabet, states, frozenset({states[0]}), final, trans)
        if is_trim(dfa):
            return reverse(dfa)
    raise ValueError("retries exhausted generating a trim co-deterministic automaton")


def gen_random(spec: RandomNfaSpec) -> Fsa:
    """Seeded random NFA: every potential transition is included independently
    with the spec's density, and each state is independently initial or final
    with the corresponding density. Flags post-process the sample; forcing
    trim resamples (bounded) until the trimmed automaton is nonempty. Raises
    ValueError when the trim or co-deterministic retries run out."""
    alphabet = tuple(chr(ord("a") + k) for k in range(spec.alphabet_size))
    if spec.force_codeterministic:
        return _random_codeterministic(spec, alphabet)

    rng = random.Random(spec.seed)
    states = tuple(f"s{i}" for i in range(spec.n))
    for _ in range(_RANDOM_RETRIES):
        trans = frozenset(
            (q, sym, r)
            for q in states
            for sym in alphabet
            for r in states
            if rng.random() < spec.density
        )
        initial = frozenset(q for q in states if rng.random() < spec.initial_density)
        final = frozenset(q for q in states if rng.random() < spec.final_density)
        result = Fsa(alphabet, states, initial, final, trans)
        if spec.force_trim:
            result = trim(result)
        if result.states:
            break
    else:
        raise ValueError("retries exhausted: the sampled language stayed empty")
    if spec.force_total:
        result = complete_with_dead_state(result)
    return result
