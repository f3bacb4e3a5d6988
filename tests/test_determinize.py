from __future__ import annotations

import random

import pytest

from detsize.boolmat import _bits, image_table
from detsize.determinize import (
    _TABLE_LIMIT,
    BlowUpError,
    SubsetAutomaton,
    check_brzozowski,
    distinguishing_word,
    equivalent,
    is_universal,
    minimize,
    state_complexity,
    subset_construct,
    subset_to_dfa,
    universality_witness,
)
from detsize.fsa import (
    EPSILON,
    Fsa,
    accepts,
    is_deterministic,
    parse_fsa,
    remove_epsilon,
    reverse,
    serialize_fsa,
    trim,
)
from detsize.generators import (
    RandomNfaSpec,
    gen_meyer_fischer,
    gen_moore,
    gen_random,
    gen_universal,
)

from conftest import two_state_universal
from oracles import accessible_subsets, nfa_accepts_by_sets, words_upto


def random_fsa(seed: int, *, n: int = 5, sigma: int = 2, density: float = 0.3) -> Fsa:
    return gen_random(RandomNfaSpec(n=n, alphabet_size=sigma, density=density, seed=seed))


def universal_moore(n: int) -> Fsa:
    """Moore's automaton made total by a b-edge from its last state back to q1,
    with every state final: universal, with more than 2**(n-1) subsets."""
    m = gen_moore(n)
    return Fsa(m.alphabet, m.states, m.initial, frozenset(m.states), m.transitions | {(f"q{n}", "b", "q1")})


def relabel(a: Fsa, rename: dict[str, str]) -> Fsa:
    """``a`` with each symbol renamed through ``rename`` (the others kept)."""
    trans = frozenset((p, rename.get(sym, sym), q) for p, sym, q in a.transitions)
    return Fsa(tuple(rename.get(sym, sym) for sym in a.alphabet), a.states, a.initial, a.final, trans)


def first_word(alphabet, max_len, predicate):
    """The shortlex-least word of length at most ``max_len`` satisfying ``predicate``."""
    return next((w for w in words_upto(alphabet, max_len) if predicate(w)), None)


class TestSubsetConstruct:
    def test_dfa_input_keeps_state_count(self):
        d = subset_to_dfa(subset_construct(random_fsa(0)))
        again = subset_construct(d)
        assert again.n == d.n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_moore_reaches_all_subsets(self, n):
        assert subset_construct(gen_moore(n)).n == 2**n

    @pytest.mark.parametrize("seed", range(20))
    def test_state_set_matches_powerset_filter_oracle(self, seed):
        a = random_fsa(seed, n=6)
        s = subset_construct(a)
        expected = accessible_subsets(a)
        # base names here hold no comma, so each name splits back into its subset
        got = {frozenset(name.partition("=")[2].split(",")) - {""} for name in s.names}
        assert got == expected

    def test_meyer_fischer3_counts(self):
        a = gen_meyer_fischer(3)
        s = subset_construct(a)
        assert s.n == len(accessible_subsets(a)) == 8
        assert minimize(subset_to_dfa(s)).n == 8

    def test_lifo_discovery_order_moore2(self):
        # hand-traced: pop {q1} pushing {q2}; pop {q2} pushing {q1,q2} then
        # the empty subset, which is popped first
        s = subset_construct(gen_moore(2))
        assert s.names == ("S0=q1", "S1=q2", "S2=q1,q2", "S3=")
        assert s.transitions == ((1, 0), (2, 3), (2, 0), (3, 3))
        assert s.final_flags == (False, True, True, False)

    def test_empty_subset_is_an_ordinary_state(self):
        a = Fsa.make([("q0", "a", "q0")], ["q0"], ["q0"], alphabet=["a", "b"])
        s = subset_construct(a)
        assert s.n == 2
        assert 0 in s.subsets

    def test_empty_initial_set(self):
        a = Fsa.make([("q0", "a", "q0")], [], ["q0"])
        s = subset_construct(a)
        assert s.n == 1
        assert s.final_flags == (False,)

    def test_blow_up_abort(self):
        with pytest.raises(BlowUpError) as info:
            subset_construct(gen_moore(12), max_states=100)
        assert info.value.states_found == 100
        assert info.value.max_states == 100

    def test_deterministic_across_runs(self):
        a = random_fsa(5)
        s1, s2 = subset_construct(a), subset_construct(a)
        assert s1.subsets == s2.subsets
        assert s1.transitions == s2.transitions

    @pytest.mark.parametrize("seed", range(10))
    def test_powerset_ceiling(self, seed):
        a = random_fsa(seed, n=6)
        assert subset_construct(a).n <= 2**a.n

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved(self, seed):
        a = random_fsa(seed, n=5, sigma=2)
        s = subset_construct(a)
        for w in words_upto(a.alphabet, 6):
            assert s.accepts(w) == nfa_accepts_by_sets(a, w)

    def test_unknown_symbol_raises_like_fsa_accepts(self):
        a = gen_moore(3)
        for run in (subset_construct(a).accepts, lambda w: accepts(a, w)):
            with pytest.raises(ValueError, match=r"^symbol 'z' not in alphabet$"):
                run(("a", "z"))


class TestSubsetToDfa:
    def test_single_state(self):
        d = subset_to_dfa(subset_construct(gen_universal()))
        assert d.n == 1
        assert is_deterministic(d)

    def test_moore3_gives_eight_states(self):
        assert subset_to_dfa(subset_construct(gen_moore(3))).n == 8

    def test_names_encode_subsets(self):
        d = subset_to_dfa(subset_construct(gen_moore(2)))
        assert d.states == ("S0=q1", "S1=q2", "S2=q1,q2", "S3=")

    def test_names_match_bit_by_bit_oracle(self):
        n = 70
        rng = random.Random(70)
        base = Fsa(states=tuple(f"p{i}" for i in range(n)))
        masks = [0, 1, (1 << n) - 1, 1 << (n - 1)]
        masks += [sum(1 << k for k in rng.sample(range(n), rng.randint(1, 6))) for _ in range(200)]
        s = SubsetAutomaton(base, tuple(masks), ((),) * len(masks), (False,) * len(masks))
        want = tuple(f"S{i}=" + ",".join(base.states[k] for k in _bits(m)) for i, m in enumerate(masks))
        assert s.names == want

    def test_names_read_digits_over_the_span_only(self, monkeypatch):
        # a name costs its subset's span (highest member - lowest + 1), not the
        # base's size: singletons of a wide base read one digit each
        n = 20_000
        base = Fsa(states=tuple(f"p{i}" for i in range(n)))
        masks = [0, 1, 1 << (n - 1), 0b1011 << 9_000] + [1 << k for k in range(0, n, 7)]
        s = SubsetAutomaton(base, tuple(masks), ((),) * len(masks), (False,) * len(masks))
        read = []

        def counting_bin(x: int) -> str:
            read.append(x.bit_length())
            return bin(x)

        monkeypatch.setattr("detsize.determinize.bin", counting_bin, raising=False)
        names = s.names
        spans = [m.bit_length() - (m & -m).bit_length() + 1 if m else 1 for m in masks]
        assert len(read) == len(masks)
        assert [r for r, span in zip(read, spans) if r > span] == []
        assert names[:4] == ("S0=", "S1=p0", f"S2=p{n - 1}", "S3=p9000,p9001,p9003")
        assert names[4 + 100] == "S104=p700"

    def test_serializes_and_parses(self):
        d = subset_to_dfa(subset_construct(gen_moore(3)))
        assert parse_fsa(serialize_fsa(d)) == d

    def test_acceptance_preserved_on_random_words(self):
        rng = random.Random(0)
        a = random_fsa(9)
        d = subset_to_dfa(subset_construct(a))
        for _ in range(100):
            w = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(0, 12)))
            assert accepts(d, w) == nfa_accepts_by_sets(a, w)


class TestMinimize:
    def test_universal_already_minimal(self):
        d = Fsa(("a", "b"), ("q",), frozenset({"q"}), frozenset({"q"}),
                frozenset({("q", "a", "q"), ("q", "b", "q")}))
        assert minimize(d) is d

    def test_unreachable_state_dropped_from_minimal_part(self):
        # the reachable part is minimal already, but z is not reachable
        loops = {(q, sym, q) for q in ("q", "z") for sym in ("a", "b")}
        d = Fsa(("a", "b"), ("z", "q"), frozenset({"q"}), frozenset({"q"}), frozenset(loops))
        m = minimize(d)
        assert m.states == ("m0",)
        assert m.transitions == {("m0", "a", "m0"), ("m0", "b", "m0")}

    @pytest.mark.parametrize(
        "transitions",
        [
            [("p", "a", "p"), ("p", "a", "q"), ("q", "a", "q")],
            [("p", "a", "q")],
            [("p", "a", "p"), ("p", EPSILON, "q"), ("q", "a", "q")],
        ],
        ids=["nondeterministic", "partial", "epsilon"],
    )
    def test_rejects_input_that_is_not_a_total_dfa(self, transitions):
        d = Fsa.make(transitions, ["p"], ["q"], alphabet=["a"])
        with pytest.raises(ValueError):
            minimize(d)

    def test_no_final_states_collapse_to_one(self):
        a = random_fsa(3)
        a = Fsa(a.alphabet, a.states, a.initial, frozenset(), a.transitions)
        assert state_complexity(a) == 1

    def test_moore5(self):
        assert minimize(subset_to_dfa(subset_construct(gen_moore(5)))).n == 32

    @pytest.mark.parametrize("seed", range(20))
    def test_never_grows_and_idempotent(self, seed):
        d = subset_to_dfa(subset_construct(random_fsa(seed)))
        m = minimize(d)
        assert m.n <= d.n
        assert minimize(m) is m

    @pytest.mark.parametrize("seed", range(15))
    def test_language_preserved(self, seed):
        a = random_fsa(seed, n=4)
        d = subset_to_dfa(subset_construct(a))
        m = minimize(d)
        for w in words_upto(a.alphabet, 6):
            assert accepts(m, w) == nfa_accepts_by_sets(a, w)

    def test_result_is_total_dfa(self):
        m = minimize(subset_to_dfa(subset_construct(random_fsa(21))))
        assert is_deterministic(m)

    @pytest.mark.parametrize("seed", range(60))
    def test_size_matches_distinguishability_oracle(self, seed):
        # count equivalence classes among reachable states by searching each
        # pair for a finality mismatch over successor pairs
        d = subset_to_dfa(
            subset_construct(random_fsa(seed, n=2 + seed % 5, sigma=1 + seed % 2))
        )
        succ = {(s, y): t for s, y, t in d.transitions}
        start = next(iter(d.initial))
        reach = [start]
        for q in reach:
            for y in d.alphabet:
                if succ[(q, y)] not in reach:
                    reach.append(succ[(q, y)])

        def distinguishable(p, q):
            queue = [(p, q)]
            visited = {(p, q)}
            while queue:
                u, v = queue.pop()
                if (u in d.final) != (v in d.final):
                    return True
                for y in d.alphabet:
                    nxt = (succ[(u, y)], succ[(v, y)])
                    if nxt not in visited:
                        visited.add(nxt)
                        queue.append(nxt)
            return False

        classes: list[str] = []
        for q in reach:
            if all(distinguishable(q, rep) for rep in classes):
                classes.append(q)
        assert minimize(d).n == len(classes)


class TestStateComplexity:
    def test_universal_is_one(self):
        assert state_complexity(gen_universal()) == 1

    def test_meyer_fischer4(self):
        assert state_complexity(gen_meyer_fischer(4)) == 16

    def test_propagates_blow_up(self):
        with pytest.raises(BlowUpError):
            state_complexity(gen_moore(15), max_states=50)


class TestEquivalent:
    def test_reflexive(self):
        a = random_fsa(2)
        assert equivalent(a, a)

    @pytest.mark.parametrize("seed", range(10))
    def test_epsilon_variant(self, seed):
        a = random_fsa(seed)
        # pad one transition with an intermediate epsilon hop
        trans = sorted(a.transitions)
        if not trans:
            pytest.skip("empty transition set")
        src, sym, dst = trans[0]
        mid = "pad0"
        padded = Fsa(
            a.alphabet,
            a.states + (mid,),
            a.initial,
            a.final,
            (a.transitions - {(src, sym, dst)}) | {(src, sym, mid), (mid, EPSILON, dst)},
        )
        assert equivalent(a, remove_epsilon(padded))

    def test_moore_vs_universal_with_witness(self):
        a, u = gen_moore(3), gen_universal()
        w = distinguishing_word(a, u)
        assert w is not None
        assert accepts(a, w) != accepts(u, w)
        assert not equivalent(a, u)

    def test_witness_found_before_cap(self):
        # the empty word tells them apart, so no subset beyond the start is needed
        assert distinguishing_word(gen_moore(20), gen_universal(), max_states=10) == ()

    def test_cap_fires_without_witness(self):
        a = universal_moore(12)
        with pytest.raises(BlowUpError) as info:
            equivalent(a, a, max_states=100)
        assert info.value.states_found == info.value.max_states == 100

    def test_cap_counts_pairs(self):
        # Moore 6 against its minimal DFA: 64 subsets on each side, 64 pairs
        a = gen_moore(6)
        d = minimize(subset_to_dfa(subset_construct(a)))
        assert equivalent(a, d, max_states=64)
        with pytest.raises(BlowUpError):
            equivalent(a, d, max_states=63)

    def test_cap_counts_pairs_beyond_either_side(self):
        # all-accepting cycles of 2 and 3 states over {a}: 3 subsets at most
        # on either side, but 6 pairs, since 2 and 3 are coprime
        def cycle(k):
            names = [f"c{i}" for i in range(k)]
            return Fsa.make([(names[i], "a", names[(i + 1) % k]) for i in range(k)], names[:1], names)

        assert equivalent(cycle(2), cycle(3), max_states=6)
        with pytest.raises(BlowUpError) as info:
            equivalent(cycle(2), cycle(3), max_states=3)
        assert info.value.states_found == info.value.max_states == 3

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            distinguishing_word(gen_moore(3), gen_moore(3), max_states=0)

    @pytest.mark.parametrize("seed", range(30))
    def test_witness_is_shortlex_least(self, seed):
        a, b = random_fsa(seed, n=3), random_fsa(seed + 100, n=3)
        w = distinguishing_word(a, b)
        first = first_word(a.alphabet, 6, lambda x: nfa_accepts_by_sets(a, x) != nfa_accepts_by_sets(b, x))
        if first is not None:
            assert w == first
        else:
            assert w is None or len(w) > 6

    def test_distinct_alphabets_use_union(self):
        a = Fsa.make([("q0", "a", "q0")], ["q0"], ["q0"])
        b = Fsa.make([("q0", "b", "q0")], ["q0"], ["q0"])
        assert distinguishing_word(a, b) == ("a",)
        assert distinguishing_word(b, a) == ("b",)

    @pytest.mark.parametrize("seed", range(40))
    def test_overlapping_alphabets_witness_is_shortlex_least(self, seed):
        # {a, b} against {b, c}: each side lacks one symbol of the union (a, b, c);
        # b is the first later seed that agrees with a on the empty word, so
        # the witness, if any, uses symbols
        a = random_fsa(seed, n=4, density=0.4)
        for other in range(seed + 500, seed + 600):
            b = relabel(random_fsa(other, n=4, density=0.4), {"a": "b", "b": "c"})
            if bool(a.initial & a.final) == bool(b.initial & b.final):
                break
        assert (a.alphabet, b.alphabet) == (("a", "b"), ("b", "c"))
        assert bool(a.initial & a.final) == bool(b.initial & b.final)
        w = distinguishing_word(a, b)
        first = first_word(("a", "b", "c"), 5, lambda x: nfa_accepts_by_sets(a, x) != nfa_accepts_by_sets(b, x))
        if first is not None:
            assert w == first
        else:
            assert w is None or len(w) > 5

    def test_missing_symbol_above_table_limit(self):
        # 17 states, so the search steps through BoolMatrix.apply, not image tables
        chain = Fsa.make([(f"q{i}", "a", f"q{i + 1}") for i in range(16)], ["q0"], [f"q{i}" for i in range(17)])
        loop = Fsa.make([("p", "a", "p"), ("p", "c", "p")], ["p"], ["p"])
        assert chain.n > _TABLE_LIMIT
        assert distinguishing_word(chain, loop) == ("c",)
        assert distinguishing_word(loop, chain) == ("c",)

    def test_missing_symbols_build_no_table(self, monkeypatch):
        # Moore 16 has symbols a and b, the one-state b has c, d and e: of the
        # union's five symbols, each side builds a table only for its own
        built = []

        def counting(m):
            built.append(m.n)
            return image_table(m)

        monkeypatch.setattr("detsize.determinize.image_table", counting)
        b = Fsa.make([("p", sym, "p") for sym in "cde"], ["p"], ["p"])
        assert distinguishing_word(gen_moore(16), b) == ()
        assert sorted(built) == [1, 1, 1, 16, 16]

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_word_enumeration(self, seed):
        a, b = random_fsa(seed, n=3), random_fsa(seed + 100, n=3)
        same = all(
            nfa_accepts_by_sets(a, w) == nfa_accepts_by_sets(b, w)
            for w in words_upto(a.alphabet, 7)
        )
        # length 7 enumeration is decisive here: the product of the two
        # subset automata has at most 2^3 * 2^3 = 64 states but equivalence
        # failures on these instances show up within short words
        if equivalent(a, b):
            assert same
        else:
            w = distinguishing_word(a, b)
            assert nfa_accepts_by_sets(a, w) != nfa_accepts_by_sets(b, w)


class TestUniversal:
    def test_universal_dfa(self):
        assert is_universal(gen_universal())
        assert is_universal(two_state_universal())

    def test_all_final_total_automaton(self):
        a = Fsa.make(
            [("q0", "a", "q1"), ("q0", "b", "q0"), ("q1", "a", "q0"), ("q1", "b", "q1")],
            ["q0"],
            ["q0", "q1"],
        )
        assert is_universal(a)

    def test_moore3_not_universal_with_checked_witness(self):
        a = gen_moore(3)
        w = universality_witness(a)
        assert w is not None
        assert not accepts(a, w)

    def test_empty_language(self):
        a = Fsa.make([("q0", "a", "q0")], ["q0"], [])
        assert not is_universal(a)

    def test_moore24_witness_found_before_cap(self):
        # the full subset automaton has 2**24 states; the empty word is rejected
        assert universality_witness(gen_moore(24), max_states=2**18) == ()

    def test_cap_fires_without_witness(self):
        with pytest.raises(BlowUpError) as info:
            is_universal(universal_moore(12), max_states=100)
        assert info.value.states_found == info.value.max_states == 100

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            universality_witness(gen_moore(3), max_states=0)

    def test_missing_transitions_reach_the_empty_subset(self):
        a = Fsa.make([("q0", "a", "q0")], ["q0"], ["q0"], alphabet=["a", "b"])
        assert universality_witness(a) == ("b",)

    @pytest.mark.parametrize("seed", range(30))
    def test_witness_is_shortlex_least(self, seed):
        a = random_fsa(seed, n=3, density=0.5)
        first = first_word(a.alphabet, 8, lambda x: not nfa_accepts_by_sets(a, x))
        # three states give at most 8 subsets, so a rejected word, if any, has length below 8
        assert universality_witness(a) == first

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_enumeration(self, seed):
        from detsize.fsa import complete_with_dead_state
        from oracles import universal_by_enumeration

        a = gen_random(
            RandomNfaSpec(n=2 + seed % 4, alphabet_size=2, density=0.5, seed=seed, force_total=True)
        )
        k = subset_construct(complete_with_dead_state(a)).n
        assert is_universal(a) == universal_by_enumeration(a, k)


class TestBrzozowski:
    def test_reverse_of_random_trim_dfa(self):
        for seed in range(20):
            a = gen_random(RandomNfaSpec(n=2 + seed % 6, seed=seed, force_codeterministic=True))
            assert check_brzozowski(a) is True

    def test_universal_dfa_applies(self):
        assert check_brzozowski(gen_universal()) is True

    def test_moore_not_applicable(self):
        assert check_brzozowski(gen_moore(3)) is None

    def test_non_trim_not_applicable(self):
        a = Fsa.make([("q0", "a", "q1")], ["q0"], [], alphabet=["a"])
        assert check_brzozowski(a) is None

    def test_trim_then_reverse_feeds_brzozowski(self):
        d = subset_to_dfa(subset_construct(gen_moore(3)))
        t = trim(d)
        r = reverse(t)
        result = check_brzozowski(r)
        assert result is None or result is True
