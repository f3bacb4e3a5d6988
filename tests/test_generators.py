from __future__ import annotations

import pytest

from detsize.boolmat import BoolMatrix, matrix_range, rank_gf2, transition_matrices
from detsize.determinize import (
    is_universal,
    state_complexity,
    subset_construct,
)
from detsize.fsa import (
    Fsa,
    accepts,
    complete_with_dead_state,
    is_codeterministic,
    is_deterministic,
    is_total,
    parse_fsa,
    serialize_fsa,
)
from detsize.generators import (
    RandomNfaSpec,
    gen_meyer_fischer,
    gen_mf_gadget,
    gen_modified_moore,
    gen_moore,
    gen_random,
    gen_union_gadget,
    gen_universal,
)

from conftest import build_families, two_state_universal
from oracles import fsa_equal_up_to_state_order, words_upto


class TestUniversal:
    def test_exact_shape(self):
        u = gen_universal()
        assert u.n == 1
        assert len(u.transitions) == 2
        assert u.initial == u.final == frozenset({"q"})

    def test_is_universal(self):
        assert is_universal(gen_universal())

    def test_state_complexity_one(self):
        assert state_complexity(gen_universal()) == 1


class TestMoore:
    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            gen_moore(1)

    def test_n2_shape(self):
        a = gen_moore(2)
        assert a.n == 2
        # two a-successors out of q2
        assert {(s, d) for s, sym, d in a.transitions if sym == "a" and s == "q2"} == {
            ("q2", "q1"),
            ("q2", "q2"),
        }
        assert not is_deterministic(a)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_blow_up(self, n):
        assert state_complexity(gen_moore(n)) == 2**n


class TestMeyerFischer:
    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            gen_meyer_fischer(1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_every_state_has_incoming_a_and_b(self, n):
        a = gen_meyer_fischer(n)
        for q in a.states:
            assert any(d == q for _, sym, d in a.transitions if sym == "a")
            assert any(d == q for _, sym, d in a.transitions if sym == "b")

    @pytest.mark.parametrize("n", range(2, 7))
    def test_blow_up(self, n):
        assert state_complexity(gen_meyer_fischer(n)) == 2**n

    def test_single_initial_and_final(self):
        a = gen_meyer_fischer(4)
        assert a.initial == a.final == frozenset({"p1"})

    def test_accepted_words_admit_a_split(self):
        # every accepted word decomposes as x y with x empty or ending in b
        # and the a-count of y divisible by n
        n = 3
        a = gen_meyer_fischer(n)

        def has_split(w: tuple[str, ...]) -> bool:
            return any(
                (k == 0 or w[k - 1] == "b") and w[k:].count("a") % n == 0
                for k in range(len(w) + 1)
            )

        for w in words_upto(("a", "b"), 8):
            if accepts(a, w):
                assert has_split(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_full_subset_is_closed_under_all_symbols(self, n):
        # once the subset construction reaches {p1..pn} it never leaves it
        a = gen_meyer_fischer(n)
        s = subset_construct(a)
        full = (1 << n) - 1
        assert full in s.subsets
        i = s.subsets.index(full)
        assert all(s.subsets[j] == full for j in s.transitions[i])


class TestModifiedMoore:
    def test_alphabet_and_relabeled_edges(self):
        a = gen_modified_moore(4)
        assert a.alphabet == ("a", "b", "c")
        assert ("q4", "c", "q1") in a.transitions
        assert ("q4", "c", "q2") in a.transitions
        assert ("q4", "a", "q1") not in a.transitions

    def test_c_matrix_is_rank_one_with_two_entries(self):
        a = gen_modified_moore(5)
        c = transition_matrices(a)["c"]
        assert sum(bin(r).count("1") for r in c.rows) == 2
        assert c.rows[4] != 0
        assert rank_gf2(c) == 1
        assert len(matrix_range(c)) == 2

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_shift_nilpotent_and_b_power_stabilizes(self, n):
        mats = transition_matrices(gen_modified_moore(n))
        ta, tb = mats["a"], mats["b"]
        assert ta.power(n) == BoolMatrix.zeros(n)
        assert ta.power(n - 1) != BoolMatrix.zeros(n)
        assert tb.power(n - 1) == tb.power(n)
        assert tb.power(n - 2) != tb.power(n - 1)


class TestUnionGadget:
    def test_state_count(self):
        base = two_state_universal()
        assert gen_union_gadget(base).n == 2 * (base.n + 1)
        m4 = gen_moore(4)
        assert gen_union_gadget(m4).n == 2 * (m4.n + 1)

    def test_universal_base_collapses_to_three(self):
        assert state_complexity(gen_union_gadget(two_state_universal())) == 3

    def test_non_universal_base_blows_up(self):
        assert state_complexity(gen_union_gadget(gen_moore(4))) >= 2**4

    def test_wrong_alphabet_rejected(self):
        bad = Fsa.make([("q0", "x", "q0")], ["q0"], ["q0"])
        with pytest.raises(ValueError):
            gen_union_gadget(bad)


class TestMfGadget:
    def test_universal_base_adds_exactly_two(self):
        base = two_state_universal()
        g = gen_mf_gadget(base, 4)
        assert subset_construct(g).n == subset_construct(complete_with_dead_state(base)).n + 2

    def test_non_universal_base_adds_exponentially(self):
        base = gen_moore(4)
        t = 4
        extra = (
            subset_construct(gen_mf_gadget(base, t)).n
            - subset_construct(complete_with_dead_state(base)).n
        )
        assert extra >= 2**t

    def test_full_tail_subset_stays_inside_tail_or_dies(self):
        g = gen_mf_gadget(gen_moore(3), 4)
        s = subset_construct(g)
        tail_mask = 0
        for i, q in enumerate(g.states):
            if q.startswith("p"):
                tail_mask |= 1 << i
        assert tail_mask in s.subsets
        i = s.subsets.index(tail_mask)
        for j in s.transitions[i]:
            assert s.subsets[j] in (tail_mask, 0)

    def test_requires_t_at_least_two(self):
        with pytest.raises(ValueError):
            gen_mf_gadget(two_state_universal(), 1)

    def test_tail_keeps_final_but_not_initial(self):
        base = gen_moore(3)
        g = gen_mf_gadget(base, 4)
        assert g.initial == base.initial
        assert "p1" in g.final


class TestRandom:
    def test_same_seed_same_output(self):
        spec = RandomNfaSpec(n=5, alphabet_size=2, density=0.3, seed=7)
        assert gen_random(spec) == gen_random(spec)

    def test_different_seeds_differ_somewhere(self):
        outs = {gen_random(RandomNfaSpec(n=5, seed=s)) for s in range(10)}
        assert len(outs) > 1

    def test_codeterministic_flag(self):
        for seed in range(15):
            a = gen_random(RandomNfaSpec(n=4, seed=seed, force_codeterministic=True))
            assert is_codeterministic(a)

    def test_density_zero_with_total_routes_everything_to_sink(self):
        a = gen_random(RandomNfaSpec(n=3, density=0.0, seed=1, force_total=True))
        assert is_total(a)
        sink = a.states[-1]
        assert all(dst == sink for _, _, dst in a.transitions)

    def test_trim_flag_yields_trim_nonempty(self):
        from detsize.fsa import is_trim

        for seed in range(10):
            a = gen_random(RandomNfaSpec(n=5, density=0.3, seed=seed, force_trim=True))
            assert a.states
            assert is_trim(a)

    @pytest.mark.parametrize("flag", ["force_trim", "force_codeterministic"])
    def test_retries_exhausted_raise_value_error(self, flag):
        with pytest.raises(ValueError, match="retries exhausted"):
            gen_random(RandomNfaSpec(n=3, final_density=0.0, **{flag: True}))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RandomNfaSpec(n=0)
        with pytest.raises(ValueError):
            RandomNfaSpec(n=3, density=1.5)


class TestEveryGeneratorOutput:
    def test_invariants_and_lossless_serialization(self):
        for a in build_families():
            # construction succeeded, so invariants hold; round-trip the text form
            b = parse_fsa(serialize_fsa(a))
            assert fsa_equal_up_to_state_order(a, b)

    def test_exact_round_trip_for_plain_families(self):
        # gadget "#"-edges sort ahead of a/b lines, so their parse order is a
        # permutation of construction order; the plain families round-trip exactly
        plain = [gen_universal(), two_state_universal()]
        plain += [gen_moore(n) for n in range(2, 7)]
        plain += [gen_meyer_fischer(n) for n in range(2, 7)]
        plain += [gen_modified_moore(n) for n in range(2, 7)]
        for a in plain:
            assert parse_fsa(serialize_fsa(a)) == a
