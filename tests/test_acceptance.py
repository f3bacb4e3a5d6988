"""Acceptance gate: every release criterion as one test, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

All corpora are seeded and deterministic; counts and tolerances are fixed
here, not configurable.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from detsize.boolmat import BoolMatrix, matrix_range, rank_gf2, transition_matrices
from detsize.bounds import (
    monoid_bound,
    monoid_closure,
    range_bound,
    subset_complexity,
    unary_monoid_bounds,
)
from detsize.determinize import (
    is_universal,
    minimize,
    state_complexity,
    subset_construct,
    subset_to_dfa,
)
from detsize.fsa import complete_with_dead_state
from detsize.generators import (
    gen_meyer_fischer,
    gen_mf_gadget,
    gen_modified_moore,
    gen_moore,
    gen_union_gadget,
)

from conftest import two_state_universal
from oracles import agree_on_all_words, nfa_accepts_by_sets, universal_by_enumeration


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


MONOID_CAP = 10_000


def test_c01_moore_blow_up():
    with criterion("01 moore determinization needs 2^n states, n=2..10, under 30s"):
        start = time.monotonic()
        for n in range(2, 11):
            assert state_complexity(gen_moore(n)) == 2**n, f"moore n={n}"
        assert time.monotonic() - start < 30.0


def test_c02_meyer_fischer_blow_up():
    with criterion("02 meyer-fischer determinization needs 2^n states, n=2..8"):
        for n in range(2, 9):
            assert state_complexity(gen_meyer_fischer(n)) == 2**n, f"meyer-fischer n={n}"


def test_c03_subset_complexity_soundness(random_nfas, family_nfas):
    with criterion("03 subset size <= subset complexity on 1000 random NFAs + families"):
        corpus = random_nfas + family_nfas
        assert len(random_nfas) >= 1000
        violations = []
        for i, a in enumerate(corpus):
            ss = subset_construct(a).n
            value, _ = subset_complexity(a, monoid_cap=MONOID_CAP)
            if ss > value:
                violations.append((i, ss, value))
        assert violations == []


def test_c04_monoid_and_range_soundness(random_nfas, family_nfas):
    with criterion("04 subset size <= monoid bound (uncapped) and <= range bound, zero violations"):
        violations = []
        for i, a in enumerate(random_nfas + family_nfas):
            ss = subset_construct(a).n
            mono = monoid_bound(a, cap=MONOID_CAP)
            if mono is not None and ss > mono:
                violations.append(("monoid", i, ss, mono))
            if ss > range_bound(a):
                violations.append(("range", i, ss, range_bound(a)))
        assert violations == []


def test_c05a_modified_moore_bound():
    with criterion("05a modified-moore subset complexity <= 3n^2+3n, n=3..12"):
        for n in range(3, 13):
            value, _ = subset_complexity(gen_modified_moore(n), monoid_cap=MONOID_CAP)
            assert value <= 3 * n * n + 3 * n, f"n={n}: {value}"


def test_c05b_modified_moore_witness():
    # |range(T_a)| = |range(T_b)| = 2^(n-1) and |range(T_c)| = 2, so the empty
    # split costs 1 + 2^(n-1) + 2^(n-1) + 2 = 2^n + 3. A word over {a,b} shifts
    # q2..qn by its length and, from q1, by the letters read after its first a,
    # so |M_{a,b}| = n(n-1)/2 + n + 1 = (n^2+n+2)/2 and split {a,b} costs
    # 3(n^2+n+2)/2. The empty split wins for n <= 5 (11 < 21, 19 < 33,
    # 35 < 48); from n = 6 on (66 < 67) {a,b} wins strictly.
    with criterion("05b modified-moore minimizing split is () for n<=5 and {a,b} from n=6, n=3..12"):
        for n in range(3, 13):
            value, split = subset_complexity(gen_modified_moore(n), monoid_cap=MONOID_CAP)
            empty_cost = 2**n + 3
            ab_cost = 3 * (n * n + n + 2) // 2
            assert ab_cost <= 3 * n * n + 3 * n, f"n={n}: {{a,b}} costs {ab_cost}"
            assert value == min(empty_cost, ab_cost), f"n={n}: {value}"
            expected = () if n <= 5 else ("a", "b")
            assert split == expected, f"n={n}: minimizing split is {split!r}"


def test_c05c_modified_moore_matrix_identities():
    with criterion("05c modified-moore matrix identities (a.b = a.a, nilpotence, stabilization)"):
        for n in range(3, 13):
            mats = transition_matrices(gen_modified_moore(n))
            ta, tb = mats["a"], mats["b"]
            assert ta.power(n) == BoolMatrix.zeros(n), f"n={n}: a-power not nilpotent"
            assert tb.power(n - 1) == tb.power(n), f"n={n}: b-powers do not stabilize"
            # x.multiply(y) reads x then y. From q1, ab reaches q3 while ba
            # reaches q2, so a and b do not commute
            assert ta.multiply(tb) != tb.multiply(ta), f"n={n}: a and b commute"
            # but once an a has been read, b acts like a; with the two identities
            # above every word over {a,b} reduces to b^j a^i, 0 <= j < n, 0 <= i <= n
            assert ta.multiply(tb) == ta.multiply(ta), f"n={n}: a.b != a.a"
            size = monoid_closure([ta, tb], dim=n).size
            assert size <= n * (n + 1), f"n={n}: |M_(a,b)| = {size}"


def test_c06_unary_monoid_sandwich(unary_nfas):
    with criterion("06 unary monoid size sandwiched by cyclicity bounds, 500 automata"):
        assert len(unary_nfas) >= 500
        for a in unary_nfas:
            lower, upper, exact = unary_monoid_bounds(a)
            assert lower <= exact <= upper


def test_c07_rank_lower_bounds_range():
    with criterion("07 GF(2) rank <= exact range size on 500 random matrices"):
        rng = random.Random(123)
        for _ in range(500):
            n = rng.randint(1, 8)
            density = rng.choice((0.15, 0.3, 0.5, 0.7))
            rows = tuple(
                sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
            )
            m = BoolMatrix(n, rows)
            assert rank_gf2(m) <= len(matrix_range(m))


def test_c08_codeterministic_subset_automaton_is_minimal(codeterministic_nfas):
    with criterion("08 trim co-deterministic inputs: subset automaton already minimal, 200 automata"):
        assert len(codeterministic_nfas) >= 200
        for a in codeterministic_nfas:
            s = subset_construct(a)
            assert s.n == minimize(subset_to_dfa(s)).n


def test_c09_mf_gadget_dichotomy():
    with criterion("09 conjoining gadget on a base with an initial state: +2 subset states if universal, >= 2^t otherwise"):
        universal_base = two_state_universal()
        non_universal_base = gen_moore(4)
        for t in (4, 6):
            base_ss = subset_construct(complete_with_dead_state(universal_base)).n
            assert subset_construct(gen_mf_gadget(universal_base, t)).n == base_ss + 2
            base_ss = subset_construct(complete_with_dead_state(non_universal_base)).n
            extra = subset_construct(gen_mf_gadget(non_universal_base, t)).n - base_ss
            assert extra >= 2**t, f"t={t}: only {extra} extra states"


def test_c10_union_gadget_dichotomy():
    with criterion("10 union gadget: state complexity 3 on a universal base, >= 2^n otherwise"):
        assert state_complexity(gen_union_gadget(two_state_universal())) == 3
        assert state_complexity(gen_union_gadget(gen_moore(4))) >= 16


def test_c11_universality_agrees_with_enumeration(total_nfas):
    with criterion("11 universality check agrees with exhaustive word enumeration, 300 automata"):
        assert len(total_nfas) >= 300
        for a in total_nfas:
            depth = subset_construct(complete_with_dead_state(a)).n
            assert is_universal(a) == universal_by_enumeration(a, depth)


def test_c12_language_preservation(
    random_nfas, unary_nfas, total_nfas, codeterministic_nfas, family_nfas
):
    with criterion("12 subset automaton agrees with its input on all short and 200 random words"):
        rng = random.Random(99)
        corpus = random_nfas + unary_nfas + total_nfas + codeterministic_nfas + family_nfas
        for a in corpus:
            s = subset_construct(a)
            disagreement = agree_on_all_words(a, s, 6)
            assert disagreement is None, f"words of length <= 6: {disagreement!r}"
            for _ in range(200):
                w = tuple(rng.choice(a.alphabet) for _ in range(rng.randint(7, 25)))
                assert s.accepts(w) == nfa_accepts_by_sets(a, w)


def test_c13_gadget_dichotomies_on_every_total_base(total_nfas):
    with criterion("13 union and conjoining gadget dichotomies on all 300 total NFAs; no initial state is refused"):
        refused = 0
        for i, base in enumerate(total_nfas):
            universal = is_universal(base)
            sc = state_complexity(gen_union_gadget(base))
            assert (sc == 3) if universal else (sc >= 2**base.n), f"total_nfas[{i}] union gadget: {sc}"
            if not base.initial:
                for t in (3, 5):
                    with pytest.raises(ValueError, match="initial state"):
                        gen_mf_gadget(base, t)
                refused += 1
                continue
            base_ss = subset_construct(complete_with_dead_state(base)).n
            for t in (3, 5):
                extra = subset_construct(gen_mf_gadget(base, t)).n - base_ss
                assert (extra == 2) if universal else (extra >= 2**t), f"total_nfas[{i}] t={t}: +{extra}"
        assert refused == 30
