from __future__ import annotations

import random

import pytest

from detsize.boolmat import BoolMatrix, RangeCapExceeded, transition_matrices
from detsize.bounds import (
    all_but_one_bound,
    full_report,
    monoid_bound,
    monoid_closure,
    range_bound,
    render_report_text,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
    subset_complexity,
    unary_monoid_bounds,
)
from detsize.determinize import subset_construct
from detsize.fsa import Fsa
from detsize.generators import (
    RandomNfaSpec,
    gen_modified_moore,
    gen_moore,
    gen_random,
    gen_universal,
)

from oracles import powers_closure, relation_closure


def cycle_matrix(k: int) -> BoolMatrix:
    return BoolMatrix.from_pairs(k, [(i, (i + 1) % k) for i in range(k)])


def unary_cycle(k: int) -> Fsa:
    names = tuple(f"s{i}" for i in range(k))
    trans = frozenset((names[i], "a", names[(i + 1) % k]) for i in range(k))
    return Fsa(("a",), names, frozenset({names[0]}), frozenset({names[0]}), trans)


class TestMonoidClosure:
    def test_no_generators_gives_identity_only(self):
        c = monoid_closure([], cap=10, dim=3)
        assert c.size == 1
        assert not c.capped
        assert BoolMatrix.identity(3) in c.elements

    @pytest.mark.parametrize("dim", [None, -1])
    def test_no_generators_needs_a_dimension(self, dim):
        with pytest.raises(ValueError, match="dim must be given and at least 0"):
            monoid_closure([], dim=dim)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_cyclic_permutation_order(self, k):
        m = cycle_matrix(k)
        c = monoid_closure([m], cap=1000)
        assert c.size == k
        assert {e.rows for e in c.elements} == powers_closure(m.rows, k)

    def test_nilpotent_shift(self):
        s = BoolMatrix.from_pairs(3, [(0, 1), (1, 2)])
        c = monoid_closure([s], cap=1000)
        assert c.size == 4
        assert {e.rows for e in c.elements} == powers_closure(s.rows, 3)

    def test_cap_is_a_result_state(self):
        c = monoid_closure([cycle_matrix(10)], cap=4)
        assert c.capped
        assert c.size == 4
        assert c.cap == 4

    def test_closure_is_a_fixed_point(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(1, 5)
            gens = []
            for _ in range(2):
                rows = tuple(
                    sum(1 << j for j in range(n) if rng.random() < 0.4) for _ in range(n)
                )
                gens.append(BoolMatrix(n, rows))
            c = monoid_closure(gens, cap=5000)
            assert not c.capped
            for e in c.elements:
                for g in gens:
                    assert e.multiply(g) in c.elements

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            monoid_closure([BoolMatrix.identity(2), BoolMatrix.identity(3)], cap=10)

    @pytest.mark.parametrize("n", [4, 9, 17, 20])
    def test_matches_relation_oracle(self, n):
        # seeded relations of expected out-degree 2.5; each n sees the cap
        # both hit and not hit, so the traversal order is pinned too
        outcomes = set()
        row_ids = 0
        for k in (1, 2, 3):
            rng = random.Random(100 * n + k)
            pairs = [
                frozenset((i, j) for i in range(n) for j in range(n) if rng.random() < 2.5 / n)
                for _ in range(k)
            ]
            gens = [BoolMatrix.from_pairs(n, p) for p in pairs]
            for cap in (7, 500):
                expected = relation_closure(pairs, n, cap + 1)
                c = monoid_closure(gens, cap=cap)
                assert c.capped == (len(expected) > cap)
                assert c.size == min(len(expected), cap)
                got = {
                    frozenset((i, j) for i, r in enumerate(e.rows) for j in range(n) if r >> j & 1)
                    for e in c.elements
                }
                assert got == set(expected[:cap])
                outcomes.add(c.capped)
                row_ids = max(row_ids, len(c.row_of_id))
        assert outcomes == {False, True}
        # at n = 20 a closure meets more than 256 distinct rows, so its
        # elements hold code points beyond Latin-1
        assert n < 20 or row_ids > 255

    def test_row_id_limit_stops_capped(self, monkeypatch):
        a = gen_random(RandomNfaSpec(n=8, alphabet_size=2, density=0.3, seed=0))
        gens = list(transition_matrices(a).values())
        full = monoid_closure(gens, cap=10_000)
        assert not full.capped and len(full.row_of_id) == 40
        monkeypatch.setattr("detsize.bounds._MAX_ROW_ID", 29)
        c = monoid_closure(gens, cap=10_000)
        assert c.capped
        assert c.size < full.size
        assert len(c.row_of_id) == 30
        assert c.rows < full.rows
        report = full_report(a, monoid_cap=10_000)
        assert report.monoid_bound is None
        assert report.subset_size is not None and report.subset_complexity is not None
        assert report.subset_size <= report.subset_complexity

    def test_elements_built_on_first_access(self):
        c = monoid_closure([cycle_matrix(5), BoolMatrix.identity(5)], cap=100)
        assert c.size == 5
        assert "rows" not in vars(c) and "elements" not in vars(c)
        assert c.rows == {tuple(1 << (i + k) % 5 for i in range(5)) for k in range(5)}
        assert "elements" not in vars(c)
        assert c.elements == {BoolMatrix(5, r) for r in c.rows}


class TestMonoidBound:
    def test_universal_dfa(self):
        assert monoid_bound(gen_universal()) == 1

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_unary_cycle(self, k):
        assert monoid_bound(unary_cycle(k)) == k

    def test_moore4_dominates_subset_size(self):
        a = gen_moore(4)
        bound = monoid_bound(a)
        assert bound is not None
        assert bound >= subset_construct(a).n == 16

    def test_capped_reports_none(self):
        assert monoid_bound(gen_moore(8), cap=10) is None


class TestRangeBound:
    def test_universal_dfa(self):
        # each 1x1 identity has range {0, 1}: 1 + 2 + 2
        assert range_bound(gen_universal()) == 5

    def test_dominates_subset_size_on_randoms(self):
        for seed in range(100):
            a = gen_random(RandomNfaSpec(n=2 + seed % 6, alphabet_size=1 + seed % 3,
                                         density=0.3, seed=seed))
            assert range_bound(a) >= subset_construct(a).n

    def test_cap_propagates(self):
        a = gen_moore(6)
        with pytest.raises(RangeCapExceeded):
            range_bound(a, range_cap=4)


class TestSubsetComplexity:
    def test_universal_dfa(self):
        assert subset_complexity(gen_universal()) == (1, ("a", "b"))

    def test_never_above_either_endpoint(self):
        for seed in range(100):
            a = gen_random(RandomNfaSpec(n=2 + seed % 5, alphabet_size=1 + seed % 3,
                                         density=0.35, seed=seed))
            value, _ = subset_complexity(a)
            assert value <= range_bound(a)
            mb = monoid_bound(a)
            if mb is not None:
                assert value <= mb

    @pytest.mark.parametrize("n", range(3, 9))
    def test_modified_moore_is_polynomial(self, n):
        value, _ = subset_complexity(gen_modified_moore(n))
        assert value <= 3 * n * n + 3 * n

    def test_dominates_subset_size(self):
        for seed in range(100):
            a = gen_random(RandomNfaSpec(n=2 + seed % 6, alphabet_size=1 + seed % 3,
                                         density=0.25, seed=7_000 + seed))
            value, _ = subset_complexity(a)
            assert subset_construct(a).n <= value

    def test_witness_kept_in_alphabet_order(self):
        _, split = subset_complexity(gen_universal())
        assert split == ("a", "b")

    def test_capped_splits_fall_back_to_the_empty_split(self):
        # with cap 1 every nonempty split's monoid enumeration caps immediately,
        # so the minimum degenerates to the pure range bound
        a = gen_moore(4)
        assert subset_complexity(a, monoid_cap=1) == (range_bound(a), ())

    @pytest.mark.parametrize("seed", range(60))
    def test_search_pruning_matches_plain_enumeration(self, seed):
        from itertools import combinations

        from detsize.boolmat import matrix_range, transition_matrices
        from detsize.bounds import monoid_closure

        a = gen_random(
            RandomNfaSpec(
                n=2 + seed % 5,
                alphabet_size=1 + seed % 3,
                density=(0.15, 0.3, 0.5)[seed % 3],
                seed=4_000 + seed,
            )
        )
        mats = transition_matrices(a)
        sizes = {sym: len(matrix_range(mats[sym])) for sym in a.alphabet}
        entries = []
        for size in range(len(a.alphabet) + 1):
            for split in sorted(combinations(a.alphabet, size), key=lambda js: tuple(sorted(js))):
                closure = monoid_closure([mats[sym] for sym in split], 10_000, dim=a.n)
                if closure.capped:
                    continue
                value = (1 + sum(sizes[s] for s in a.alphabet if s not in split)) * closure.size
                entries.append((value, len(split), tuple(sorted(split)), split))
        best = min(entries, key=lambda e: (e[0], e[1], e[2]))
        assert subset_complexity(a, monoid_cap=10_000) == (best[0], best[3])


class TestUnaryMonoidBounds:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_cycle(self, k):
        assert unary_monoid_bounds(unary_cycle(k)) == (k, k + k * k - 2 * k + 2, k)

    def test_nilpotent_shift(self):
        a = Fsa.make([("s0", "a", "s1"), ("s1", "a", "s2")], ["s0"], ["s2"])
        assert unary_monoid_bounds(a) == (1, 6, 4)

    def test_single_self_loop(self):
        a = Fsa.make([("s0", "a", "s0")], ["s0"], ["s0"])
        # upper bound formula at n=1 gives 1 + 1 - 2 + 2 = 2
        assert unary_monoid_bounds(a) == (1, 2, 1)

    def test_rejects_non_unary(self):
        with pytest.raises(ValueError):
            unary_monoid_bounds(gen_universal())

    def test_sandwich_on_randoms(self):
        for seed in range(150):
            a = gen_random(RandomNfaSpec(n=1 + seed % 6, alphabet_size=1,
                                         density=(0.2, 0.4, 0.6)[seed % 3], seed=seed))
            lower, upper, exact = unary_monoid_bounds(a)
            assert lower <= exact <= upper


class TestAllButOne:
    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target symbol"):
            all_but_one_bound(gen_universal(), "z")

    def test_unary_has_unit_range_factor(self):
        a = unary_cycle(4)
        certified, _ = all_but_one_bound(a, "a")
        lower, upper, exact = unary_monoid_bounds(a)
        assert certified == min(exact, upper)

    def test_modified_moore_certified_is_polynomial(self):
        a = gen_modified_moore(5)
        certified, estimate = all_but_one_bound(a, "a")
        assert certified == 114
        assert estimate == 319488
        assert certified >= subset_construct(a).n

    def test_certified_dominates_subset_size(self, random_nfas):
        for a in random_nfas[:500]:
            ss = subset_construct(a).n
            for sym in a.alphabet:
                certified, _ = all_but_one_bound(a, sym)
                assert certified >= ss


class TestFullReport:
    def test_moore4(self):
        report = full_report(gen_moore(4))
        assert report.subset_size == 16
        assert report.monoid_bound == 565
        assert report.range_bound is not None and report.range_bound >= 16
        assert report.subset_complexity is not None and report.subset_complexity >= 16
        assert report.all_but_one_certified is not None and report.all_but_one_certified >= 16

    def test_modified_moore5_bound(self):
        report = full_report(gen_modified_moore(5))
        assert report.subset_complexity is not None
        assert report.subset_complexity <= 90

    def test_universal_small_constants(self):
        report = full_report(gen_universal())
        assert report.subset_size == 1
        assert report.monoid_bound == 1
        assert report.range_bound == 5
        assert report.subset_complexity == 1

    def test_per_symbol_stats(self):
        report = full_report(gen_modified_moore(4))
        stats = {s.symbol: s for s in report.per_symbol}
        assert stats["c"].rank == 1
        assert stats["c"].range_size == 2
        assert stats["a"].cyclicity == 1

    def test_dict_round_trip(self):
        report = full_report(gen_moore(3))
        assert report_from_dict(report_to_dict(report)) == report

    def test_json_round_trip(self):
        report = full_report(gen_modified_moore(4))
        assert report_from_json(report_to_json(report)) == report

    def test_text_rendering_has_soundness_lines(self):
        text = render_report_text(full_report(gen_moore(4)))
        assert "subset_size: 16" in text
        assert "soundness monoid_bound: PASS (16 <= 565)" in text
        assert "FAIL" not in text

    def test_subset_cap_reported_not_raised(self):
        report = full_report(gen_moore(12), max_states=100)
        assert report.subset_size is None
        assert "aborted at cap 100" in render_report_text(report)

    def test_large_alphabet_reports_split_search_unavailable(self):
        syms = [chr(ord("a") + k) for k in range(17)]
        a = Fsa.make([("p", s, "q") for s in syms] + [("q", "a", "p")], initial=["p"], final=["q"])
        with pytest.raises(ValueError, match="alphabet too large"):
            subset_complexity(a)
        report = full_report(a)
        assert report.subset_complexity is None and report.subset_split is None
        assert report.monoid_bound is not None and report.range_bound is not None
        assert report.all_but_one_certified is not None
        assert all(s.range_size is not None for s in report.per_symbol)
        assert report_from_json(report_to_json(report)) == report
        line = next(l for l in render_report_text(report).splitlines() if l.startswith("subset_complexity:"))
        assert "unavailable" in line and "range cap" not in line

    def test_range_cap_reported_per_field(self):
        report = full_report(gen_moore(5), range_cap=4)
        assert report.range_bound is None
        assert report.subset_complexity is None
        assert report.all_but_one_certified is None
        assert report.monoid_bound is not None
        assert all(s.range_size is None for s in report.per_symbol)
        assert report_from_json(report_to_json(report)) == report

    def test_no_symbols_has_no_range_to_cap(self):
        # the range cap refuses an enumeration; with no symbols there is none,
        # so the report agrees with range_bound and subset_complexity
        a = Fsa(states=("q0", "q1"), initial=frozenset({"q0"}), final=frozenset({"q1"}))
        report = full_report(a, range_cap=1)
        assert report.range_bound == range_bound(a, range_cap=1) == 1
        assert (report.subset_complexity, report.subset_split) == subset_complexity(a, range_cap=1) == (1, ())
        assert report.subset_size == 1

    def test_caps_checked_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the caps were checked")

        monkeypatch.setattr("detsize.bounds.subset_construct", fail)
        monkeypatch.setattr("detsize.bounds.transition_matrices", fail)
        with pytest.raises(ValueError, match="monoid_cap must be at least 1"):
            full_report(gen_moore(18), monoid_cap=0)
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            full_report(gen_moore(18), max_states=0)
        with pytest.raises(ValueError, match="range_cap must be at least 0"):
            full_report(gen_moore(18), range_cap=-1)
