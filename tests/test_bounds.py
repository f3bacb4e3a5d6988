from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from detsize.boolmat import MAX_RANGE_CAP, BoolMatrix, RangeCapExceeded, image_table, transition_matrices
from detsize.bounds import (
    _Analysis,
    _closure,
    _split_preference,
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
from detsize.determinize import distinguishing_word, subset_construct, universality_witness
from detsize.fsa import Fsa
from detsize.generators import (
    RandomNfaSpec,
    gen_meyer_fischer,
    gen_modified_moore,
    gen_moore,
    gen_random,
    gen_universal,
)

from conftest import cycle_and_identity
from exhaustive import check, matrix_classes
from oracles import powers_closure, relation_closure
from test_report_fixture import CAP_SETTINGS


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
                # the decoded elements in breadth-first order, as the oracle lists them
                decoded = ([c.row_of_id[ord(i)] for i in x] for x in c.packed)
                got = [frozenset((i, j) for i, r in enumerate(rows) for j in range(n) if r >> j & 1) for rows in decoded]
                assert got == expected[:cap]
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

    @pytest.mark.parametrize("n", [4, 9, 17])
    def test_shared_row_ids_match_fresh_closures(self, n):
        # every closure of one analysis shares its one row space, with one image
        # list per symbol; each split at each cap must still give what a fresh
        # row space gives
        outcomes = set()
        for seed in range(3):
            a = gen_random(RandomNfaSpec(n=n, alphabet_size=3, density=2.5 / n, seed=seed))
            analysis = _Analysis(a)
            space = analysis.space
            steps, ids, rows, images = space
            for cap in (7, 500):
                for split in _split_preference(a.alphabet):
                    fresh = monoid_closure([analysis.mats[s] for s in split], cap, dim=n)
                    assert analysis.monoid_size(split, cap) == (None if fresh.capped else fresh.size)
                    assert analysis._closures[split] == (fresh.size, fresh.capped)
                    queue, capped = _closure(space, [a.alphabet.index(s) for s in split], n, cap)
                    shared = [[rows[ord(i)] for i in x] for x in queue]
                    assert (shared, capped) == ([[fresh.row_of_id[ord(i)] for i in x] for x in fresh.packed], fresh.capped)
                    outcomes.add(fresh.capped)
            assert analysis.space is space and steps is analysis.steps and len(images) == len(a.alphabet)
            assert rows[:n] == [1 << i for i in range(n)] and ids == {r: i for i, r in enumerate(rows)}
            assert all(image == [ids[step(r)] for r in rows[:len(image)]] for step, image in zip(steps, images))
        assert outcomes == {False, True}

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
        # the rows of b link all 6 states into one row component
        a = gen_meyer_fischer(6)
        with pytest.raises(RangeCapExceeded, match="width=6 is above the cap 4"):
            range_bound(a, range_cap=4)

    @pytest.mark.parametrize("n", [5, 6])
    def test_cap_bounds_components_not_n(self, n):
        # Moore's components are at most 2 wide, so a cap below n still gives the value
        a = gen_moore(n)
        assert range_bound(a, range_cap=4) == range_bound(a)
        report = full_report(a, range_cap=4)
        assert report.range_bound == range_bound(a)
        assert (report.subset_complexity, report.subset_split) == subset_complexity(a)
        assert report.all_but_one_certified is not None

    def test_dense_input_refused_before_enumeration(self, monkeypatch):
        def fail(rows):
            raise AssertionError("range enumeration started above the range cap")

        monkeypatch.setattr("detsize.boolmat._unions", fail)
        a = gen_random(RandomNfaSpec(n=30, alphabet_size=2, density=0.5, seed=3))
        with pytest.raises(RangeCapExceeded, match="width=30 is above the cap 22"):
            range_bound(a, range_cap=MAX_RANGE_CAP)


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

    def test_modified_moore_60_closed_form(self):
        # n = 60 is far above the range cap, but the rows of a and b are
        # distinct unit vectors and c has one non-zero row, {q1, q2}
        n = 60
        report = full_report(gen_modified_moore(n))
        assert report.subset_complexity == 3 * (n * n + n + 2) // 2
        assert report.subset_split == ("a", "b")

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

    def test_violated_sandwich_raises(self, monkeypatch):
        # a cyclicity above the monoid size breaks the lower side of the sandwich
        monkeypatch.setattr("detsize.bounds.cyclicity", lambda m: 10)
        with pytest.raises(RuntimeError, match="unary monoid sandwich violated"):
            unary_monoid_bounds(unary_cycle(3))

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

    CYCLE300 = cycle_and_identity(300)

    def estimates(self) -> tuple[int | None, int | None]:
        report = full_report(self.CYCLE300)
        return report.all_but_one_estimate, all_but_one_bound(self.CYCLE300, report.all_but_one_target)[1]

    def test_estimate_at_the_int_to_str_limit(self, int_str_limit):
        int_str_limit(6_960)
        report, bound = self.estimates()
        assert report == bound and len(str(report)) == 6_960
        int_str_limit(6_959)  # refused by the str() probe
        assert self.estimates() == (None, None)

    def test_estimate_far_past_the_limit_is_refused_unbuilt(self, int_str_limit):
        analysis = _Analysis(self.CYCLE300)
        int_str_limit(640)  # e = 23,100 is over 4 * 640, so 2**e alone has too many digits
        tracemalloc.start()
        try:
            assert analysis.estimate("b") is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 23_118 // 8  # the bytes of the 23,118-bit value it would have built
        assert self.estimates() == (None, None)

    def test_report_builds_one_estimate(self, monkeypatch, random_nfas):
        calls = []
        estimate = _Analysis.estimate
        monkeypatch.setattr(_Analysis, "estimate", lambda self, target: calls.append(target) or estimate(self, target))
        for a in [self.CYCLE300, gen_moore(6), gen_modified_moore(5), *random_nfas[:40]]:
            calls.clear()
            report = full_report(a, range_cap=4)  # wide enough for the first three, too narrow for 12 of the rest
            assert calls == ([] if report.range_bound is None else [report.all_but_one_target])


class TestFullReport:
    # (states, symbols): the number of automata up to renaming of states and symbols, and of reports checked
    SMALL = {(1, 2): (3, 3), (2, 2): (76, 228), (1, 1): (2, 2), (2, 1): (10, 30), (3, 1): (104, 728)}

    def test_every_small_automaton_is_bounded(self):
        # the larger sizes take seconds; a CI step runs them with ``tests/exhaustive.py``
        for (n, sigma), (classes, reports) in self.SMALL.items():
            tight, violations = check(n, sigma)
            assert violations == [], (n, sigma)
            assert (len(matrix_classes(n, sigma)), tight["reports"]) == (classes, reports)

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
        # the rows of b link all 5 states into one row component
        report = full_report(gen_meyer_fischer(5), range_cap=4)
        assert report.range_bound is None
        assert report.subset_complexity is None
        assert report.all_but_one_certified is None
        assert report.monoid_bound is not None
        assert all(s.range_size is None for s in report.per_symbol)
        assert report_from_json(report_to_json(report)) == report

    def test_range_cap_note_names_a_component(self):
        text = render_report_text(full_report(gen_meyer_fischer(5), range_cap=4))
        assert "range_bound: range cap exceeded (a row component is wider than 4)\n" in text
        assert "n=" not in text

    def test_no_symbols_has_no_range_to_cap(self):
        # the range cap refuses an enumeration; with no symbols there is none,
        # so the report agrees with range_bound and subset_complexity
        a = Fsa(states=("q0", "q1"), initial=frozenset({"q0"}), final=frozenset({"q1"}))
        report = full_report(a, range_cap=1)
        assert report.range_bound == range_bound(a, range_cap=1) == 1
        assert (report.subset_complexity, report.subset_split) == subset_complexity(a, range_cap=1) == (1, ())
        assert report.subset_size == 1

    @pytest.mark.parametrize("n", [16, 17])
    def test_matrices_and_tables_built_once(self, n, monkeypatch):
        # the subset construction and every monoid closure of a report share
        # one set of matrices and, up to 16 states, at most one image table per
        # symbol, bought once its steps have paid for it; the range bound alone
        # needs no table
        matrices, tables = [], []

        def counting_matrices(a):
            matrices.append(a)
            return transition_matrices(a)

        def counting_table(m):
            tables.append(m)
            return image_table(m)

        for module in ("bounds", "determinize"):
            monkeypatch.setattr(f"detsize.{module}.transition_matrices", counting_matrices)
        monkeypatch.setattr("detsize.determinize.image_table", counting_table)
        a = gen_random(RandomNfaSpec(n=n, alphabet_size=3, density=2.5 / n, seed=1))
        report = full_report(a, monoid_cap=500)
        assert report.subset_size is not None and report.subset_complexity is not None
        assert matrices == [a]
        assert len(set(map(id, tables))) == len(tables) <= (len(a.alphabet) if n <= 16 else 0)
        tables.clear()
        assert range_bound(a) == report.range_bound
        assert tables == []

    @pytest.mark.parametrize("caps", [caps for _, caps, _ in CAP_SETTINGS], ids=[label for label, _, _ in CAP_SETTINGS])
    def test_each_closure_enumerated_once(self, caps, random_nfas, monkeypatch):
        # all-but-one closes every singleton before the split search asks for it,
        # so no split of a report is enumerated a second time, on its one row space
        calls: list[tuple[int, tuple[int, ...]]] = []

        def recording_closure(space, ks, n, cap):
            calls.append((id(space), tuple(ks)))
            return _closure(space, ks, n, cap)

        monkeypatch.setattr("detsize.bounds._closure", recording_closure)
        for a in random_nfas:
            calls.clear()
            full_report(a, **caps)
            assert len(calls) == len(set(calls)) and len({space for space, _ in calls}) <= 1, a
            # the empty split's monoid is {identity}: its term is the range bound, with no closure
            assert all(ks for _, ks in calls), a

    def test_caps_checked_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the caps were checked")

        monkeypatch.setattr("detsize.bounds._construct", fail)
        monkeypatch.setattr("detsize.bounds.transition_matrices", fail)
        with pytest.raises(ValueError, match="monoid_cap must be at least 1"):
            full_report(gen_moore(18), monoid_cap=0)
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            full_report(gen_moore(18), max_states=0)
        with pytest.raises(ValueError, match="range_cap must be at least 0"):
            full_report(gen_moore(18), range_cap=-1)
        above = MAX_RANGE_CAP + 1
        for bound in (full_report, range_bound, subset_complexity):
            with pytest.raises(ValueError, match=f"range_cap must be at most {MAX_RANGE_CAP}"):
                bound(gen_moore(18), range_cap=above)
        with pytest.raises(ValueError, match=f"range_cap must be at most {MAX_RANGE_CAP}"):
            all_but_one_bound(gen_moore(18), "a", range_cap=above)
        # the standalone bounds refuse a monoid cap below 1 before any matrix is built
        for cap in (0, -1):
            with pytest.raises(ValueError, match="monoid_cap must be at least 1"):
                monoid_bound(gen_moore(7), cap=cap)
            with pytest.raises(ValueError, match="monoid_cap must be at least 1"):
                subset_complexity(gen_modified_moore(6), monoid_cap=cap)
            with pytest.raises(ValueError, match="monoid_cap must be at least 1"):
                all_but_one_bound(gen_modified_moore(6), "a", monoid_cap=cap)
        # the witness searches refuse max_states below 1 before any matrix or image table is built
        monkeypatch.setattr("detsize.determinize.transition_matrices", fail)
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            universality_witness(gen_moore(16), max_states=0)
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            distinguishing_word(gen_moore(16), gen_moore(16), max_states=0)


def _outcomes(autos: list[Fsa]) -> list[tuple]:
    """Every answer that runs on the subset steps, for each automaton (its
    witness search against the next one of the list)."""
    out = []
    for a, b in zip(autos, autos[1:] + autos[:1]):
        s = subset_construct(a)
        report = full_report(a, monoid_cap=2_000)
        out.append(((s.subsets, s.transitions, s.final_flags), report, distinguishing_word(a, b), universality_witness(a)))
    return out


def _counting_tables(monkeypatch) -> list[BoolMatrix]:
    built: list[BoolMatrix] = []

    def counting(m):
        built.append(m)
        return image_table(m)

    monkeypatch.setattr("detsize.determinize.image_table", counting)
    return built


class TestTablesPayForThemselves:
    """A symbol steps through BoolMatrix.apply until its steps, counted over
    every user, reach 2**(n - _PAYBACK); then its image table replaces the step."""

    SPARSE16 = gen_random(RandomNfaSpec(n=16, alphabet_size=3, density=0.15, seed=1))
    MOORE12 = gen_moore(12)

    @pytest.fixture(scope="class")
    def inputs(self, random_nfas):
        return random_nfas + [gen_moore(10), gen_meyer_fischer(10)]

    @pytest.fixture(scope="class")
    def expected(self, inputs):
        return _outcomes(inputs)

    @pytest.mark.parametrize("payback", [64, 1, -64], ids=["at-once", "part-way", "never"])
    def test_switch_point_changes_no_answer(self, payback, inputs, expected, monkeypatch):
        monkeypatch.setattr("detsize.determinize._PAYBACK", payback)
        built = _counting_tables(monkeypatch)
        assert _outcomes(inputs) == expected
        assert (built != []) == (payback != -64)

    def test_sparse_input_buys_no_table(self, monkeypatch):
        # 21 reachable subsets and a few hundred closure rows per symbol, far below 2**11 steps
        built = _counting_tables(monkeypatch)
        report = full_report(self.SPARSE16, monoid_cap=10_000)
        assert (report.subset_size, report.subset_complexity) == (21, subset_complexity(self.SPARSE16)[0])
        all_but_one_bound(self.SPARSE16, "a")
        assert built == []

    def test_dense_input_buys_each_table_once(self, monkeypatch):
        built = _counting_tables(monkeypatch)
        assert subset_construct(gen_moore(16)).n == 2**16
        assert sorted(map(id, built)) == sorted(set(map(id, built))) and len(built) == 2

    @pytest.mark.parametrize(
        "user",
        [
            lambda a: full_report(a, monoid_cap=10_000),
            subset_complexity,
            lambda a: all_but_one_bound(a, "a"),
            monoid_bound,
            subset_construct,
            universality_witness,
            lambda a: distinguishing_word(a, TestTablesPayForThemselves.MOORE12),
        ],
        ids=["full_report", "subset_complexity", "all_but_one_bound", "monoid_bound", "subset_construct",
             "universality_witness", "distinguishing_word"],
    )
    def test_renting_steps_leave_no_cycle(self, user):
        # a renting step holds its step list weakly, so a user of the steps
        # still renting when it ends is freed at once, not left to the cyclic collector
        gc.collect()
        gc.disable()
        try:
            user(self.SPARSE16)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_closure_misses_pay_too(self, monkeypatch):
        # no initial state: the subset construction takes one step per symbol,
        # so only the closures' table fills can pay for the tables
        mf = gen_meyer_fischer(16)
        a = Fsa(mf.alphabet, mf.states, frozenset(), mf.final, mf.transitions)
        built = _counting_tables(monkeypatch)
        assert full_report(a, monoid_cap=10_000).subset_size == 1
        assert len(built) == len(set(map(id, built))) == len(a.alphabet)
