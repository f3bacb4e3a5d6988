from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsize.boolmat import (
    MAX_RANGE_CAP,
    BoolMatrix,
    RangeCapExceeded,
    _range_size,
    cyclicity,
    image_table,
    matrix_range,
    rank_gf2,
    strongly_connected_components,
    transition_matrices,
)
from detsize.determinize import subset_construct, subset_to_dfa
from detsize.fsa import EPSILON, Fsa
from detsize.generators import gen_moore

from oracles import cyclicity_by_cycle_enumeration, range_size_by_row_subsets, subset_step


def random_matrix(rng: random.Random, n: int, density: float = 0.3) -> BoolMatrix:
    rows = []
    for _ in range(n):
        rows.append(sum(1 << j for j in range(n) if rng.random() < density))
    return BoolMatrix(n, tuple(rows))


@st.composite
def matrices(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return BoolMatrix(n, tuple(rows))


def adjacency(m: BoolMatrix) -> dict[int, set[int]]:
    return {i: {j for j in range(m.n) if m.entry(i, j)} for i in range(m.n)}


SHIFT3 = BoolMatrix.from_pairs(3, [(0, 1), (1, 2)])


class TestBitBounds:
    """Every row, and every vector given to ``apply``, is a bitset over the
    n columns: no negative int and no bit at position n or above."""

    @pytest.mark.parametrize("rows", [(1 << 3, 0, 0), (0, 0b1001, 0), (0, -1, 0)])
    def test_constructor_refuses_row_outside(self, rows):
        with pytest.raises(ValueError, match="row bits outside matrix dimension"):
            BoolMatrix(3, rows)

    @pytest.mark.parametrize("rows", [(0, 0), (0, 0, 0, 0)])
    def test_constructor_refuses_wrong_row_count(self, rows):
        with pytest.raises(ValueError, match="expected 3 rows"):
            BoolMatrix(3, rows)

    def test_constructor_accepts_top_bit(self):
        assert BoolMatrix(3, (0b100, 0b111, 0)).rows == (4, 7, 0)

    @pytest.mark.parametrize("v", [1 << 3, 0b1010, -1])
    def test_apply_refuses_vector_outside(self, v):
        with pytest.raises(ValueError, match="vector bits outside matrix dimension"):
            SHIFT3.apply(v)

    def test_dimension_zero(self):
        empty = BoolMatrix(0, ())
        assert empty.apply(0) == 0
        with pytest.raises(ValueError, match="expected 0 rows"):
            BoolMatrix(0, (1,))
        with pytest.raises(ValueError, match="vector bits outside"):
            empty.apply(1)

    def test_wide_matrix(self):
        n = 20_000
        m = BoolMatrix(n, (1 << (n - 1),) + (0,) * (n - 1))
        assert m.apply(1) == 1 << (n - 1)
        with pytest.raises(ValueError, match="vector bits outside"):
            m.apply(1 << n)
        with pytest.raises(ValueError, match="row bits outside"):
            BoolMatrix(n, (0,) * (n - 1) + (1 << n,))


class TestMultiply:
    def test_identity_is_neutral(self):
        rng = random.Random(0)
        for _ in range(25):
            m = random_matrix(rng, 4)
            eye = BoolMatrix.identity(4)
            assert eye.multiply(m) == m
            assert m.multiply(eye) == m

    def test_all_ones_is_absorbing(self):
        ones = BoolMatrix(3, (7, 7, 7))
        assert ones.multiply(ones) == ones

    def test_shift_is_nilpotent(self):
        s2 = SHIFT3.multiply(SHIFT3)
        assert s2 == BoolMatrix.from_pairs(3, [(0, 2)])
        assert s2.multiply(SHIFT3) == BoolMatrix.zeros(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BoolMatrix.identity(2).multiply(BoolMatrix.identity(3))

    @given(matrices(), matrices(), matrices())
    @settings(max_examples=80, deadline=None)
    def test_associative(self, a, b, c):
        n = max(a.n, b.n, c.n)

        def pad(m):
            return BoolMatrix(n, m.rows + (0,) * (n - m.n))

        a, b, c = pad(a), pad(b), pad(c)
        assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


class TestApply:
    def test_zero_vector(self):
        rng = random.Random(1)
        assert random_matrix(rng, 5).apply(0) == 0

    def test_moore3_step(self):
        mats = transition_matrices(gen_moore(3))
        assert mats["a"].apply(0b001) == 0b010  # {q1} steps to {q2}

    def test_agrees_with_set_based_successors(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(1, 8)
            names = tuple(f"s{i}" for i in range(n))
            trans = frozenset(
                (names[i], "a", names[j])
                for i in range(n)
                for j in range(n)
                if rng.random() < 0.3
            )
            a = Fsa(("a",), names, frozenset(), frozenset(), trans)
            m = transition_matrices(a)["a"]
            v = rng.randrange(1 << n)
            expected = subset_step(a, frozenset(names[i] for i in range(n) if (v >> i) & 1), "a")
            got = m.apply(v)
            assert frozenset(names[i] for i in range(n) if (got >> i) & 1) == expected

    @pytest.mark.parametrize("n", [17, 64, 200, 20_000])
    def test_wide_vectors_match_a_union_over_members(self, n):
        # rows from a small pool, so the 20,000-state matrix stays small; the
        # top row is zero, and so is about a quarter of the others
        rng = random.Random(n)
        pool = [sum(1 << rng.randrange(n) for _ in range(rng.randint(1, 3))) for _ in range(32)]
        rows = [rng.choice(pool) if rng.random() < 0.75 else 0 for _ in range(n - 1)] + [0]
        m = BoolMatrix(n, rows)
        members = [0, 1, n // 2, n - 2, n - 1] + rng.sample(range(n), 5)
        vectors = [0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)]
        vectors += [1 << j for j in members]
        vectors += [(1 << j) | sum(1 << rng.randrange(j) for _ in range(3)) for j in members if j and not rows[j]]
        vectors += [sum(1 << j for j in rng.sample(range(n), 4)) for _ in range(4)]
        for v in vectors:
            expected = 0
            for j, digit in enumerate(reversed(format(v, "b"))):
                if digit == "1":
                    expected |= rows[j]
            assert m.apply(v) == expected
        for j in members:
            assert m.apply(1 << j) is rows[j] or not rows[j]

    @given(matrices(max_n=6), matrices(max_n=6), st.integers(0, 63))
    @settings(max_examples=80, deadline=None)
    def test_application_composes_with_product(self, a, b, v):
        n = max(a.n, b.n)
        a = BoolMatrix(n, a.rows + (0,) * (n - a.n))
        b = BoolMatrix(n, b.rows + (0,) * (n - b.n))
        v &= (1 << n) - 1
        assert a.multiply(b).apply(v) == b.apply(a.apply(v))


class TestRange:
    def test_identity(self):
        assert len(matrix_range(BoolMatrix.identity(2))) == 4

    def test_zero_matrix(self):
        assert matrix_range(BoolMatrix.zeros(3)) == frozenset({0})

    def test_all_ones_has_range_two(self):
        ones = BoolMatrix(4, (15,) * 4)
        assert matrix_range(ones) == frozenset({0, 15})

    def test_zero_vector_always_in_range(self):
        rng = random.Random(3)
        for _ in range(30):
            assert 0 in matrix_range(random_matrix(rng, 5))

    def test_cap_error_names_dimension_and_cap(self):
        m = BoolMatrix.identity(6)
        with pytest.raises(RangeCapExceeded, match="range cap exceeded") as info:
            matrix_range(m, cap=5)
        assert info.value.n == 6
        assert info.value.cap == 5

    def test_matches_image_table(self):
        # image_table enumerates all 2**n inputs, independently of the
        # row-by-row union that matrix_range builds
        rng = random.Random(11)
        cases = [BoolMatrix.identity(n) for n in range(9)] + [BoolMatrix.zeros(n) for n in range(9)]
        cases += [random_matrix(rng, rng.randint(1, 10), rng.random()) for _ in range(300)]
        for m in cases:
            assert matrix_range(m) == frozenset(image_table(m)), m.rows

    def test_image_table_matches_apply(self):
        # every entry, in its place: tbl[v] is the image of the subset v
        rng = random.Random(4)
        cases = [BoolMatrix.identity(n) for n in range(13)] + [BoolMatrix.zeros(n) for n in range(13)]
        cases += [random_matrix(rng, n, density) for n in range(13) for density in (0.1, 0.3, 0.6)]
        for m in cases:
            tbl = image_table(m)
            assert len(tbl) == 1 << m.n
            assert tbl == [m.apply(v) for v in range(1 << m.n)], m.rows


def block_diagonal(rng: random.Random, sizes: list[int], density: float) -> BoolMatrix:
    """Random blocks of the given sizes on the diagonal, with the states then
    shuffled, so each block's rows keep to its own columns."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, start + size):
                if rng.random() < density:
                    rows[perm[i]] |= 1 << perm[j]
        start += size
    return BoolMatrix(n, tuple(rows))


class TestRangeSize:
    def test_matches_row_subset_oracle(self):
        rng = random.Random(15)
        cases = [BoolMatrix.identity(n) for n in range(13)] + [BoolMatrix.zeros(n) for n in range(13)]
        cases += [random_matrix(rng, rng.randint(1, 12), rng.choice((0.05, 0.1, 0.2, 0.3, 0.5))) for _ in range(400)]
        for m in cases:
            assert _range_size(m, MAX_RANGE_CAP) == range_size_by_row_subsets(m.rows), m.rows

    def test_block_diagonal_is_the_product_of_its_blocks(self):
        rng = random.Random(16)
        for _ in range(150):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            m = block_diagonal(rng, sizes, rng.choice((0.3, 0.5, 0.8)))
            assert _range_size(m, MAX_RANGE_CAP) == range_size_by_row_subsets(m.rows), m.rows
            assert _range_size(m, max(sizes)) == len(matrix_range(m)), m.rows

    def test_cap_bounds_the_widest_component(self):
        # rows {0,1}, {1,2} and {3}: one component 3 wide, one 1 wide
        m = BoolMatrix(4, (0b0011, 0b0110, 0b1000, 0))
        assert _range_size(m, 3) == 4 * 2
        with pytest.raises(RangeCapExceeded, match="row component width=3 is above the cap 2") as info:
            _range_size(m, 2)
        assert (info.value.n, info.value.cap) == (3, 2)

    def test_wide_component_refused_before_enumeration(self, monkeypatch):
        def fail(rows):
            raise AssertionError("enumeration started above the range cap")

        monkeypatch.setattr("detsize.boolmat._unions", fail)
        # a narrow component first, then a dense 30-wide one
        m = BoolMatrix(32, (1, 1) + ((1 << 32) - 4,) * 30)
        with pytest.raises(RangeCapExceeded, match="width=30"):
            _range_size(m, MAX_RANGE_CAP)

    def test_singleton_rows_need_no_wide_enumeration(self):
        # each of 200 distinct unit rows is its own component: 2**200 unions
        m = BoolMatrix(200, tuple(1 << ((7 * i) % 200) for i in range(200)))
        assert _range_size(m, 1) == 2**200


class TestRankGf2:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_identity(self, n):
        assert rank_gf2(BoolMatrix.identity(n)) == n

    def test_zero(self):
        assert rank_gf2(BoolMatrix.zeros(4)) == 0

    def test_equal_rows(self):
        assert rank_gf2(BoolMatrix(2, (3, 3))) == 1

    def test_xor_dependence(self):
        # rows 011, 101, 110: third = first xor second
        assert rank_gf2(BoolMatrix(3, (0b011, 0b101, 0b110))) == 2

    def test_range_at_least_rank(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, rng.choice([0.2, 0.4, 0.6]))
            assert len(matrix_range(m)) >= rank_gf2(m)


class TestCyclicity:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_single_cycle(self, k):
        m = BoolMatrix.from_pairs(k, [(i, (i + 1) % k) for i in range(k)])
        assert cyclicity(m) == k

    def test_self_loop_forces_one(self):
        # 3-cycle plus a self-loop in the same component
        m = BoolMatrix.from_pairs(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        assert cyclicity(m) == 1

    def test_cycles_of_length_two_and_three(self):
        # one component with a 2-cycle and a 3-cycle, two isolated vertices
        m = BoolMatrix.from_pairs(5, [(0, 1), (1, 0), (1, 2), (2, 0)])
        assert cyclicity_by_cycle_enumeration(adjacency(m), 5) == 1
        assert cyclicity(m) == 1

    def test_acyclic_graph(self):
        assert cyclicity(SHIFT3) == 1

    def test_disjoint_cycles_lcm(self):
        m = BoolMatrix.from_pairs(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
        assert cyclicity(m) == 6

    def test_permutation_cyclicity_is_lcm_of_cycle_lengths(self):
        import math

        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 9)
            perm = list(range(n))
            rng.shuffle(perm)
            m = BoolMatrix.from_pairs(n, list(enumerate(perm)))
            seen = [False] * n
            expected = 1
            for i in range(n):
                if seen[i]:
                    continue
                length = 0
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                expected = math.lcm(expected, length)
            assert cyclicity(m) == expected

    def test_matches_cycle_enumeration_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 7)
            m = random_matrix(rng, n, rng.choice([0.15, 0.3, 0.5]))
            assert cyclicity(m) == cyclicity_by_cycle_enumeration(adjacency(m), n)

    def test_components_match_oracle_and_give_cyclicity(self):
        """The components partition the vertices as Kosaraju's oracle does, and
        the lcm of their cycle-length gcds is the cyclicity."""
        from oracles import _scc_labels, simple_cycle_lengths

        rng = random.Random(8)
        for _ in range(100):
            n = rng.randint(2, 7)
            m = random_matrix(rng, n, 0.3)
            adj = adjacency(m)
            comps = strongly_connected_components(m)
            labels = _scc_labels(adj, n)
            assert sorted(v for comp in comps for v in comp) == list(range(n))
            assert {frozenset(comp) for comp in comps} == {
                frozenset(v for v in range(n) if labels[v] == label) for label in set(labels)
            }
            expected = 1
            for comp in comps:
                members = set(comp)
                sub = {u: {v for v in adj[u] if v in members} for u in comp}
                lengths = simple_cycle_lengths(sub, n)
                if lengths:
                    expected = math.lcm(expected, math.gcd(*lengths))
            assert cyclicity(m) == expected

    def test_partition_matches_oracle_up_to_sixty_vertices(self):
        """Kosaraju's oracle over dicts of sets gives the same partition; the
        components come sinks first (no edge leads to a later component) and
        list their vertices in increasing order."""
        from oracles import _scc_labels

        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 60)
            m = random_matrix(rng, n, rng.choice([0.5, 1.5, 3.0]) / n)
            adj = adjacency(m)
            comps = strongly_connected_components(m)
            labels = _scc_labels(adj, n)
            assert {frozenset(comp) for comp in comps} == {
                frozenset(v for v in range(n) if labels[v] == label) for label in set(labels)
            }
            assert sum(map(len, comps)) == n
            position = {v: k for k, comp in enumerate(comps) for v in comp}
            for u in range(n):
                assert all(position[v] <= position[u] for v in adj[u])
            assert all(comp == sorted(comp) for comp in comps)

    def test_incomparable_components_in_finishing_order(self):
        # the search from 0 steps to 1 before 2, so {1} finishes before {2, 3}
        m = BoolMatrix.from_pairs(4, [(0, 2), (0, 1), (2, 3), (3, 2)])
        assert strongly_connected_components(m) == [[1], [2, 3], [0]]

    def test_long_cycle_is_one_component(self):
        n = 20_000
        m = BoolMatrix.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])
        assert strongly_connected_components(m) == [list(range(n))]
        assert cyclicity(m) == n

    def test_long_path_is_all_singletons(self):
        n = 20_000
        m = BoolMatrix.from_pairs(n, [(i, i + 1) for i in range(n - 1)])
        assert strongly_connected_components(m) == [[v] for v in reversed(range(n))]
        assert cyclicity(m) == 1


class TestTransitionMatrices:
    def test_moore_structure(self):
        mats = transition_matrices(gen_moore(3))
        assert mats["a"] == BoolMatrix.from_pairs(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
        assert mats["b"] == BoolMatrix.from_pairs(3, [(0, 0), (1, 2)])

    def test_requires_eps_free(self):
        a = Fsa.make([("q0", EPSILON, "q1")], ["q0"], ["q1"])
        with pytest.raises(ValueError):
            transition_matrices(a)

    def test_rows_with_one_successor_share_one_int(self):
        """A DFA's matrices hold one row object per target, and a one-member subset steps to that object itself."""
        mats = transition_matrices(subset_to_dfa(subset_construct(gen_moore(8))))
        rows = [r for m in mats.values() for r in m.rows if r]
        assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)
        for m in mats.values():
            for i, r in enumerate(m.rows):
                if r:
                    assert m.apply(1 << i) is r
