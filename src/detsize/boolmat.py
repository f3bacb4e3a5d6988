"""Bit-packed Boolean matrices: products, vector application, range enumeration,
rank over GF(2), and precedence-graph cyclicity.

A matrix row is a Python int used as a bitset: bit j of ``rows[i]`` is the
(i, j) entry, i.e. row i lists the successors of state i under one symbol.
Subset characteristic vectors are plain ints with the same bit convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .fsa import Fsa, _require

DEFAULT_RANGE_CAP = 20
MAX_RANGE_CAP = 22  # 2**20 range elements peak at 84.5 MiB under tracemalloc; each bit doubles it

__all__ = [
    "DEFAULT_RANGE_CAP",
    "MAX_RANGE_CAP",
    "RangeCapExceeded",
    "BoolMatrix",
    "transition_matrices",
    "image_table",
    "matrix_range",
    "rank_gf2",
    "strongly_connected_components",
    "cyclicity",
]


class RangeCapExceeded(ValueError):
    """Range enumeration over ``n`` states (the dimension for ``matrix_range``,
    a row component's width for the bounds) takes up to 2**n steps: refused above the cap."""

    def __init__(self, width: int, cap: int, what: str = "dimension n"):
        self.n = width
        self.cap = cap
        super().__init__(f"range cap exceeded: {what}={width} is above the cap {cap}")


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@dataclass(frozen=True)
class BoolMatrix:
    """Square matrix over the Boolean semifield ({0,1}, or, and)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for r in self.rows:
            if r < 0 or r >> self.n:
                raise ValueError("row bits outside matrix dimension")

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "BoolMatrix":
        return cls(n, (0,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "BoolMatrix":
        rows = [0] * n
        for i, j in pairs:
            rows[i] |= 1 << j
        return cls(n, tuple(rows))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def multiply(self, other: "BoolMatrix") -> "BoolMatrix":
        """Boolean matrix product: (a.b)(i,k) = OR_j a(i,j) and b(j,k)."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return BoolMatrix(self.n, tuple(map(other.apply, self.rows)))

    def apply(self, v: int) -> int:
        """Row-vector application v.self; equals the subset-construction
        successor of the subset encoded by v."""
        if v < 0 or v >> self.n:
            raise ValueError("vector bits outside matrix dimension")
        rows, low = self.rows, v & -v
        acc = rows[low.bit_length() - 1] if v else 0  # a one-member subset maps to its row itself, not a copy
        v ^= low
        while v:
            low = v & -v
            acc |= rows[low.bit_length() - 1]
            v ^= low
        return acc

    def power(self, k: int) -> "BoolMatrix":
        result = BoolMatrix.identity(self.n)
        for _ in range(k):
            result = result.multiply(self)
        return result


def transition_matrices(a: Fsa) -> dict[str, BoolMatrix]:
    """One Boolean matrix per symbol; entry (i, j) is set iff state i steps to state j on that symbol. The
    automaton must be epsilon-free. All rows whose one successor is j are one int, so a wide DFA holds one per target."""
    if a.has_epsilon:
        raise ValueError("automaton has epsilon transitions; remove them first")
    idx = a.state_index
    rows, unit = {sym: [0] * a.n for sym in a.alphabet}, {}  # unit: the one row object of each target met
    for src, sym, dst in a.transitions:
        row, i, bit = rows[sym], idx[src], unit.get(dst) or unit.setdefault(dst, 1 << idx[dst])
        row[i] = row[i] | bit if row[i] else bit
    return {sym: BoolMatrix(a.n, tuple(r)) for sym, r in rows.items()}


def image_table(m: BoolMatrix) -> list[int]:
    """tbl[v] = v.m for every subset bitmask v, in O(2**n): row i doubles the
    table over rows 0..i-1, entry v + 2**i being entry v | row i."""
    tbl = [0]
    for r in m.rows:
        tbl += [x | r for x in tbl]
    return tbl


def _unions(rows: Iterable[int]) -> set[int]:
    images = {0}
    for r in rows:
        # images is closed under union, so a row already in it adds nothing
        if r not in images:
            images.update([x | r for x in images])
    return images


def matrix_range(m: BoolMatrix, cap: int = DEFAULT_RANGE_CAP) -> frozenset[int]:
    """The exact range {v.m : v any subset vector}, i.e. the unions of subsets
    of rows, built one row at a time in at most min(n * |range|, 2**(n+1))
    steps. Contains the zero vector (image of the empty subset). Its memory
    follows |range|, the product of the row components' range sizes, so the
    cap stays on n: raises RangeCapExceeded when n is above ``cap``, and
    ValueError for a ``cap`` outside 0..MAX_RANGE_CAP."""
    _require("cap", cap, 0, MAX_RANGE_CAP)
    if m.n > cap:
        raise RangeCapExceeded(m.n, cap)
    return frozenset(_unions(m.rows))


def _range_size(m: BoolMatrix, cap: int) -> int:
    """|range(m)| as the product over row components, the classes of rows whose
    supports are linked by overlap: unions over disjoint supports combine freely,
    so the work is the sum of the component range sizes. Raises
    RangeCapExceeded, before any enumeration, for a component wider than ``cap``."""
    parts: dict[int, list[int]] = {}  # support -> rows; supports are disjoint
    union = 0  # of the supports: a row that misses it starts a part of its own, with no scan of the parts
    for r in dict.fromkeys(m.rows):
        rows = [r]
        for s in [s for s in parts if s & r] if r & union else ():
            r |= s
            rows += parts.pop(s)
        parts[r] = rows
        union |= r
    widest = max(map(int.bit_count, parts), default=0)
    if widest > cap:
        raise RangeCapExceeded(widest, cap, "row component width")
    return math.prod(map(len, map(_unions, parts.values())))


def rank_gf2(m: BoolMatrix) -> int:
    """Row rank over GF(2): each row is reduced against a basis keyed by
    leading bit, and joins the basis when it does not reduce to zero."""
    basis: dict[int, int] = {}
    for r in m.rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
    return len(basis)


def _forest(succ: Sequence[int], roots: Iterable[int]) -> Iterator[dict[int, int]]:
    """Depth-first trees over the graph in which vertex v has the successor
    bitset ``succ[v]``, one grown from each root not yet reached, always
    stepping to the lowest unseen successor. Yields each tree as a map from
    vertex to depth (the root's is 0), in the order the vertices finish."""
    unseen = (1 << len(succ)) - 1
    for root in roots:
        if not (unseen >> root) & 1:
            continue
        unseen ^= 1 << root
        path, tree = [root], {}
        while path:
            step = succ[path[-1]] & unseen
            if step:
                step &= -step
                unseen ^= step
                path.append(step.bit_length() - 1)
            else:
                tree[path.pop()] = len(path)
        yield tree


def _components(m: BoolMatrix) -> Iterator[dict[int, int]]:
    """Kosaraju's two depth-first sweeps: one over the rows gives the finishing
    order, one over the predecessor bitsets in reverse finishing order grows
    one strongly connected component per tree, sources first."""
    preds = [0] * m.n
    for u, r in enumerate(m.rows):
        for v in _bits(r):
            preds[v] |= 1 << u
    finished = [v for tree in _forest(m.rows, range(m.n)) for v in tree]
    return _forest(preds, reversed(finished))


def strongly_connected_components(m: BoolMatrix) -> list[list[int]]:
    """Maximal strongly connected components of the matrix support graph, by
    Kosaraju's sweeps. Components come sinks first, in the order the first
    sweep finishes their earliest-reached vertex; each lists its vertices in
    increasing order."""
    return [sorted(tree) for tree in _components(m)][::-1]


def cyclicity(m: BoolMatrix) -> int:
    """Least common multiple, over strongly connected components, of the gcd of
    the cycle lengths inside each component.

    Per component the gcd is taken over the depths of its tree in Kosaraju's
    second sweep (Denardo 1977): that sweep steps along predecessor edges, so
    every intra-component edge u -> v contributes depth(v) + 1 - depth(u). A
    component without a cycle (one vertex lacking a self-loop) has no such
    edge and contributes nothing, so an acyclic graph has cyclicity 1.
    """
    result = 1
    for depth in _components(m):
        inside = sum(1 << v for v in depth)
        g = 0
        for u, du in depth.items():
            for v in _bits(m.rows[u] & inside):
                g = math.gcd(g, depth[v] + 1 - du)
        if g:
            result = math.lcm(result, g)
    return result
