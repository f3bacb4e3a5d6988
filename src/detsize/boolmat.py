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

from .fsa import Fsa

DEFAULT_RANGE_CAP = 20

__all__ = [
    "DEFAULT_RANGE_CAP",
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
    """Exact range enumeration can take up to 2**n steps and is refused above the cap."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"range cap exceeded: dimension n={n} is above the cap {cap}")


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
        acc = 0
        for i in _bits(v):
            acc |= self.rows[i]
        return acc

    def power(self, k: int) -> "BoolMatrix":
        result = BoolMatrix.identity(self.n)
        for _ in range(k):
            result = result.multiply(self)
        return result

    def __str__(self) -> str:
        return "\n".join(
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.n)) for r in self.rows
        )


def transition_matrices(a: Fsa) -> dict[str, BoolMatrix]:
    """One Boolean matrix per symbol; entry (i, j) is set iff state i steps to
    state j on that symbol. The automaton must be epsilon-free."""
    if a.has_epsilon:
        raise ValueError("automaton has epsilon transitions; remove them first")
    idx = a.state_index
    rows = {sym: [0] * a.n for sym in a.alphabet}
    for src, sym, dst in a.transitions:
        rows[sym][idx[src]] |= 1 << idx[dst]
    return {sym: BoolMatrix(a.n, tuple(r)) for sym, r in rows.items()}


def image_table(m: BoolMatrix) -> list[int]:
    """tbl[v] = v.m for every subset bitmask v, in O(2**n): row i doubles the
    table over rows 0..i-1, entry v + 2**i being entry v | row i."""
    tbl = [0]
    for r in m.rows:
        tbl += [x | r for x in tbl]
    return tbl


def _range_set(m: BoolMatrix, cap: int) -> set[int]:
    if m.n > cap:
        raise RangeCapExceeded(m.n, cap)
    images = {0}
    for r in m.rows:
        # images is closed under union, so a row already in it adds nothing
        if r not in images:
            images.update([x | r for x in images])
    return images


def matrix_range(m: BoolMatrix, cap: int = DEFAULT_RANGE_CAP) -> frozenset[int]:
    """The exact range {v.m : v any subset vector}, i.e. the unions of subsets
    of rows, built one row at a time in at most min(n * |range|, 2**(n+1))
    steps. Contains the zero vector (image of the empty subset). Raises
    RangeCapExceeded when n is above ``cap``."""
    return frozenset(_range_set(m, cap))


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


def _forest(succ: Sequence[int], roots: Iterable[int]) -> Iterator[list[int]]:
    """Depth-first trees over the graph in which vertex v has the successor
    bitset ``succ[v]``, one grown from each root not yet reached, always
    stepping to the lowest unseen successor. Yields each tree's vertices in
    the order they finish."""
    unseen = (1 << len(succ)) - 1
    for root in roots:
        if not (unseen >> root) & 1:
            continue
        unseen ^= 1 << root
        path, tree = [root], []
        while path:
            step = succ[path[-1]] & unseen
            if step:
                step &= -step
                unseen ^= step
                path.append(step.bit_length() - 1)
            else:
                tree.append(path.pop())
        yield tree


def strongly_connected_components(m: BoolMatrix) -> list[list[int]]:
    """Maximal strongly connected components of the matrix support graph, by
    Kosaraju's two depth-first sweeps: one over the rows gives the finishing
    order, one over the predecessor bitsets in reverse finishing order grows
    one component per tree. Components come sinks first, in the order the
    first sweep finishes their earliest-reached vertex; each lists its
    vertices in increasing order."""
    preds = [0] * m.n
    for u, r in enumerate(m.rows):
        for v in _bits(r):
            preds[v] |= 1 << u
    finished = [v for tree in _forest(m.rows, range(m.n)) for v in tree]
    return [sorted(tree) for tree in _forest(preds, reversed(finished))][::-1]


def cyclicity(m: BoolMatrix) -> int:
    """Least common multiple, over strongly connected components, of the gcd of
    the cycle lengths inside each component.

    Per component the gcd is computed from breadth-first levels: every
    intra-component edge u -> v contributes level(u) - level(v) + 1. A
    component without a cycle (one vertex lacking a self-loop) has no such
    edge and contributes nothing, so an acyclic graph has cyclicity 1.
    """
    result = 1
    for comp in strongly_connected_components(m):
        inside = sum(1 << v for v in comp)
        level = {comp[0]: 0}
        queue = [comp[0]]
        g = 0
        for u in queue:
            for v in _bits(m.rows[u] & inside):
                if v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
                g = math.gcd(g, level[u] + 1 - level[v])
        if g:
            result = math.lcm(result, g)
    return result
