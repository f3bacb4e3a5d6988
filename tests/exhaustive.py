"""Every bound of every small automaton, checked exhaustively.

The bounds depend only on the transition matrices, and ``subset_size`` only on
the matrices and the initial set, so final states are left empty. Automata are
taken one per class under renaming of the states and of the symbols, which
changes neither, each with every non-empty initial set. Every bound of the
report must be at least ``subset_size``, and every unary matrix must satisfy
the monoid sandwich that ``unary_monoid_bounds`` checks.

Run as ``PYTHONPATH=src python tests/exhaustive.py N SIGMA`` to check every
SIGMA-letter automaton on N states. It prints how often each bound equals
``subset_size`` and each violation, and exits 1 if there is one.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import permutations, product

from detsize.bounds import full_report, unary_monoid_bounds
from detsize.fsa import Fsa, serialize_fsa

BOUNDS = ("monoid_bound", "range_bound", "subset_complexity", "all_but_one_certified")


def matrix_classes(n: int, sigma: int) -> list[tuple[int, ...]]:
    """The least tuple of each class of ``sigma`` n-by-n Boolean matrices under
    renaming of the states and reordering of the tuple. A matrix is an int of
    n * n bits: bit i * n + j is the entry (i, j)."""
    cells = n * n
    renamed = []  # one table per renaming of the states: matrix -> renamed matrix
    for perm in permutations(range(n)):
        moved = [1 << (perm[c // n] * n + perm[c % n]) for c in range(cells)]
        table = [0] * (1 << cells)
        for m in range(1, 1 << cells):
            low = m & -m
            table[m] = table[m ^ low] | moved[low.bit_length() - 1]
        renamed.append(table)

    def key(mats: tuple[int, ...]) -> int:  # the matrices' bits, first matrix highest: lexicographic order
        return sum(m << cells * (sigma - 1 - k) for k, m in enumerate(mats))

    seen = bytearray(1 << cells * sigma)
    classes = []
    for mats in product(range(1 << cells), repeat=sigma):  # in key order, so each class is met at its least
        if not seen[key(mats)]:
            classes.append(mats)
            for table in renamed:
                for order in permutations(table[m] for m in mats):
                    seen[key(order)] = 1
    return classes


def check(n: int, sigma: int) -> tuple[Counter, list[str]]:
    """Check every ``sigma``-letter automaton on ``n`` states: how often each
    bound equals ``subset_size`` (and the number of reports, under
    ``"reports"``), and one line per bound below ``subset_size``."""
    states = tuple(f"q{i}" for i in range(n))
    alphabet = tuple(chr(ord("a") + k) for k in range(sigma))
    tight: Counter = Counter()
    violations = []
    for mats in matrix_classes(n, sigma):
        edges = [(states[c // n], sym, states[c % n]) for sym, m in zip(alphabet, mats) for c in range(n * n)
                 if m >> c & 1]
        if sigma == 1:
            unary_monoid_bounds(Fsa.make(edges, states=states, alphabet=alphabet))  # raises if the sandwich fails
        for initial in range(1, 1 << n):
            a = Fsa.make(edges, [q for i, q in enumerate(states) if initial >> i & 1], states=states, alphabet=alphabet)
            report = full_report(a)
            tight["reports"] += 1
            for name in BOUNDS:
                bound = getattr(report, name)
                if bound is not None and bound < report.subset_size:
                    violations.append(f"{name} {bound} < subset_size {report.subset_size} for {serialize_fsa(a)!r}")
                tight[name] += bound == report.subset_size
    return tight, violations


if __name__ == "__main__":
    tight, violations = check(int(sys.argv[1]), int(sys.argv[2]))
    for violation in violations:
        print(violation)
    print(f"{tight['reports']} reports; equal to subset_size:", ", ".join(f"{b} {tight[b]}" for b in BOUNDS))
    sys.exit(1 if violations else 0)
