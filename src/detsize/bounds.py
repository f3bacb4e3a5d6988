"""A priori upper bounds on the size of the subset automaton: transition-monoid
size, per-symbol range sizes, the combined subset complexity, the unary-monoid
sandwich, and the all-but-one bound."""

from __future__ import annotations

import json
import sys
from functools import cached_property
from itertools import combinations
from typing import Callable, Sequence

from .boolmat import (
    DEFAULT_RANGE_CAP,
    MAX_RANGE_CAP,
    BoolMatrix,
    RangeCapExceeded,
    _range_size,
    cyclicity,
    rank_gf2,
    transition_matrices,
)
from .determinize import DEFAULT_MAX_STATES, BlowUpError, _construct, _Steps, _subset_steps
from .fsa import Fsa, _Record, _require

DEFAULT_MONOID_CAP = 100_000
DEFAULT_ESTIMATE_CONSTANT = 2
_MAX_ROW_ID = 0x10FFFF  # sys.maxunicode: a monoid closure's row ids are code points

# subset complexity enumerates all 2**|alphabet| splits, so it is refused above this
_MAX_SPLIT_SYMBOLS = 16

__all__ = [
    "DEFAULT_MONOID_CAP",
    "DEFAULT_ESTIMATE_CONSTANT",
    "MonoidClosure",
    "monoid_closure",
    "monoid_bound",
    "range_bound",
    "subset_complexity",
    "unary_monoid_bounds",
    "all_but_one_bound",
    "SymbolStats",
    "BoundReport",
    "full_report",
    "report_to_dict",
    "report_from_dict",
    "report_to_json",
    "report_from_json",
    "render_report_text",
]


class MonoidClosure(_Record):
    """A set of Boolean matrices containing the identity and, unless capped,
    closed under right-multiplication by the generators.

    ``packed`` lists the elements in breadth-first order as strings whose i-th
    code point is the id of row i, ``row_of_id`` holds the rows of the closure's row space
    by id (the unit vectors, then each row in the order its image lists met it), and
    ``capped`` marks an early stop; ``rows`` and ``elements`` are built lazily.
    """

    def __init__(self, packed: tuple[str, ...], row_of_id: tuple[int, ...], n: int, capped: bool, cap: int):
        self._set(packed, row_of_id, n, capped, cap)

    @property
    def size(self) -> int:
        return len(self.packed)

    @cached_property
    def rows(self) -> frozenset[tuple[int, ...]]:
        return frozenset(tuple(self.row_of_id[i] for i in map(ord, x)) for x in self.packed)

    @cached_property
    def elements(self) -> frozenset[BoolMatrix]:
        return frozenset(BoolMatrix(self.n, r) for r in self.rows)


def _row_space(steps: Sequence[Callable[[int], int]], n: int) -> tuple:
    """A row space for closures that step through ``steps``: the steps, row -> id, the rows by id (unit vectors
    first, then in fill order) and one image list per step (row id -> id of row.step). A row met is a unit vector
    or in a step's range, so a space, even one shared by every closure of a report, holds at most n + their sum."""
    rows = [1 << i for i in range(n)]
    return steps, dict(zip(rows, range(n))), rows, [[] for _ in steps]


def monoid_closure(
    mats: Sequence[BoolMatrix],
    cap: int = DEFAULT_MONOID_CAP,
    *,
    dim: int | None = None,
) -> MonoidClosure:
    """Closure of the given matrices under Boolean product, with the identity,
    built breadth-first by right-multiplication on strings of row ids, on a row
    space of its own stepping through ``g.apply``; x.g is x.translate(the image
    list of g), each list filled one level ahead (see ``_closure``).

    With no generators the result is {identity}; ``dim`` must then supply the
    dimension. Enumeration stops with ``capped`` set once the element count
    would exceed ``cap``, keeping exactly ``cap`` elements, or once the rows met
    outnumber the code points (only at n >= 21); generator order fixes the
    traversal, so the capped outcome is deterministic.
    """
    n = mats[0].n if mats else dim
    if n is None or n < 0:
        raise ValueError("with no generators, dim must be given and at least 0")
    for d in [m.n for m in mats] + ([] if dim is None else [dim]):
        if d != n:
            raise ValueError(f"dimension mismatch: {d} vs {n}")
    _require("cap", cap, 1)
    space = _row_space([g.apply for g in mats], n)
    queue, capped = _closure(space, range(len(mats)), n, cap)
    return MonoidClosure(tuple(queue), tuple(space[2]), n, capped, cap)


def _closure(space: tuple, ks: Sequence[int], n: int, cap: int) -> tuple[list[str], bool]:
    """The elements of the monoid that steps ``ks`` of the row ``space`` generate, and whether it capped. Before each
    breadth-first level, each of their image lists is filled up to the rows met so far, one ``steps[k]`` call per
    row: a level holds only rows met before it, and a miss in a list would keep its code point silently."""
    steps, ids, rows, lists = space
    images = [lists[k] for k in ks]
    queue = ["".join(map(chr, range(n)))]
    seen = set(queue)
    start = 0
    while start < len(queue):
        level, start = queue[start:], len(queue)
        for k, image in zip(ks, images):
            for i in range(len(image), len(rows)):  # empty unless the space grew since the list was last filled
                j = ids.setdefault(v := steps[k](rows[i]), len(rows))
                if j == len(rows):
                    if j > _MAX_ROW_ID:  # row ids are code points
                        return queue, True
                    rows.append(v)
                image.append(j)
        for current in level:
            for image in images:
                nxt = current.translate(image)
                if nxt not in seen:
                    if len(queue) == cap:
                        return queue, True
                    seen.add(nxt)
                    queue.append(nxt)
    return queue, False


class _Analysis:
    """What the bounds share for one automaton, each computed once after both bound
    caps are checked: the matrices, the subset steps, the per-symbol range sizes,
    ranks, cyclicities and row tables, and the monoid closure sizes keyed by split."""

    def __init__(self, a: Fsa, range_cap: int = DEFAULT_RANGE_CAP, monoid_cap: int = DEFAULT_MONOID_CAP):
        _require("monoid_cap", monoid_cap, 1)
        _require("range_cap", range_cap, 0, MAX_RANGE_CAP)
        self.a, self.range_cap, self.monoid_cap = a, range_cap, monoid_cap
        self.mats = transition_matrices(a)
        self.ranks = {sym: rank_gf2(m) for sym, m in self.mats.items()}
        self.cyclicities = {sym: cyclicity(m) for sym, m in self.mats.items()}
        self._closures: dict[tuple[str, ...], tuple[int, bool]] = {}

    @cached_property
    def steps(self) -> _Steps:
        return _subset_steps(self.a, self.a.alphabet, self.mats)

    @cached_property
    def space(self) -> tuple:
        """The one row space of every closure of the analysis, stepping through the subset steps."""
        return _row_space(self.steps, self.a.n)

    @cached_property
    def range_sizes(self) -> dict[str, int]:
        """Range size per symbol, a product over row components; lazy: raises RangeCapExceeded above the cap."""
        return {sym: _range_size(m, self.range_cap) for sym, m in self.mats.items()}

    def factor(self, split: Sequence[str]) -> int:
        """1 plus the range sizes of the symbols outside ``split``."""
        return 1 + sum(self.range_sizes[sym] for sym in self.a.alphabet if sym not in split)

    def ceiling(self, sym: str) -> int:
        """c + n**2 - 2n + 2 for c the cyclicity of ``sym``: caps the monoid ``sym`` generates."""
        n = self.a.n
        return self.cyclicities[sym] + n * n - 2 * n + 2

    def monoid_size(self, split: tuple[str, ...], cap: int) -> int | None:
        """Size of the monoid generated by ``split``; None when it exceeds
        ``cap``. A complete closure answers every cap and one capped at c
        answers every cap up to c; a larger cap recomputes the closure."""
        known = self._closures.get(split)
        if known is None or (known[1] and cap > known[0]):
            queue, capped = _closure(self.space, [self.a.alphabet.index(s) for s in split], self.a.n, cap)
            known = self._closures[split] = (len(queue), capped)
        size, capped = known
        return None if capped or size > cap else size

    def subset_complexity(self) -> tuple[int | None, tuple[str, ...] | None]:
        """(value, split); (None, None) when the alphabet is too large to enumerate every split."""
        if len(self.a.alphabet) > _MAX_SPLIT_SYMBOLS:
            return None, None
        best, witness = self.factor(()), ()  # the empty split's monoid is {identity}: its term is the range bound
        for split in _split_preference(self.a.alphabet)[1:]:
            factor = self.factor(split)
            cap = min(self.monoid_cap, (best - 1) // factor)  # a larger size cannot improve on best
            if cap < 1:
                continue
            size = self.monoid_size(split, cap)
            if size is not None:
                best, witness = factor * size, split
        return best, witness

    def certified(self, target: str) -> int:
        """The subset-complexity term at split {target}, with the ceiling substituted for a monoid size that caps."""
        ceiling = self.ceiling(target)
        size = self.monoid_size((target,), min(self.monoid_cap, ceiling))
        return self.factor((target,)) * (ceiling if size is None else size)

    def estimate(self, target: str) -> int | None:
        """sigma * (c + n**2) << e, e the top ceil(r * r / 4) + C * r of the other ranks r; None if str() refuses it."""
        e = max([-(-r * r // 4) + DEFAULT_ESTIMATE_CONSTANT * r for s, r in self.ranks.items() if s != target] + [0])
        if 0 < 4 * getattr(sys, "get_int_max_str_digits", lambda: 0)() < e:  # 2**e alone is too long: refused unbuilt
            return None
        estimate = len(self.a.alphabet) * (self.cyclicities[target] + self.a.n**2) << e
        try:
            str(estimate)
        except ValueError:  # past sys.get_int_max_str_digits()
            return None
        return estimate


def monoid_bound(a: Fsa, cap: int = DEFAULT_MONOID_CAP) -> int | None:
    """Size of the full transition monoid, an upper bound on the subset
    automaton size; None when enumeration hit the cap."""
    return _Analysis(a, monoid_cap=cap).monoid_size(a.alphabet, cap)


def range_bound(a: Fsa, range_cap: int = DEFAULT_RANGE_CAP) -> int:
    """1 plus the sum of the per-symbol range sizes, an upper bound on the
    subset automaton size: every non-initial subset state is in the image of
    the matrix for the last symbol read. Raises RangeCapExceeded when a row
    component (rows linked by overlapping supports) spans more than
    ``range_cap`` states, ValueError for a cap outside 0..MAX_RANGE_CAP."""
    return _Analysis(a, range_cap).factor(())


def _split_preference(alphabet: tuple[str, ...]) -> list[tuple[str, ...]]:
    """All symbol subsets, ordered by cardinality then lexicographically; the
    returned tuples keep alphabet order."""
    splits = [c for size in range(len(alphabet) + 1) for c in combinations(alphabet, size)]
    return sorted(splits, key=lambda js: (len(js), sorted(js)))


def subset_complexity(
    a: Fsa,
    monoid_cap: int = DEFAULT_MONOID_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
) -> tuple[int, tuple[str, ...]]:
    """Minimum over alphabet splits J of
    (1 + sum of range sizes outside J) * (size of the monoid generated inside J),
    an upper bound on the subset automaton size.

    All 2**|alphabet| splits are enumerated, so alphabets above 16 symbols
    raise ValueError. A split whose monoid enumeration caps is left out; the
    empty split's term is the range bound, since its monoid {identity} never caps.
    Returns the bound and the minimizing split, ties broken by smaller split
    then lexicographic symbol order.
    """
    value, split = _Analysis(a, range_cap, monoid_cap).subset_complexity()
    if value is None:
        raise ValueError("alphabet too large for exhaustive split enumeration")
    return value, split


def unary_monoid_bounds(a: Fsa) -> tuple[int, int, int]:
    """(lower, upper, exact) for a one-symbol automaton: the cyclicity of the
    transition matrix's support graph sandwiches the monoid size as
    c <= size <= c + n**2 - 2n + 2; ``exact`` is the enumerated size."""
    if len(a.alphabet) != 1:
        raise ValueError("unary bounds require a one-symbol alphabet")
    analysis = _Analysis(a)
    lower = analysis.cyclicities[a.alphabet[0]]
    upper = analysis.ceiling(a.alphabet[0])
    exact = analysis.monoid_size(a.alphabet, upper + 1)  # None past upper + 1
    if exact is None or not lower <= exact <= upper:
        raise RuntimeError(f"unary monoid sandwich violated: {lower} <= {exact} <= {upper} fails")
    return lower, upper, exact


def all_but_one_bound(
    a: Fsa,
    target: str,
    monoid_cap: int = DEFAULT_MONOID_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
) -> tuple[int, int | None]:
    """(certified, estimate) bounds that single out one target symbol.

    certified: (1 + sum of range sizes over the other symbols) times the
    target's monoid size, itself replaced by its cyclicity-based ceiling
    c + n**2 - 2n + 2 when enumeration caps. This instantiates the subset
    complexity at the split {target}, so it soundly bounds the subset
    automaton size.

    estimate: |alphabet| * (c + n**2) * max over other symbols of
    2**(ceil(rank**2 / 4) + C * rank), the asymptotic shape of the bound with
    the fixed constant C = DEFAULT_ESTIMATE_CONSTANT, reported for guidance and
    never asserted; None, as in full_report, when too long for str() to write.
    """
    if target not in a.alphabet:
        raise ValueError(f"unknown target symbol {target!r}")
    analysis = _Analysis(a, range_cap, monoid_cap)
    return analysis.certified(target), analysis.estimate(target)


class SymbolStats(_Record):
    def __init__(self, symbol: str, rank: int, range_size: int | None, cyclicity: int):
        self._set(symbol, rank, range_size, cyclicity)


class BoundReport(_Record):
    """Every computed bound for one automaton; None values mark quantities
    whose enumeration was refused or aborted at the recorded cap."""

    def __init__(
        self, n: int, alphabet: tuple[str, ...], subset_size: int | None, subset_cap: int, monoid_bound: int | None,
        monoid_cap: int, range_bound: int | None, range_cap: int, subset_complexity: int | None,
        subset_split: tuple[str, ...] | None, all_but_one_certified: int | None, all_but_one_target: str | None,
        all_but_one_estimate: int | None, all_but_one_constant: int, per_symbol: tuple[SymbolStats, ...],
    ):
        self._set(n, alphabet, subset_size, subset_cap, monoid_bound, monoid_cap, range_bound, range_cap,
                  subset_complexity, subset_split, all_but_one_certified, all_but_one_target, all_but_one_estimate,
                  all_but_one_constant, per_symbol)


def full_report(
    a: Fsa,
    monoid_cap: int = DEFAULT_MONOID_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
    max_states: int = DEFAULT_MAX_STATES,
) -> BoundReport:
    """Populate every bound for ``a``, running the subset construction under
    its cap to record the actual size when feasible. A quantity that hits a
    cap, or an all-but-one estimate too long to write as decimal text, is None
    instead of raising (the estimate's constant C is ``all_but_one_constant``).
    A cap below its floor (0 for ``range_cap``, 1 for the others), or a
    ``range_cap`` above MAX_RANGE_CAP, raises ValueError before any work."""
    _require("max_states", max_states, 1)
    analysis = _Analysis(a, range_cap, monoid_cap)
    try:
        ranges = analysis.range_sizes
    except RangeCapExceeded:
        ranges = None
    per_symbol = tuple(
        SymbolStats(sym, analysis.ranks[sym], None if ranges is None else ranges[sym], analysis.cyclicities[sym])
        for sym in a.alphabet
    )

    try:
        subset_size = _construct(a, analysis.steps, max_states).n
    except BlowUpError:
        subset_size = None

    mbound = analysis.monoid_size(a.alphabet, monoid_cap)
    rbound = sc_value = sc_split = certified = target = estimate = None
    if ranges is not None:
        rbound = analysis.factor(())
        if a.alphabet:  # first: the split search reuses these singleton closures, each complete or capped at monoid_cap
            certified, target = min(zip(map(analysis.certified, a.alphabet), a.alphabet), key=lambda term: term[0])
            estimate = analysis.estimate(target)
        sc_value, sc_split = analysis.subset_complexity()

    return BoundReport(
        n=a.n,
        alphabet=a.alphabet,
        subset_size=subset_size,
        subset_cap=max_states,
        monoid_bound=mbound,
        monoid_cap=monoid_cap,
        range_bound=rbound,
        range_cap=range_cap,
        subset_complexity=sc_value,
        subset_split=sc_split,
        all_but_one_certified=certified,
        all_but_one_target=target,
        all_but_one_estimate=estimate,
        all_but_one_constant=DEFAULT_ESTIMATE_CONSTANT,
        per_symbol=per_symbol,
    )


# (tree key, sub key, BoundReport field) for every capped or annotated value
_REPORT_TREE = (
    ("subset_size", "value", "subset_size"),
    ("subset_size", "cap", "subset_cap"),
    ("monoid_bound", "value", "monoid_bound"),
    ("monoid_bound", "cap", "monoid_cap"),
    ("range_bound", "value", "range_bound"),
    ("range_bound", "cap", "range_cap"),
    ("subset_complexity", "value", "subset_complexity"),
    ("subset_complexity", "split", "subset_split"),
    ("all_but_one_certified", "value", "all_but_one_certified"),
    ("all_but_one_certified", "target", "all_but_one_target"),
    ("all_but_one_estimate", "value", "all_but_one_estimate"),
    ("all_but_one_estimate", "constant", "all_but_one_constant"),
)


def report_to_dict(report: BoundReport) -> dict:
    """Machine-readable tree form of a report; inverse of report_from_dict."""
    tree: dict = {"n": report.n, "alphabet": list(report.alphabet)}
    for key, sub, field in _REPORT_TREE:
        value = getattr(report, field)
        tree.setdefault(key, {})[sub] = list(value) if isinstance(value, tuple) else value
    tree["per_symbol"] = [dict(vars(s)) for s in report.per_symbol]  # the four fields, in field order
    return tree


def report_from_dict(data: dict) -> BoundReport:
    fields = {}
    for key, sub, field in _REPORT_TREE:
        value = data[key][sub]
        fields[field] = tuple(value) if isinstance(value, list) else value
    per_symbol = tuple(SymbolStats(**s) for s in data["per_symbol"])
    return BoundReport(n=data["n"], alphabet=tuple(data["alphabet"]), per_symbol=per_symbol, **fields)


def report_to_json(report: BoundReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_from_json(text: str) -> BoundReport:
    return report_from_dict(json.loads(text))


def _fmt(value: int | None, cap_note: str) -> str:
    return cap_note if value is None else str(value)


def render_report_text(report: BoundReport) -> str:
    """Key-value text form, one field per line; when the subset construction
    completed, each bound gets a PASS/FAIL soundness line."""
    range_note = f"range cap exceeded (a row component is wider than {report.range_cap})"
    sc_note = range_note if report.range_bound is None else "unavailable (alphabet too large for the split search)"
    lines = [
        f"n: {report.n}",
        f"alphabet: {' '.join(report.alphabet)}",
        f"subset_size: {_fmt(report.subset_size, f'aborted at cap {report.subset_cap}')}",
        f"monoid_bound: {_fmt(report.monoid_bound, f'capped at {report.monoid_cap}')}",
        f"range_bound: {_fmt(report.range_bound, range_note)}",
        f"subset_complexity: {_fmt(report.subset_complexity, sc_note)}",
        f"subset_complexity_split: {'-' if report.subset_split is None else '{' + ','.join(report.subset_split) + '}'}",
        f"all_but_one_certified: {_fmt(report.all_but_one_certified, 'unavailable')}",
        f"all_but_one_target: {report.all_but_one_target or '-'}",
        f"all_but_one_estimate: {_fmt(report.all_but_one_estimate, 'unavailable')}",
        f"all_but_one_constant: {report.all_but_one_constant}",
    ]
    for s in report.per_symbol:
        rng = _fmt(s.range_size, "range cap exceeded")
        lines.append(f"symbol {s.symbol}: rank={s.rank} range_size={rng} cyclicity={s.cyclicity}")
    if report.subset_size is not None:
        for name, bound in (
            ("monoid_bound", report.monoid_bound),
            ("range_bound", report.range_bound),
            ("subset_complexity", report.subset_complexity),
            ("all_but_one_certified", report.all_but_one_certified),
        ):
            if bound is None:
                continue
            verdict = "PASS" if report.subset_size <= bound else "FAIL"
            lines.append(f"soundness {name}: {verdict} ({report.subset_size} <= {bound})")
    return "".join(line + "\n" for line in lines)
