"""A priori upper bounds on the size of the subset automaton: transition-monoid
size, per-symbol range sizes, the combined subset complexity, the unary-monoid
sandwich, and the all-but-one bound."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .boolmat import (
    DEFAULT_RANGE_CAP,
    BoolMatrix,
    RangeCapExceeded,
    _range_set,
    cyclicity,
    rank_gf2,
    transition_matrices,
)
from .determinize import DEFAULT_MAX_STATES, BlowUpError, subset_construct
from .fsa import Fsa

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


@dataclass(frozen=True)
class MonoidClosure:
    """A set of Boolean matrices containing the identity and, unless capped,
    closed under right-multiplication by the generators.

    ``packed`` lists the elements in breadth-first order as strings whose i-th
    code point is the id of row i, ``row_of_id`` maps ids to row bitmasks, and
    ``capped`` marks an early stop; ``rows`` and ``elements`` are built lazily.
    """

    packed: tuple[str, ...]
    row_of_id: tuple[int, ...]
    n: int
    capped: bool
    cap: int

    @property
    def size(self) -> int:
        return len(self.packed)

    @cached_property
    def rows(self) -> frozenset[tuple[int, ...]]:
        return frozenset(tuple(self.row_of_id[i] for i in map(ord, x)) for x in self.packed)

    @cached_property
    def elements(self) -> frozenset[BoolMatrix]:
        return frozenset(BoolMatrix(self.n, r) for r in self.rows)


class _ImageTable(dict):
    """Row id -> id of row.g for one generator g, filled on first lookup; a new row
    takes the next id (OverflowError past _MAX_ROW_ID). A row met is a unit vector
    or in a generator's range: a table holds at most n plus the summed range sizes."""

    def __init__(self, g: BoolMatrix, ids: dict[int, int], rows: list[int]):
        self.apply, self.ids, self.rows = g.apply, ids, rows

    def __missing__(self, i: int) -> int:
        j = self.ids.setdefault(v := self.apply(self.rows[i]), len(self.rows))
        if j == len(self.rows):
            if j > _MAX_ROW_ID:
                raise OverflowError("row ids exhausted")
            self.rows.append(v)
        return self.setdefault(i, j)


def monoid_closure(
    mats: Sequence[BoolMatrix],
    cap: int = DEFAULT_MONOID_CAP,
    *,
    dim: int | None = None,
) -> MonoidClosure:
    """Closure of the given matrices under Boolean product, with the identity,
    built breadth-first by right-multiplication on strings of row ids (unit
    vectors first); x.g is x.translate(table of g).

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
    if cap < 1:
        raise ValueError("cap must be at least 1")
    rows = [1 << i for i in range(n)]
    ids = dict(zip(rows, range(n)))
    tables = [_ImageTable(g, ids, rows) for g in mats]
    queue = ["".join(map(chr, range(n)))]
    seen = set(queue)
    try:
        for current in queue:
            for table in tables:
                nxt = current.translate(table)
                if nxt not in seen:
                    if len(queue) == cap:
                        return MonoidClosure(tuple(queue), tuple(rows), n, True, cap)
                    seen.add(nxt)
                    queue.append(nxt)
    except OverflowError:  # the next row id would pass _MAX_ROW_ID
        return MonoidClosure(tuple(queue), tuple(rows), n, True, cap)
    return MonoidClosure(tuple(queue), tuple(rows), n, False, cap)


class _Analysis:
    """What the bounds share for one automaton, each computed once: the
    matrices, the per-symbol range sizes, ranks and cyclicities, and the
    monoid closures keyed by split."""

    def __init__(self, a: Fsa, range_cap: int = DEFAULT_RANGE_CAP):
        self.a = a
        self.mats = transition_matrices(a)
        self.range_cap = range_cap
        self.ranks = {sym: rank_gf2(m) for sym, m in self.mats.items()}
        self.cyclicities = {sym: cyclicity(m) for sym, m in self.mats.items()}
        self._closures: dict[tuple[str, ...], tuple[int, bool]] = {}

    @cached_property
    def range_sizes(self) -> dict[str, int]:
        # lazy: it raises RangeCapExceeded above the range cap
        return {sym: len(_range_set(m, self.range_cap)) for sym, m in self.mats.items()}

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
            closure = monoid_closure([self.mats[s] for s in split], cap, dim=self.a.n)
            known = self._closures[split] = (closure.size, closure.capped)
        size, capped = known
        return None if capped or size > cap else size

    def subset_complexity(self, monoid_cap: int) -> tuple[int | None, tuple[str, ...] | None]:
        """(value, split); (None, None) when the alphabet is too large to enumerate every split."""
        if len(self.a.alphabet) > _MAX_SPLIT_SYMBOLS:
            return None, None
        best: int | None = None
        witness: tuple[str, ...] = ()
        for split in _split_preference(self.a.alphabet):
            factor = self.factor(split)
            # only a closure with factor * size < best matters, so any
            # closure that fits under this cap improves on best
            cap = monoid_cap if best is None else min(monoid_cap, (best - 1) // factor)
            if best is not None and cap < 1:
                continue
            size = self.monoid_size(split, cap)
            if size is not None:
                best, witness = factor * size, split
        assert best is not None
        return best, witness

    def all_but_one(self, target: str, monoid_cap: int) -> tuple[int, int]:
        ceiling = self.ceiling(target)
        # the certified bound is the subset-complexity term at split {target},
        # with the ceiling substituted for a monoid size that caps
        factor = self.factor((target,))
        size = self.monoid_size((target,), min(monoid_cap, ceiling + 1))
        certified = factor * (ceiling if size is None else min(size, ceiling))
        ranks = [r for sym, r in self.ranks.items() if sym != target]
        worst = max((2 ** (-(-r * r // 4) + DEFAULT_ESTIMATE_CONSTANT * r) for r in ranks), default=1)
        return certified, len(self.a.alphabet) * (self.cyclicities[target] + self.a.n**2) * worst


def monoid_bound(a: Fsa, cap: int = DEFAULT_MONOID_CAP) -> int | None:
    """Size of the full transition monoid, an upper bound on the subset
    automaton size; None when enumeration hit the cap."""
    return _Analysis(a).monoid_size(a.alphabet, cap)


def range_bound(a: Fsa, range_cap: int = DEFAULT_RANGE_CAP) -> int:
    """1 plus the sum of the per-symbol range sizes, an upper bound on the
    subset automaton size: every non-initial subset state is in the image of
    the matrix for the last symbol read."""
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
    raise ValueError; a split whose monoid enumeration caps is excluded from
    the minimum (the empty split never caps, so a value always exists).
    Returns the bound and the minimizing split, ties broken by smaller split
    then lexicographic symbol order.
    """
    value, split = _Analysis(a, range_cap).subset_complexity(monoid_cap)
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
    exact = analysis.monoid_size(a.alphabet, upper + 1)
    if exact is None:
        raise RuntimeError("unary monoid exceeded its theoretical bound")
    if not lower <= exact <= upper:
        raise RuntimeError(
            f"unary monoid sandwich violated: {lower} <= {exact} <= {upper} fails"
        )
    return lower, upper, exact


def all_but_one_bound(
    a: Fsa,
    target: str,
    monoid_cap: int = DEFAULT_MONOID_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
) -> tuple[int, int]:
    """(certified, estimate) bounds that single out one target symbol.

    certified: (1 + sum of range sizes over the other symbols) times the
    target's monoid size, itself replaced by its cyclicity-based ceiling
    c + n**2 - 2n + 2 when enumeration caps. This instantiates the subset
    complexity at the split {target}, so it soundly bounds the subset
    automaton size.

    estimate: |alphabet| * (c + n**2) * max over other symbols of
    2**(ceil(rank**2 / 4) + C * rank), the asymptotic shape of the bound with
    the fixed constant C = DEFAULT_ESTIMATE_CONSTANT. It is reported for
    guidance and never asserted.
    """
    if target not in a.alphabet:
        raise ValueError(f"unknown target symbol {target!r}")
    return _Analysis(a, range_cap).all_but_one(target, monoid_cap)


@dataclass(frozen=True)
class SymbolStats:
    symbol: str
    rank: int
    range_size: int | None
    cyclicity: int


@dataclass(frozen=True)
class BoundReport:
    """Every computed bound for one automaton; None values mark quantities
    whose enumeration was refused or aborted at the recorded cap."""

    n: int
    alphabet: tuple[str, ...]
    subset_size: int | None
    subset_cap: int
    monoid_bound: int | None
    monoid_cap: int
    range_bound: int | None
    range_cap: int
    subset_complexity: int | None
    subset_split: tuple[str, ...] | None
    all_but_one_certified: int | None
    all_but_one_target: str | None
    all_but_one_estimate: int | None
    all_but_one_constant: int
    per_symbol: tuple[SymbolStats, ...]


def full_report(
    a: Fsa,
    monoid_cap: int = DEFAULT_MONOID_CAP,
    range_cap: int = DEFAULT_RANGE_CAP,
    max_states: int = DEFAULT_MAX_STATES,
) -> BoundReport:
    """Populate every bound for ``a``, running the subset construction under
    its cap to record the actual size when feasible. Individual quantities
    that hit a cap are reported as None instead of raising. The all-but-one
    estimate uses the fixed constant C = DEFAULT_ESTIMATE_CONSTANT, which the
    report records as ``all_but_one_constant``. A cap below its floor (0 for
    ``range_cap``, 1 for the others) raises ValueError before any work."""
    caps = (("monoid_cap", monoid_cap, 1), ("range_cap", range_cap, 0), ("max_states", max_states, 1))
    for name, value, floor in caps:
        if value < floor:
            raise ValueError(f"{name} must be at least {floor}")
    analysis = _Analysis(a, range_cap)
    try:
        ranges = analysis.range_sizes
    except RangeCapExceeded:
        ranges = None
    per_symbol = tuple(
        SymbolStats(sym, analysis.ranks[sym], None if ranges is None else ranges[sym], analysis.cyclicities[sym])
        for sym in a.alphabet
    )

    try:
        subset_size = subset_construct(a, max_states).n
    except BlowUpError:
        subset_size = None

    mbound = analysis.monoid_size(a.alphabet, monoid_cap)
    rbound = sc_value = sc_split = certified = target = estimate = None
    if ranges is not None:
        rbound = analysis.factor(())
        sc_value, sc_split = analysis.subset_complexity(monoid_cap)
        for sym in a.alphabet:
            c, e = analysis.all_but_one(sym, monoid_cap)
            if certified is None or c < certified:
                certified, target, estimate = c, sym, e

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
    tree["per_symbol"] = [asdict(s) for s in report.per_symbol]
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
    range_note = f"range cap exceeded (n={report.n} > {report.range_cap})"
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
