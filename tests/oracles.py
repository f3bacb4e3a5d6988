"""Independent oracles used to compute expected values.

Everything here deliberately avoids the library's bitmask machinery: acceptance
is path search over (state, position) pairs, subsets are frozensets, cycles are
enumerated explicitly. Keeping these code paths separate is the point.
"""

from __future__ import annotations

import math
from itertools import product

from detsize.fsa import EPSILON, Fsa


def accepts_by_path_search(a: Fsa, word: tuple[str, ...]) -> bool:
    """Graph search over (state, position) pairs, following epsilon edges."""
    adj: dict[str, list[tuple[str, str]]] = {q: [] for q in a.states}
    for src, sym, dst in a.transitions:
        adj[src].append((sym, dst))
    seen = {(q, 0) for q in a.initial}
    stack = list(seen)
    while stack:
        q, pos = stack.pop()
        if pos == len(word) and q in a.final:
            return True
        for sym, dst in adj[q]:
            if sym == EPSILON:
                nxt = (dst, pos)
            elif pos < len(word) and sym == word[pos]:
                nxt = (dst, pos + 1)
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def words_upto(alphabet: tuple[str, ...], max_len: int):
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def step_table(a: Fsa) -> dict[str, dict[str, frozenset[str]]]:
    adj: dict[str, dict[str, set[str]]] = {}
    for src, sym, dst in a.transitions:
        adj.setdefault(sym, {}).setdefault(src, set()).add(dst)
    return {
        sym: {q: frozenset(targets) for q, targets in table.items()}
        for sym, table in adj.items()
    }


def subset_step(a: Fsa, subset: frozenset[str], sym: str) -> frozenset[str]:
    out: set[str] = set()
    for src, s, dst in a.transitions:
        if s == sym and src in subset:
            out.add(dst)
    return frozenset(out)


def accessible_subsets(a: Fsa) -> set[frozenset[str]]:
    """All subsets the powerset construction can reach from the initial set,
    including the empty subset when it is produced."""
    table = step_table(a)
    start = frozenset(a.initial)
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for sym in a.alphabet:
            t = table.get(sym, {})
            nxt: set[str] = set()
            for q in cur:
                nxt |= t.get(q, frozenset())
            fs = frozenset(nxt)
            if fs not in seen:
                seen.add(fs)
                stack.append(fs)
    return seen


def simple_cycle_lengths(adj: dict[int, set[int]], n: int) -> list[int]:
    """Lengths of all simple cycles (self-loops count as length 1); only
    sensible for small n."""
    lengths: list[int] = []

    def dfs(start: int, current: int, visited: set[int], depth: int) -> None:
        for nxt in adj.get(current, ()):
            if nxt == start:
                lengths.append(depth)
            elif nxt > start and nxt not in visited:
                dfs(start, nxt, visited | {nxt}, depth + 1)

    for s in range(n):
        dfs(s, s, {s}, 1)
    return lengths


def cyclicity_by_cycle_enumeration(adj: dict[int, set[int]], n: int) -> int:
    """Group cycles by strongly connected component, gcd per component, lcm
    over components; 1 when there is no cycle at all."""
    comp_of = _scc_labels(adj, n)
    gcds: dict[int, int] = {}
    for s in range(n):
        _collect_cycles(adj, s, s, {s}, 1, comp_of, gcds)
    result = 1
    for g in gcds.values():
        result = math.lcm(result, g)
    return result


def _collect_cycles(adj, start, current, visited, depth, comp_of, gcds) -> None:
    for nxt in adj.get(current, ()):
        if nxt == start:
            c = comp_of[start]
            gcds[c] = math.gcd(gcds.get(c, 0), depth)
        elif nxt > start and nxt not in visited and comp_of[nxt] == comp_of[start]:
            _collect_cycles(adj, start, nxt, visited | {nxt}, depth + 1, comp_of, gcds)


def _scc_labels(adj: dict[int, set[int]], n: int) -> list[int]:
    """Kosaraju, recursion-free; returns a component label per vertex."""
    radj: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, targets in adj.items():
        for v in targets:
            radj[v].add(u)
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack = [(root, iter(sorted(adj.get(root, ()))))]
        seen[root] = True
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(sorted(adj.get(w, ())))))
                    break
            else:
                order.append(v)
                stack.pop()
    label = [-1] * n
    current = 0
    for root in reversed(order):
        if label[root] != -1:
            continue
        stack = [root]
        label[root] = current
        while stack:
            v = stack.pop()
            for w in radj[v]:
                if label[w] == -1:
                    label[w] = current
                    stack.append(w)
        current += 1
    return label


def powers_closure(rows: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    """{identity} union all distinct positive Boolean powers of one matrix,
    by plain repeated multiplication."""

    def multiply(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for r in x:
            acc = 0
            for j in range(n):
                if (r >> j) & 1:
                    acc |= y[j]
            out.append(acc)
        return tuple(out)

    identity = tuple(1 << i for i in range(n))
    seen = {identity}
    current = identity
    while True:
        current = multiply(current, rows)
        if current in seen:
            return seen
        seen.add(current)


def relation_closure(
    generators: list[frozenset[tuple[int, int]]], n: int, limit: int
) -> list[frozenset[tuple[int, int]]]:
    """The monoid generated by relations on range(n), each a frozenset of
    (i, j) pairs: breadth-first from the identity, composing on the right
    with the generators in order. Returns at most ``limit`` elements, in
    discovery order."""
    successors = [{i: [j for p, j in g if p == i] for i in range(n)} for g in generators]
    identity = frozenset((i, i) for i in range(n))
    order = [identity]
    seen = {identity}
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for succ in successors:
            y = frozenset((i, k) for i, j in x for k in succ[j])
            if y not in seen:
                if len(order) == limit:
                    return order
                seen.add(y)
                order.append(y)
    return order


def range_size_by_row_subsets(rows: tuple[int, ...]) -> int:
    """Number of distinct unions over all 2**len(rows) subsets of the rows,
    with no grouping of rows into components; only sensible for about 12
    rows or fewer."""
    unions = set()
    for chosen in product((False, True), repeat=len(rows)):
        acc = 0
        for pick, r in zip(chosen, rows):
            if pick:
                acc |= r
        unions.add(acc)
    return len(unions)


def fsa_equal_up_to_state_order(a: Fsa, b: Fsa) -> bool:
    return (
        a.alphabet == b.alphabet
        and set(a.states) == set(b.states)
        and a.initial == b.initial
        and a.final == b.final
        and a.transitions == b.transitions
    )


def agree_on_all_words(a: Fsa, subset_automaton, max_len: int):
    """First word of length <= max_len on which set-based NFA simulation and
    the subset automaton disagree, or None. Walks the word tree so prefixes
    are shared; this is still an exhaustive enumeration."""
    table = step_table(a)
    final = a.final
    stack = [((), frozenset(a.initial), 0)]
    while stack:
        word, cur, i = stack.pop()
        if bool(cur & final) != subset_automaton.final_flags[i]:
            return word
        if len(word) == max_len:
            continue
        for k, sym in enumerate(a.alphabet):
            t = table.get(sym, {})
            nxt: set[str] = set()
            for q in cur:
                nxt |= t.get(q, frozenset())
            stack.append((word + (sym,), frozenset(nxt), subset_automaton.transitions[i][k]))
    return None


def deterministic_by_successor_count(a: Fsa) -> bool:
    """One initial state, no epsilon edge, and a count of exactly one
    successor for every (state, symbol) pair of the alphabet."""
    if len(a.initial) != 1 or any(sym == EPSILON for _, sym, _ in a.transitions):
        return False
    count = {(q, sym): 0 for q in a.states for sym in a.alphabet}
    for src, sym, _ in a.transitions:
        count[(src, sym)] += 1
    return all(c == 1 for c in count.values())


def nfa_accepts_by_sets(a: Fsa, word: tuple[str, ...]) -> bool:
    table = step_table(a)
    cur: frozenset[str] = frozenset(a.initial)
    for sym in word:
        t = table.get(sym, {})
        nxt: set[str] = set()
        for q in cur:
            nxt |= t.get(q, frozenset())
        cur = frozenset(nxt)
    return bool(cur & a.final)


def universal_by_enumeration(a: Fsa, max_len: int) -> bool:
    """Exhaustively test every word of length <= max_len (depth-first with an
    early stop at the first rejected word)."""
    table = step_table(a)
    final = a.final
    stack = [(frozenset(a.initial), 0)]
    while stack:
        cur, depth = stack.pop()
        if not (cur & final):
            return False
        if depth == max_len:
            continue
        for sym in a.alphabet:
            t = table.get(sym, {})
            nxt: set[str] = set()
            for q in cur:
                nxt |= t.get(q, frozenset())
            stack.append((frozenset(nxt), depth + 1))
    return True


def text_by_format_rules(a: Fsa) -> str:
    """The automaton text as README's "Automaton text format" section states
    it: one ``src sym dst`` line per transition, sorted by (source index,
    symbol, target index); then an ``@initial`` line and an ``@final`` line per
    state in state-index order; first an ``@alphabet`` line, only when the
    symbols' first use in those transition lines (epsilon aside) differs from
    the alphabet."""
    position = {q: i for i, q in enumerate(a.states)}
    transitions = sorted(a.transitions, key=lambda t: (position[t[0]], t[1], position[t[2]]))
    first_use: list[str] = []
    for _, sym, _ in transitions:
        if sym != EPSILON and sym not in first_use:
            first_use.append(sym)
    out = []
    if first_use != list(a.alphabet):
        out.append("@alphabet " + " ".join(a.alphabet))
    out.extend(f"{src} {sym} {dst}" for src, sym, dst in transitions)
    out.extend(f"@initial {q}" for q in a.states if q in a.initial)
    out.extend(f"@final {q}" for q in a.states if q in a.final)
    return "".join(line + "\n" for line in out)
