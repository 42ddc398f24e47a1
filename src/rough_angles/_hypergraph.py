"""Exact maximum independent set in a 3-uniform hypergraph.

A subset of vertices is independent when it contains no hyperedge entirely.
``max_independent_subset`` solves the complementary minimum hitting-set
problem by budgeted branch and bound: every edge needs at least one vertex
outside the subset.  It takes the hyperedges as a sorted list of distinct
increasing triples, as its callers build them, and does not check that.
``_in_order_search`` grows increasing tuples in index order instead, with the
hyperedges handed over lazily as bitmasks: ``row_third`` builds them from one
boolean (b, c) block per first vertex a, built and packed the first time the
search reaches a, and ``edge_third`` from a list of triples.  Given the
optimum size found by the former, one in-order pass returns the
lexicographically smallest maximum subset.  Asked for the maximum itself, the
in-order search bounds its passes by Ostergard's Russian doll.  Both searches
take a node budget and, once it runs out, return their best subset with
``optimal=False`` and a true upper bound.  Vertices are bitmask-encoded; all
tie-breaks are by smallest index so results are deterministic regardless of
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

# Search nodes a budgeted search may visit unless its caller says otherwise.
DEFAULT_BUDGET = 500_000


@dataclass(frozen=True)
class SearchResult:
    subset: tuple[int, ...]
    size: int
    optimal: bool
    upper_bound: int
    nodes: int


def _check_budget(budget: Optional[int]) -> None:
    """Refuse a negative node budget (None: no limit)."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def _greedy_cover(n: int, edges: list[tuple[int, int, int]]) -> int:
    """Cover all edges by repeatedly taking the vertex of highest remaining
    degree.  Returns the cover as a bitmask."""
    cover = 0
    remaining = list(edges)
    while remaining:
        deg = [0] * n
        for e in remaining:
            for v in e:
                deg[v] += 1
        best_v = max(range(n), key=lambda v: (deg[v], -v))
        cover |= 1 << best_v
        remaining = [e for e in remaining if best_v not in e]
    return cover


def _matching_bound(edges: list[tuple[int, int, int]]) -> int:
    """Number of pairwise vertex-disjoint edges found greedily: a lower bound
    on any hitting set of those edges."""
    used = 0
    count = 0
    for a, b, c in edges:
        m = (1 << a) | (1 << b) | (1 << c)
        if used & m:
            continue
        used |= m
        count += 1
    return count


def max_independent_subset(
    n: int,
    edges: list[tuple[int, int, int]],
    budget: Optional[int] = DEFAULT_BUDGET,
) -> SearchResult:
    """Largest subset of range(n) spanning no triple of ``edges``, which must
    be a sorted list of distinct increasing triples (as ``violating_triples``
    and ``sra_report`` build them).  Each search node counts against
    ``budget`` (None: no limit).  On budget exhaustion the best subset found
    is returned with ``optimal=False``, so budget 0 returns the complement of
    the greedy cover.  A negative budget is refused."""
    _check_budget(budget)
    upper = n - _matching_bound(edges)
    best_cover = _greedy_cover(n, edges)
    best_cover_size = best_cover.bit_count()
    nodes = 0
    exhausted = False

    def recurse(cover: int, keep: int, cover_size: int) -> None:
        nonlocal best_cover, best_cover_size, nodes, exhausted
        if budget is not None and nodes >= budget:
            exhausted = True
            return
        nodes += 1
        # Unit propagation: an edge with no covered vertex and one vertex
        # still undecided forces that vertex into the cover.  None is left
        # with no undecided vertex: propagation ran to the end before the
        # branch that kept a vertex, so every uncovered edge then had two.
        while True:
            active: list[tuple[int, int, int]] = []
            forced_v = -1
            for e in edges:
                a, b, c = e
                em = (1 << a) | (1 << b) | (1 << c)
                if em & cover:
                    continue
                free = [v for v in e if not (keep >> v) & 1]
                if len(free) == 1:
                    forced_v = free[0]
                    break
                active.append(e)
            if forced_v >= 0:
                cover |= 1 << forced_v
                cover_size += 1
                if cover_size >= best_cover_size:
                    return
                continue
            break

        if not active:
            if cover_size < best_cover_size:
                best_cover_size = cover_size
                best_cover = cover
            return
        if cover_size + _matching_bound(active) >= best_cover_size:
            return

        # Branch on the vertex appearing in the most active edges.
        deg = {}
        for e in active:
            for v in e:
                if not (keep >> v) & 1:
                    deg[v] = deg.get(v, 0) + 1
        v = min(deg, key=lambda u: (-deg[u], u))
        recurse(cover | (1 << v), keep, cover_size + 1)
        recurse(cover, keep | (1 << v), cover_size)

    recurse(0, 0, 0)

    subset = tuple(v for v in range(n) if not (best_cover >> v) & 1)
    return SearchResult(subset, len(subset), not exhausted, max(upper, len(subset)), nodes)


def row_third(bad_row: Callable[[int], np.ndarray]) -> Callable[[int, int], int]:
    """``third`` for ``_in_order_search`` from ``bad_row(a)``, a boolean numpy
    block over (b, c) in a+1..n-1 that is true where {a, b, c} is a
    hyperedge; its entries with c <= b are ignored.  The block of a first
    vertex is built and packed once, on the first pair that asks for it, into
    one bitmask per b, so a first vertex the search never reaches costs
    nothing."""
    rows: dict[int, list[int]] = {}

    def third(a: int, b: int) -> int:
        masks = rows.get(a)
        if masks is None:
            block = bad_row(a)
            pos = np.arange(len(block))
            packed = np.packbits(block & (pos[:, None] < pos), axis=1, bitorder="little")
            width = packed.shape[1]
            buf = packed.tobytes()
            masks = rows[a] = [int.from_bytes(buf[i:i + width], "little") << (a + 1)
                               for i in range(0, len(buf), width)]
        return masks[b - a - 1]

    return third


def edge_third(edges: Iterable[tuple[int, int, int]]) -> Callable[[int, int], int]:
    """``third`` for ``_in_order_search`` from increasing triples (a, b, c)."""
    masks: dict[tuple[int, int], int] = {}
    for a, b, c in edges:
        masks[a, b] = masks.get((a, b), 0) | (1 << c)
    return lambda a, b: masks.get((a, b), 0)


def _in_order_search(n: int, third: Callable[[int, int], int],
                     target: Optional[int] = None,
                     budget: Optional[int] = None) -> SearchResult:
    """The lexicographically smallest of the largest independent subsets of
    range(n), as an increasing tuple; with ``target``, the lexicographically
    first independent tuple of that size (or the former, if none exists).

    ``third(a, b)``, for a < b, is the bitmask of every c > b such that
    {a, b, c} is a hyperedge.  It is called at most once per pair, and only for
    pairs of a tuple the search reaches.  The search branches in index order,
    including a vertex before excluding it, keeps ``free`` (the vertices after
    the tuple's last that complete no hyperedge with two of its members) as a
    bitmask, and replaces the incumbent only on a strict improvement, so the
    first tuple it meets of a size is the lexicographically first one.

    With ``target``, a node is cut when its size plus the popcount of ``free``
    cannot beat the incumbent.  Without it, the search for the maximum is
    Ostergard's Russian doll (*A fast algorithm for the maximum clique
    problem*, 2002): for i from n-1 down to 0, one pass asks for an
    independent tuple that starts at i and is one point larger than
    ``doll[i+1]``, the maximum over {i+1..n-1}; that gives ``doll[i]``.  In
    these passes a node is also cut when its size plus ``doll`` at its lowest
    free vertex falls short of the goal.  A last pass under the same bound
    asks for the first tuple of size ``doll[0]``, unless the pass at 0 has
    found it already.

    Each tuple the search visits is a node, counted against ``budget`` (None:
    no limit; a negative budget is refused).  ``optimal`` says whether the
    search ran to its end.  Once the budget is spent it stops with the best
    tuple found so far and a true ``upper_bound`` on the maximum.  With
    ``target`` that is the largest size plus popcount of ``free`` over the
    nodes left unfinished, or the incumbent's size: every finished or cut
    branch stays at or below the latter.  In the Russian-doll pass at i it is
    i + ``doll[i+1]`` + 1 (at most i points below i, at most one more than
    ``doll[i+1]`` from i on), and ``doll[0]`` in the last pass.
    """
    _check_budget(budget)
    limit = -1 if budget is None else budget
    masks: dict[int, int] = {}
    seq: list[int] = []
    best: tuple[int, ...] = ()
    goal = 1  # the size the search looks for next
    doll = [0] * (n + 1) if target is None else None
    nodes = 0
    exhausted = False
    top = 0  # the largest size + popcount(free) over the nodes left unfinished

    def extend(free: int) -> bool:
        nonlocal best, goal, nodes, exhausted, top
        size = len(seq)
        if nodes == limit:
            exhausted = True
            top = max(top, size + free.bit_count())
            return True
        nodes += 1
        if size >= goal:
            best = tuple(seq)
            if size == target:
                top = max(top, size + free.bit_count())
                return True
            goal = size + 1
        while free:
            low = free & -free
            v = low.bit_length() - 1
            room = free.bit_count()
            if doll is not None and doll[v] < room:
                room = doll[v]
            if size + room < goal:
                break
            free ^= low
            cut = 0
            for a in seq:
                key = a * n + v
                mask = masks.get(key)
                if mask is None:
                    mask = masks[key] = third(a, v)
                cut |= mask
            seq.append(v)
            if extend(free & ~cut):
                top = max(top, size + free.bit_count())
                return True
            seq.pop()
        return False

    if doll is None:
        extend((1 << n) - 1)
        return SearchResult(best, len(best), not exhausted, max(len(best), top), nodes)
    for i in range(n - 1, -1, -1):  # each pass stops at its first tuple of size goal
        seq[:] = [i]
        goal = target = doll[i + 1] + 1
        found = extend((1 << n) - (2 << i))
        if exhausted:
            return SearchResult(best, len(best), False, min(n, i + goal), nodes)
        doll[i] = goal if found else goal - 1
    if n == 0 or doll[0] == doll[1]:
        seq.clear()
        goal = target = doll[0]
        extend((1 << n) - 1)
    return SearchResult(best, len(best), not exhausted, doll[0], nodes)
