"""Exact minimum number of small (edge/vertex) components over all pseudo
[2,b]-factors, by a scan over a maximum-matching table.

Large components impose nothing on each other, and disjoint vertex sets that
each carry a spanning subgraph with all degrees in [2, b] carry one
together, so every factor is a large part S (empty, or such a feasible set)
plus a matching of G - S; the best ones use a maximum matching and leave
|V - S| - nu(G - S) small components.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError
from .factor import PseudoFactor, spanning_in_range
from .graph import Edge, Graph, bits, norm_edge
from .memo import SolveMemo

#: largest instance accepted by the matching-table scan
ORACLE_LIMIT = 15


class OracleResult(NamedTuple):
    optimum: int
    witness: PseudoFactor


def _matching_scan(g: Graph) -> tuple[list[int], list[list[int]]]:
    """The part of the oracle that does not depend on b: the table ``nu`` of
    maximum-matching sizes of every vertex subset, and the candidate large
    parts S grouped by their small-component count |R| - nu[R], R = V - S
    (``groups[a]`` holds the candidates leaving a small components, unsorted
    until the walk reaches them)."""
    full = g.full_mask
    adjb = g.adj_bits
    # Masks are filled by lowest vertex v, highest v first, as mask = v + rest
    # with rest above v, so rest and every rest - w are done before mask.
    # nu[mask] = maximum matching size of G[mask]: v is left single or matched
    # to a neighbor w in rest, and nu[rest - w] is nu[rest] or one less.
    # zero/one[mask] = the vertices with no / exactly one neighbor in mask.
    nu = [0] * (full + 1)
    zero = [0] * (full + 1)
    one = [0] * (full + 1)
    # S = empty, or a set with every induced degree >= 2; spanning_in_range
    # refuses every other set before searching
    candidates = [0]
    for v in range(g.n - 1, -1, -1):
        bit = 1 << v
        adj_v = adjb[v]
        for rest in range(0, full + 1, bit << 1):
            mask = bit | rest
            nb = adj_v & rest
            size = nu[rest]
            x = nb
            while x:
                low = x & -x
                if nu[rest ^ low] == size:
                    size += 1
                    break
                x ^= low
            nu[mask] = size
            z = zero[rest]
            o = one[rest]
            if nb:
                z, o = z & ~nb, (o & ~nb) | (z & nb) | (0 if nb & (nb - 1) else bit)
                if not z | o:
                    candidates.append(mask)
            else:
                z |= bit
            zero[mask] = z
            one[mask] = o

    # grouped only now: nu of a candidate's complement may be filled after it
    groups: list[list[int]] = [[] for _ in range(g.n + 1)]
    for large in candidates:
        rest = full ^ large
        groups[rest.bit_count() - nu[rest]].append(large)
    return nu, groups


def _walk(nu: list[int], groups: list[list[int]], full: int):
    """The candidates in order of (small components, vertex components,
    bitmask of S). Group a holds the sets with |R| - nu[R] = a, where the
    vertex components |R| - 2 nu[R] = a - nu[R], so each group is sorted by
    (-nu[R], S) when the walk first reaches it. Sorting in place is
    idempotent, so every b row sharing the scan walks the same order."""
    for group in groups:
        group.sort(key=lambda large: (-nu[full ^ large], large))
        yield from group


def min_small_components_exact(g: Graph, b: int, memo: SolveMemo | None = None) -> OracleResult:
    """Minimum count of edge/vertex components over all pseudo [2,b]-factors,
    with a witness factor attaining it.

    Candidate large parts S are walked group by group in order of small
    components, each group sorted only when the walk reaches it, so they are
    tried in order of (small components, vertex components, bitmask of S);
    the first feasible one wins. The matching of V - S is rebuilt lowest
    vertex first, leaving a vertex single whenever that keeps the matching
    maximum, else pairing it with its lowest neighbor that does.

    The table and the candidate groups do not depend on b; they are built
    once per ``memo``, which, when given, must be a ``SolveMemo`` of this very
    graph, so calls for several b may share it. Nor does a witness whose S is
    empty or has all induced degrees at most b, as the search then takes all
    of G[S] at every b >= Δ(G[S]), which is then the witness's
    ``max_degree`` (a factor is a pseudo [2,b]-factor at every
    b >= max(2, max_degree)): it is kept in ``memo.witnesses``, and a later
    walk reaching S at such a b returns the kept result itself without
    searching. A capacity refusal stores nothing.
    """
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    memo = SolveMemo.of(g, memo)
    if g.n > ORACLE_LIMIT:
        raise CapacityError(f"exact oracle limited to {ORACLE_LIMIT} vertices, got {g.n}")
    if memo.scan is None:
        memo.scan = _matching_scan(g)
    nu, groups = memo.scan

    for large in _walk(nu, groups, g.full_mask):
        kept = memo.witnesses.get(large)
        if kept is not None and kept.witness.max_degree <= b:
            return kept
        chosen = spanning_in_range(g, large, b) if large else ()
        if chosen is not None:
            break

    edges: list[Edge] = list(chosen)
    rest = g.full_mask ^ large
    optimum = rest.bit_count() - nu[rest]
    adjb = g.adj_bits
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        size = nu[rest]
        rest ^= low
        if nu[rest] < size:
            w = next(w for w in bits(adjb[v] & rest) if nu[rest ^ (1 << w)] == size - 1)
            edges.append(norm_edge(v, w))
            rest ^= 1 << w

    result = OracleResult(optimum, PseudoFactor.build(g, edges, b))
    top = max((adjb[v] & large).bit_count() for v in bits(large)) if large else 0
    if top <= b:
        memo.witnesses[large] = result
    return result
