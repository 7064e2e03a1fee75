"""Pseudo factors: validation and the degree-window spanning-subgraph
decision.

A pseudo [2,b]-factor is a spanning subgraph in which every component on at
least three vertices has all internal degrees in [2, b]; the remaining
components are single edges or single vertices (the "small" components, the
quantity this package minimizes and bounds).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import CapacityError, FactorError
from .graph import Edge, Graph, bits, component_masks, norm_edge, vertex_mask

#: largest block size accepted by the exact degree-window spanning search
SPANNING_LIMIT = 20


class PseudoFactor(NamedTuple):
    """A validated pseudo factor: a graph, a chosen edge subset, the vertex
    masks of the components of the spanning subgraph they induce, by smallest
    member, the number of small components and the largest degree of the
    chosen edges, both counted once by ``build``. A component is small when it
    has fewer than three vertices. Validity depends on the degrees alone, so
    the factor is a pseudo [2,b]-factor at every b >= max(2, max_degree) and
    at no smaller b."""

    graph: Graph
    edges: tuple[Edge, ...]
    components: tuple[int, ...]
    small_count: int
    max_degree: int

    @classmethod
    def build(cls, g: Graph, edges, b: int) -> "PseudoFactor":
        """Validate ``edges`` as a pseudo [2,b]-factor of ``g``.

        Raises FactorError naming the offending component and vertex when a
        component on >= 3 vertices has a degree outside [2, b], and on edges
        not present in ``g``.
        """
        if b < 2:
            raise ValueError(f"b must be at least 2, got {b}")
        chosen: set[Edge] = set()
        adj = [0] * g.n
        for u, v in edges:
            u, v = e = norm_edge(u, v)
            if not 0 <= u < g.n or not g.adj_bits[u] >> v & 1:
                raise FactorError(f"chosen edge {e} is not an edge of the graph")
            chosen.add(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        components = tuple(component_masks(adj, g.full_mask))
        degree = [a.bit_count() for a in adj]
        _check_window(components, degree, b)
        small = sum(1 for mask in components if mask.bit_count() < 3)
        return cls(g, tuple(sorted(chosen)), components, small, max(degree, default=0))

    def __repr__(self):
        small = self.small_count
        return (
            f"PseudoFactor(n={self.graph.n}, chosen={len(self.edges)}, small={small}, "
            f"large={len(self.components) - small}, max_degree={self.max_degree})"
        )


def _check_window(components, degree, b: int) -> None:
    """Raise FactorError at the first component on >= 3 vertices, then at its
    lowest vertex, whose ``degree`` lies outside [2, b]."""
    for mask in components:
        if mask.bit_count() < 3:
            continue
        for v in bits(mask):
            d = degree[v]
            if d < 2 or d > b:
                comp = tuple(bits(mask))
                raise FactorError(
                    f"component {comp}: vertex {v} has degree {d}, outside [2, {b}]",
                    component=comp,
                    vertex=v,
                )


def validate_pseudo_factor(g: Graph, edges, b: int) -> PseudoFactor:
    """``edges`` validated as a pseudo [2,b]-factor of ``g``; raises
    FactorError if any invariant fails."""
    return PseudoFactor.build(g, edges, b)


def is_2b_subgraph(g: Graph, vertices, edges, b: int) -> bool:
    """True iff every vertex of ``vertices`` has degree in [2, b] counting only
    ``edges`` (which must all be graph edges inside ``vertices``)."""
    vs = frozenset(vertices)
    deg = dict.fromkeys(vs, 0)
    for u, v in set(norm_edge(*e) for e in edges):
        if u not in vs or v not in vs or not 0 <= u < g.n or not g.adj_bits[u] >> v & 1:
            return False
        deg[u] += 1
        deg[v] += 1
    return all(2 <= d <= b for d in deg.values())


# ---------------------------------------------------------------------------
# degree-window spanning subgraphs


def spanning_in_range(g: Graph, mask: int, b: int):
    """An edge subset of G[mask] giving every vertex of ``mask`` degree in
    [2, b], or None if none exists.

    Memoized search over the vertices in deficiency order (lowest induced
    degree first): a vertex decides its edges toward later vertices, and any
    vertex whose remaining possible degree cannot reach 2 fails the branch
    fast. Exact; blocks larger than SPANNING_LIMIT raise CapacityError, and
    ``vertex_mask`` checks ``mask``.
    """
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    mask = vertex_mask(g, mask)
    k = mask.bit_count()
    if k < 3:
        return None
    if k > SPANNING_LIMIT:
        raise CapacityError(f"spanning search limited to {SPANNING_LIMIT} vertices, got {k}")
    induced_deg = {v: (g.adj_bits[v] & mask).bit_count() for v in bits(mask)}
    if min(induced_deg.values()) < 2:
        return None
    induced_edges = [e for e in g.edges if e[0] in induced_deg and e[1] in induced_deg]
    if max(induced_deg.values()) <= b:
        return tuple(induced_edges)

    order = sorted(induced_deg, key=lambda v: (induced_deg[v], v))
    pos = {v: i for i, v in enumerate(order)}
    fwd = [sorted(pos[w] for w in bits(g.adj_bits[v] & mask) if pos[w] > i)
           for i, v in enumerate(order)]
    # pot[r][t]: neighbors of order[t] at positions >= r (still undecided
    # once positions below r are fully processed); pot[r] is pot[r + 1] plus
    # one for each neighbor of order[r]
    pot = [[0] * k for _ in range(k + 1)]
    for r in range(k - 1, -1, -1):
        row = pot[r]
        row[:] = pot[r + 1]
        for w in bits(g.adj_bits[order[r]] & mask):
            row[pos[w]] += 1

    failed: set[tuple[int, tuple[int, ...]]] = set()

    def search(i: int, back: tuple[int, ...]):
        # back[j] = degree already fixed for order[i + j]
        if i == k:
            return ()
        key = (i, back)
        if key in failed:
            return None
        base = back[0]
        options = fwd[i]
        lo = max(0, 2 - base)
        hi = min(b - base, len(options))
        for r in range(lo, hi + 1):
            for combo in itertools.combinations(options, r):
                new_back = list(back[1:])
                ok = True
                for j in combo:
                    t = j - (i + 1)
                    new_back[t] += 1
                    if new_back[t] > b:
                        ok = False
                        break
                if ok:
                    for t in range(k - i - 1):
                        if new_back[t] + pot[i + 1][i + 1 + t] < 2:
                            ok = False
                            break
                if ok:
                    sub = search(i + 1, tuple(new_back))
                    if sub is not None:
                        return tuple(norm_edge(order[i], order[j]) for j in combo) + sub
        failed.add(key)
        return None

    result = search(0, (0,) * k)
    return None if result is None else tuple(sorted(result))


# ---------------------------------------------------------------------------
# serialization


def factor_to_text(pf: PseudoFactor) -> str:
    """One line per component:
    ``component <k>: class=<large|edge|vertex> vertices=<list> edges=<list>``."""
    lines = []
    for k, mask in enumerate(pf.components):
        label = {1: "vertex", 2: "edge"}.get(mask.bit_count(), "large")
        vs = ",".join(str(v) for v in bits(mask))
        es = ",".join(f"{u}-{v}" for u, v in pf.edges if mask >> u & 1)
        lines.append(f"component {k}: class={label} vertices={vs} edges={es}")
    return "\n".join(lines)
