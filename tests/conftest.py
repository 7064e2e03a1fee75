"""Shared fixtures: named graphs, a hypothesis strategy for small graphs, the
session-wide random corpus the acceptance suite checks, and the reference
computations the package is checked against."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import strategies as st

from pseudofactor.errors import CapacityError
from pseudofactor.generators import gnp
from pseudofactor.graph import Graph, component_masks
from pseudofactor.oracle import min_small_components_exact

# corpus cells: every (n, edge_prob) pair collects PER_CELL graphs with
# minimum degree >= 1, scanning seeds in order for reproducibility
CORPUS_NS = tuple(range(4, 10))
CORPUS_PROBS = (0.3, 0.5, 0.7)
PER_CELL = 28
CORPUS_B_VALUES = (4, 5, 6)
SEED_CAP = 5000
#: largest instance accepted by the partition-enumeration cross-check
NAIVE_LIMIT = 9


@st.composite
def small_graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        edges = []
    return Graph.build(n, edges)


def all_labelled_graphs(max_n: int):
    """Every labelled simple graph on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph.build(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.build(10, edges)


def neighbors(g: Graph) -> list[frozenset[int]]:
    """Each vertex's neighbor set, read from ``g.edges`` alone, so set-based
    references share nothing with the adjacency ``Graph.build`` derives."""
    neigh: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        neigh[u].add(v)
        neigh[v].add(u)
    return [frozenset(s) for s in neigh]


def cover_pieces(g: Graph, mask: int, cover) -> list[int]:
    """The pieces of the ``posa_cover`` edge tuple ``cover``: the vertex
    masks of the components its edges make within ``mask``."""
    return list(component_masks(Graph.build(g.n, cover).adj_bits, mask))


def mask_of(vertices) -> int:
    """The int bitmask of a vertex collection, the form the package takes."""
    return sum(1 << v for v in set(vertices))


def brute_force_alpha(g: Graph, within=None) -> int:
    """Maximum independent set size (inside ``within`` if given) by scanning
    all 2^n subsets."""
    outside = 0 if within is None else g.full_mask & ~sum(1 << v for v in set(within))
    best = 0
    for mask in range(1 << g.n):
        if mask & outside:
            continue
        ok = True
        m = mask
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if g.adj_bits[v] & mask:
                ok = False
                break
            m ^= low
        if ok:
            best = max(best, mask.bit_count())
    return best


# The oracle's independent cross-check: it imports only ``Graph`` and
# ``CapacityError`` from the package, so it shares no code with the scan.


def _set_partitions(elems: list[int]):
    """All set partitions of ``elems`` as lists of lists."""
    if not elems:
        yield []
        return
    first = elems[0]
    for part in _set_partitions(elems[1:]):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _feasible_by_edge_subsets(g: Graph, block: frozenset[int], b: int) -> bool:
    """Decide a degree-[2,b] spanning subgraph of G[block] by include/exclude
    search over the induced edge list (no ordering tricks, no memo)."""
    verts = sorted(block)
    edges = [e for e in g.edges if e[0] in block and e[1] in block]
    deg = {v: 0 for v in verts}
    rem = {v: 0 for v in verts}
    for u, v in edges:
        rem[u] += 1
        rem[v] += 1

    def rec(idx: int) -> bool:
        if idx == len(edges):
            return all(d >= 2 for d in deg.values())
        u, v = edges[idx]
        rem[u] -= 1
        rem[v] -= 1
        if deg[u] < b and deg[v] < b:
            deg[u] += 1
            deg[v] += 1
            if rec(idx + 1):
                return True
            deg[u] -= 1
            deg[v] -= 1
        if deg[u] + rem[u] >= 2 and deg[v] + rem[v] >= 2:
            if rec(idx + 1):
                return True
        rem[u] += 1
        rem[v] += 1
        return False

    return rec(0)


def min_small_components_naive(g: Graph, b: int) -> int:
    """Same optimum as ``min_small_components_exact``, by direct enumeration
    of every set partition of the vertices, each block checked by edge-subset
    search."""
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    if g.n > NAIVE_LIMIT:
        raise CapacityError(f"naive oracle limited to {NAIVE_LIMIT} vertices, got {g.n}")
    if g.n == 0:
        return 0

    block_cost: dict[frozenset[int], int | None] = {}

    def cost_of(block: frozenset[int]) -> int | None:
        cached = block_cost.get(block)
        if block in block_cost:
            return cached
        if len(block) == 1:
            c: int | None = 1
        elif len(block) == 2:
            u, v = sorted(block)
            c = 1 if g.adj_bits[u] >> v & 1 else None
        else:
            c = 0 if _feasible_by_edge_subsets(g, block, b) else None
        block_cost[block] = c
        return c

    best: int | None = None
    for part in _set_partitions(list(range(g.n))):
        total = 0
        for blk in part:
            c = cost_of(frozenset(blk))
            if c is None:
                total = -1
                break
            total += c
        if total >= 0 and (best is None or total < best):
            best = total
    return best


def build_random_corpus() -> list[tuple[str, Graph]]:
    items: list[tuple[str, Graph]] = []
    for n in CORPUS_NS:
        for p in CORPUS_PROBS:
            found = 0
            for seed in range(SEED_CAP):
                g = gnp(n, p, seed)
                if all(neighbors(g)):
                    items.append((f"gnp n={n} p={p} seed={seed}", g))
                    found += 1
                    if found == PER_CELL:
                        break
            assert found == PER_CELL, f"seed cap too small for cell n={n} p={p}"
    return items


@pytest.fixture(scope="session")
def random_corpus() -> list[tuple[str, Graph]]:
    return build_random_corpus()


@pytest.fixture(scope="session")
def corpus_oracle(random_corpus):
    """Exact optimum for every corpus instance at every corpus b."""
    results = {}
    for instance, g in random_corpus:
        for b in CORPUS_B_VALUES:
            results[(instance, b)] = min_small_components_exact(g, b)
    return results


@pytest.fixture(scope="session")
def midsize_corpus() -> list[tuple[str, Graph]]:
    """A few n in 10..12 instances, beyond the n <= 9 corpus, for the checks
    that need no oracle."""
    items = []
    for n, p in ((10, 0.4), (11, 0.35), (12, 0.3)):
        for seed in (1, 2, 3):
            items.append((f"gnp n={n} p={p} seed={seed}", gnp(n, p, seed)))
    return items
