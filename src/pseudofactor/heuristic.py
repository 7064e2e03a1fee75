"""Constructive solver: seed a degree-[2,b] subgraph F from a longest-path
cycle, improve it with edge-exchange rewrites under a lexicographic objective,
then cover whatever is left by cycles, edges and vertices.

The objective is (alpha(G - F), |D|, |V(F)|), minimized lexicographically,
where D is a smallest component of G - F. Moves are accepted greedily at the
first strict improvement, so the loop always terminates; a step budget is a
safety net only. The final cover contributes at most alpha(G - F) pieces, so
the assembled factor never has more than alpha(G) small components.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .factor import PseudoFactor, is_2b_subgraph
from .graph import (
    Edge,
    Graph,
    connected_components,
    endpoint_cycle,
    independence_number,
    longest_path,
    norm_edge,
    to_mask,
)

DEFAULT_MAX_STEPS = 200
DEFAULT_MAX_EVALS = 20000

#: move kinds, in the order they are tried (component-absorbing first,
#: degree-shuffling next, deletion last)
MOVE_ORDER = ("X4", "X5", "X6", "X2", "X1", "X3", "X7")


@dataclass(frozen=True)
class ExchangeMove:
    kind: str
    add_edges: tuple[Edge, ...]
    remove_edges: tuple[Edge, ...]


@dataclass(frozen=True)
class StepRecord:
    kind: str
    before: tuple[int, int, int]
    after: tuple[int, int, int]


@dataclass(frozen=True)
class SearchState:
    f_edges: frozenset[Edge]
    f_vertices: frozenset[int]
    d_vertices: frozenset[int]
    attachments: tuple[int, ...]
    objective: tuple[int, int, int]


@dataclass(frozen=True)
class ImproveOutcome:
    state: SearchState
    steps: tuple[StepRecord, ...]
    budget_exhausted: bool


@dataclass(frozen=True)
class CoverPiece:
    kind: str  # "cycle" | "edge" | "vertex"
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class HeuristicResult:
    factor: PseudoFactor
    steps: tuple[StepRecord, ...]
    fallback: bool
    budget_exhausted: bool

    @property
    def small_count(self) -> int:
        return self.factor.small_count


def _alpha_rest(g: Graph, rest: frozenset[int], cache: dict[int, int]) -> int:
    mask = to_mask(rest)
    val = cache.get(mask)
    if val is None:
        val = independence_number(g, within=rest)
        cache[mask] = val
    return val


def _make_state(g: Graph, f_edges, cache: dict[int, int]) -> SearchState:
    f_edges = frozenset(norm_edge(*e) for e in f_edges)
    f_vertices = frozenset(v for e in f_edges for v in e)
    rest = frozenset(range(g.n)) - f_vertices
    comps = connected_components(g, rest)
    if comps:
        d = min(comps, key=lambda c: (len(c), min(c)))
    else:
        d = frozenset()
    attachments = tuple(sorted(v for v in f_vertices if g.adj[v] & d))
    objective = (_alpha_rest(g, rest, cache), len(d), len(f_vertices))
    return SearchState(f_edges, f_vertices, d, attachments, objective)


def initial_subgraph(g: Graph, cache: dict[int, int] | None = None,
                     path: tuple[int, ...] | None = None) -> SearchState:
    """Seed state: the cycle through a longest-path endpoint and its farthest
    path neighbor, when some endpoint has degree >= 2; otherwise F is empty
    and the caller degrades to the cover alone. ``path``, when given, must be
    ``longest_path(g)``."""
    if cache is None:
        cache = {}
    if g.n == 0:
        return _make_state(g, (), cache)
    if path is None:
        path = longest_path(g)
    cyc = endpoint_cycle(g, path)
    if cyc is None:
        cyc = endpoint_cycle(g, path[::-1])
    edges = cyc[1] if cyc is not None else ()
    return _make_state(g, edges, cache)


# ---------------------------------------------------------------------------
# move generation helpers


def _path_through(g: Graph, allowed: frozenset[int], src: int, dst: int,
                  allow_direct: bool = False) -> list[int] | None:
    """Shortest src-dst path whose internal vertices all lie in ``allowed``."""
    if allow_direct and dst in g.adj[src]:
        return [src, dst]
    parent: dict[int, int | None] = {}
    frontier: list[int] = []
    for v in sorted(g.adj[src] & allowed):
        parent[v] = None
        frontier.append(v)
    while frontier:
        hits = [v for v in frontier if dst in g.adj[v]]
        if hits:
            v = min(hits)
            inner = [v]
            while parent[inner[-1]] is not None:
                inner.append(parent[inner[-1]])
            inner.reverse()
            return [src] + inner + [dst]
        nxt: list[int] = []
        for v in frontier:
            for w in sorted(g.adj[v] & allowed):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def _path_to_targets(g: Graph, allowed: frozenset[int], src: int,
                     targets: frozenset[int]) -> list[int] | None:
    """Shortest path from src to any vertex of ``targets`` with internal
    vertices in ``allowed`` (an edge when src touches a target directly)."""
    direct = g.adj[src] & targets
    if direct:
        return [src, min(direct)]
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for v in sorted(g.adj[src] & allowed):
        parent[v] = None
        queue.append(v)
    while queue:
        v = queue.popleft()
        hit = g.adj[v] & targets
        if hit:
            inner = [v]
            while parent[inner[-1]] is not None:
                inner.append(parent[inner[-1]])
            inner.reverse()
            return [src] + inner + [min(hit)]
        for w in sorted(g.adj[v] & allowed):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def _path_edges(path: list[int]) -> tuple[Edge, ...]:
    return tuple(norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1))


def _cycle_within(g: Graph, d: frozenset[int]):
    """A cycle inside G[d]: the longest-path endpoint cycle when available,
    otherwise any cycle found by DFS. None when G[d] is a forest."""
    if len(d) < 3:
        return None
    path = longest_path(g, within=d)
    cyc = endpoint_cycle(g, path, within=d)
    if cyc is None:
        cyc = endpoint_cycle(g, path[::-1], within=d)
    if cyc is not None:
        return cyc

    # all longest-path endpoints have degree <= 1 in d; hunt any cycle by DFS
    done: set[int] = set()
    on_path: dict[int, int] = {}
    stack_path: list[int] = []

    def dfs(v: int, parent_v: int) -> list[int] | None:
        on_path[v] = len(stack_path)
        stack_path.append(v)
        for w in sorted(g.adj[v] & d):
            if w == parent_v or w in done:
                continue
            if w in on_path:
                return stack_path[on_path[w]:]
            found = dfs(w, v)
            if found is not None:
                return found
        stack_path.pop()
        del on_path[v]
        done.add(v)
        return None

    for root in sorted(d):
        if root in done:
            continue
        cycle = dfs(root, -1)
        if cycle is not None:
            return frozenset(cycle), _path_edges(cycle) + (norm_edge(cycle[-1], cycle[0]),)
    return None


def _f_adjacency(f_edges: frozenset[Edge]) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in f_edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _deletable_segments(state: SearchState, fadj: dict[int, set[int]]):
    """Maximal runs of degree-2 F-vertices whose deletion keeps all remaining
    F-degrees >= 2; whole cyclic F-components qualify unconditionally."""
    deg2 = {v for v in state.f_vertices if len(fadj[v]) == 2}
    visited: set[int] = set()
    for seed in sorted(deg2):
        if seed in visited:
            continue
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for w in fadj[v]:
                if w in deg2 and w not in comp:
                    comp.add(w)
                    stack.append(w)
        visited |= comp
        inner = {e for e in state.f_edges if e[0] in comp and e[1] in comp}
        boundary = {e for e in state.f_edges if (e[0] in comp) != (e[1] in comp)}
        removal = tuple(sorted(inner | boundary))
        if not boundary:
            yield removal  # an entire cycle component
            continue
        outside = [e[0] if e[1] in comp else e[1] for e in boundary]
        if len(outside) != 2:
            continue
        a, z = outside
        if a == z and len(fadj[a]) - 2 < 2:
            continue
        yield removal


def enumerate_moves(state: SearchState, g: Graph, b: int) -> list[ExchangeMove]:
    """Candidate rewrites of F, every one already validated to yield a
    degree-[2,b] subgraph. Empty when G - F has no component."""
    if not state.d_vertices:
        return []
    moves: list[ExchangeMove] = []
    d = state.d_vertices
    att = state.attachments
    fadj = _f_adjacency(state.f_edges)

    def consider(kind: str, add: tuple[Edge, ...], remove: tuple[Edge, ...]):
        new_edges = (state.f_edges - set(remove)) | set(add)
        verts = frozenset(v for e in new_edges for v in e)
        if is_2b_subgraph(g, verts, new_edges, b):
            moves.append(ExchangeMove(kind, tuple(sorted(set(add))),
                                      tuple(sorted(set(remove)))))

    cyc = _cycle_within(g, d)

    # X4: absorb a cycle of D into F
    if cyc is not None:
        cverts, cedges = cyc
        consider("X4", cedges, ())

        # X5: hook the cycle onto F through a connector from an attachment
        for u in att:
            q = _path_to_targets(g, d - cverts, u, cverts)
            if q is None:
                continue
            q_edges = _path_edges(q)
            if len(fadj[u]) <= b - 1:
                consider("X5", cedges + q_edges, ())
            for x in sorted(fadj[u]):
                if len(fadj[x]) >= 3:
                    consider("X5", cedges + q_edges, (norm_edge(u, x),))

    # X6: D is a tree; loop two of its leaves through a shared F-neighbor
    if cyc is None and len(d) >= 2:
        d_leaves = sorted(v for v in d if len(g.adj[v] & d) == 1)
        for x0, y0 in itertools.combinations(d_leaves, 2):
            commons = sorted(g.adj[x0] & g.adj[y0] & state.f_vertices)
            if not commons:
                continue
            p = _path_through(g, d - {x0, y0}, x0, y0, allow_direct=True)
            if p is None:
                continue
            p_edges = _path_edges(p)
            for u in commons:
                if len(fadj[u]) <= b - 2:
                    consider("X6", (norm_edge(u, x0),) + p_edges + (norm_edge(u, y0),), ())

    # moves through the connector of an attachment pair (a shortest path
    # with internal vertices in D); the sort below puts the kinds in order
    for ui, uj in itertools.combinations(att, 2):
        p = _path_through(g, d, ui, uj)
        if p is None:
            continue
        conn = _path_edges(p)

        # X2: bridge two attachments of degree <= b-1
        if len(fadj[ui]) <= b - 1 and len(fadj[uj]) <= b - 1:
            consider("X2", conn, ())

        # X1: reroute an F-edge between the two attachments through D
        e = norm_edge(ui, uj)
        if e in state.f_edges:
            consider("X1", conn, (e,))

        # X3: detach one F-edge at each attachment, reconnect through D
        for x in sorted(fadj[ui]):
            if x == uj:
                continue
            for y in sorted(fadj[uj]):
                if y == ui:
                    continue
                if x == y:
                    if len(fadj[x]) < 4:
                        continue
                elif len(fadj[x]) < 3 or len(fadj[y]) < 3:
                    continue
                consider("X3", conn, (norm_edge(ui, x), norm_edge(uj, y)))

    # X7: delete a maximal degree-2 segment of F
    for removal in _deletable_segments(state, fadj):
        consider("X7", (), removal)

    order = {kind: i for i, kind in enumerate(MOVE_ORDER)}
    moves.sort(key=lambda m: order[m.kind])
    return moves


def apply_move(state: SearchState, move: ExchangeMove, g: Graph,
               cache: dict[int, int]) -> SearchState:
    """State after a move that ``enumerate_moves`` returned for ``state``;
    the move is trusted to keep F a degree-[2,b] subgraph."""
    new_edges = (state.f_edges - set(move.remove_edges)) | set(move.add_edges)
    return _make_state(g, new_edges, cache)


def improve(state: SearchState, g: Graph, b: int,
            max_steps: int = DEFAULT_MAX_STEPS,
            max_evals: int = DEFAULT_MAX_EVALS,
            cache: dict[int, int] | None = None) -> ImproveOutcome:
    """Greedy first-improvement descent on (alpha(G-F), |D|, |V(F)|).

    Returns once no enumerated move improves the objective, or with the
    budget_exhausted flag set when the step/evaluation budget runs out first.
    """
    if cache is None:
        cache = {}
    steps: list[StepRecord] = []
    evals = 0
    exhausted = False
    while len(steps) < max_steps:
        if not state.d_vertices:
            break
        improved = False
        for move in enumerate_moves(state, g, b):
            if evals >= max_evals:
                exhausted = True
                break
            evals += 1
            candidate = apply_move(state, move, g, cache)
            if candidate.objective < state.objective:
                steps.append(StepRecord(move.kind, state.objective, candidate.objective))
                state = candidate
                improved = True
                break
        if exhausted or not improved:
            break
    else:
        exhausted = True
    return ImproveOutcome(state, tuple(steps), exhausted)


# ---------------------------------------------------------------------------
# remainder cover


def posa_cover(g: Graph, within, path: tuple[int, ...] | None = None) -> list[CoverPiece]:
    """Vertex-disjoint cycles, edges and vertices partitioning ``within``.

    Repeatedly takes a longest path of the remainder: the endpoint cycle when
    an endpoint has degree >= 2 there, otherwise the path's last edge,
    otherwise a singleton. Every extracted piece contains the closed
    neighborhood of the examined endpoint, so the piece count never exceeds
    the independence number of the induced subgraph. ``path``, when given,
    must be ``longest_path(g, within=within)`` and stands in for the first
    search.
    """
    remaining = frozenset(within)
    pieces: list[CoverPiece] = []
    while remaining:
        if path is None:
            path = longest_path(g, within=remaining)
        cyc = endpoint_cycle(g, path, within=remaining)
        if cyc is None:
            cyc = endpoint_cycle(g, path[::-1], within=remaining)
        if cyc is not None:
            verts, edges = cyc
            pieces.append(CoverPiece("cycle", tuple(sorted(verts)), tuple(sorted(edges))))
            remaining -= verts
        elif len(path) >= 2:
            u, v = path[-2], path[-1]
            pieces.append(CoverPiece("edge", tuple(sorted((u, v))), (norm_edge(u, v),)))
            remaining -= {u, v}
        else:
            pieces.append(CoverPiece("vertex", (path[0],), ()))
            remaining -= {path[0]}
        path = None
    return pieces


def solve(g: Graph, b: int) -> HeuristicResult:
    """Full pipeline: seed, improve, cover the rest, assemble and validate.

    The result always validates; its small-component count is at most
    alpha(G). b = 2 and b = 3 are accepted (the degree window is meaningful
    for any b >= 2); only the bound guarantees are specific to other b.
    """
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    cache: dict[int, int] = {}
    # one path search seeds F and, when F stays empty, starts the cover
    path = longest_path(g) if g.n else None
    state = initial_subgraph(g, cache, path=path)
    fallback = not state.f_edges
    if fallback:
        outcome = ImproveOutcome(state, (), False)
    else:
        outcome = improve(state, g, b, cache=cache)
    final = outcome.state
    rest = frozenset(range(g.n)) - final.f_vertices
    pieces = posa_cover(g, rest, path=path if fallback else None)
    edges = set(final.f_edges)
    for piece in pieces:
        edges.update(piece.edges)
    factor = PseudoFactor.build(g, edges, b)
    return HeuristicResult(
        factor=factor,
        steps=outcome.steps,
        fallback=fallback,
        budget_exhausted=outcome.budget_exhausted,
    )
