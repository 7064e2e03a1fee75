"""Constructive solver: seed a degree-[2,b] subgraph F from a longest-path
cycle, improve it with edge-exchange rewrites under a lexicographic objective,
then cover whatever is left by cycles, edges and vertices.

The objective is (alpha(G - F), |D|, |V(F)|), minimized lexicographically,
where D is a smallest component of G - F. Moves are accepted greedily at the
first strict improvement, so the objective strictly decreases and the loop
ends after at most (alpha(G)+1)(n+1)^2 steps. The seed and every cover piece
come from one rule, ``_first_piece``, as does X4's cycle unless D's first
piece is not a cycle, when one DFS of D finds it. The final cover adds at
most alpha(G - F) pieces, so the factor has at most alpha(G) small components.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import NamedTuple

from .errors import NonMaximalPathError
from .factor import PseudoFactor
from .graph import Edge, Graph, bits, component_masks, norm_edge, vertex_mask
from .memo import SolveMemo

#: move kinds, in the order they are tried (component-absorbing first,
#: degree-shuffling next, deletion last)
MOVE_ORDER = ("X4", "X6", "X2", "X1", "X3", "X7")


class ExchangeMove(NamedTuple):
    kind: str
    add_edges: tuple[Edge, ...]
    remove_edges: tuple[Edge, ...]


class StepRecord(NamedTuple):
    kind: str
    before: tuple[int, int, int]
    after: tuple[int, int, int]


class SearchState(NamedTuple):
    f_edges: frozenset[Edge]
    f_mask: int
    d_mask: int
    objective: tuple[int, int, int]


class ImproveOutcome(NamedTuple):
    state: SearchState
    steps: tuple[StepRecord, ...]
    need: int


class HeuristicResult(NamedTuple):
    factor: PseudoFactor
    steps: tuple[StepRecord, ...]
    fallback: bool

    @property
    def small_count(self) -> int:
        return self.factor.small_count


def _make_state(g: Graph, f_edges, memo: SolveMemo) -> SearchState:
    """State of the normalized edge set ``f_edges``. D is the first smallest
    component of G - F; components come by smallest member, so ties go to
    the lowest one."""
    f_edges = frozenset(f_edges)
    f_mask = 0
    for u, v in f_edges:
        f_mask |= 1 << u | 1 << v
    rest = g.full_mask ^ f_mask
    d = min(component_masks(g.adj_bits, rest), key=int.bit_count, default=0)
    objective = (memo.alpha(rest), d.bit_count(), f_mask.bit_count())
    return SearchState(f_edges, f_mask, d, objective)


def _path_edges(path) -> tuple[Edge, ...]:
    return tuple(norm_edge(path[i], path[i + 1]) for i in range(len(path) - 1))


def _cycle_edges(vertices) -> tuple[Edge, ...]:
    """Edges of the cycle through ``vertices`` in order, closed by the edge
    from the last back to the first."""
    return _path_edges(vertices) + (norm_edge(vertices[-1], vertices[0]),)


def _first_piece(g: Graph, mask: int, memo: SolveMemo) -> tuple[int, tuple[Edge, ...]]:
    """(vertex mask, edges) of the piece of the nonempty vertex mask ``mask``
    that the cover takes first. From the longest path ``memo.path(mask)``:
    the endpoint cycle at its first end, else the one at its last end, else
    its last edge, else its one vertex; only a cycle has three or more
    vertices. The endpoint cycle at an end u with at least two neighbors in
    G[mask] runs along the path from u to u's farthest neighbor on it and
    closes with that chord. A longest path is maximal at u, so all of u's
    neighbors lie on it and the piece holds u's closed neighborhood in
    G[mask]; a path that is not maximal there raises NonMaximalPathError."""
    path = memo.path(mask)
    for walk in (path, path[::-1]):
        nbrs = g.adj_bits[walk[0]] & mask
        if nbrs.bit_count() < 2:
            continue
        hits = [i for i, v in enumerate(walk) if nbrs >> v & 1]
        if len(hits) < nbrs.bit_count():
            raise NonMaximalPathError("path is not maximal at its endpoint")
        cyc = walk[: hits[-1] + 1]
        return sum(1 << v for v in cyc), _cycle_edges(cyc)
    if len(path) >= 2:
        e = norm_edge(path[-2], path[-1])
        return 1 << e[0] | 1 << e[1], (e,)
    return 1 << path[0], ()


def initial_subgraph(g: Graph, memo: SolveMemo | None = None) -> SearchState:
    """Seed state: G's first cover piece when it is a cycle (three or more
    vertices); otherwise F is empty and the caller degrades to the cover
    alone."""
    memo = SolveMemo.of(g, memo)
    edges = ()
    if g.n:
        piece_mask, piece_edges = _first_piece(g, g.full_mask, memo)
        if piece_mask.bit_count() >= 3:
            edges = piece_edges
    return _make_state(g, edges, memo)


# ---------------------------------------------------------------------------
# move generation helpers


def _path_through(g: Graph, allowed: int, src: int, dst: int) -> list[int] | None:
    """Shortest src-dst path with at least one internal vertex, all of them
    in the vertex mask ``allowed``."""
    adj = g.adj_bits
    parent: dict[int, int | None] = {}
    frontier: list[int] = []
    for v in bits(adj[src] & allowed):
        parent[v] = None
        frontier.append(v)
    while frontier:
        hits = [v for v in frontier if adj[v] >> dst & 1]
        if hits:
            v = min(hits)
            inner = [v]
            while parent[inner[-1]] is not None:
                inner.append(parent[inner[-1]])
            inner.reverse()
            return [src] + inner + [dst]
        nxt: list[int] = []
        for v in frontier:
            for w in bits(adj[v] & allowed):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def _cycle_within(g: Graph, d: int, memo: SolveMemo):
    """The edges of a cycle inside G[d], d the vertex mask of a connected
    subgraph: D's first cover piece when it is a cycle, otherwise any cycle
    found by DFS. None when G[d] is a forest (a tree)."""
    if d.bit_count() < 3:
        return None
    piece_mask, edges = _first_piece(g, d, memo)
    if piece_mask.bit_count() >= 3:
        return edges

    # all longest-path endpoints have degree <= 1 in d; d is connected, so one
    # DFS from its lowest vertex sees every edge; a finished neighbour is a child
    on_path: dict[int, int] = {}
    stack_path: list[int] = []

    def dfs(v: int, parent_v: int) -> list[int] | None:
        on_path[v] = len(stack_path)
        stack_path.append(v)
        for w in bits(g.adj_bits[v] & d):
            if w == parent_v:
                continue
            if w in on_path:
                return stack_path[on_path[w]:]
            found = dfs(w, v)
            if found is not None:
                return found
        stack_path.pop()
        del on_path[v]
        return None

    cycle = dfs((d & -d).bit_length() - 1, -1)
    return None if cycle is None else _cycle_edges(cycle)


def _deletable_segments(state: SearchState, fadj):
    """Maximal runs of degree-2 F-vertices whose deletion keeps all remaining
    F-degrees >= 2; whole cyclic F-components qualify unconditionally.
    ``fadj`` is F's adjacency as bitmasks.

    A run is a whole cycle or a path with one F-edge leaving each end. Those
    two edges end at F-vertices of degree >= 3, which stay >= 2 unless both
    end at one vertex of degree 3."""
    deg2 = sum(1 << v for v in bits(state.f_mask) if fadj[v].bit_count() == 2)
    for comp in component_masks(fadj, deg2):
        outside = 0
        for v in bits(comp):
            outside |= fadj[v]
        outside &= ~comp
        if outside.bit_count() == 1 and fadj[outside.bit_length() - 1].bit_count() < 4:
            continue
        yield tuple(sorted(e for e in state.f_edges if (comp >> e[0] | comp >> e[1]) & 1))


def _candidates(state: SearchState, g: Graph, b: int, memo: SolveMemo):
    """The ``ExchangeMove`` rewrites of F, in ``MOVE_ORDER``; nothing when
    G - F has no component.

    Each keeps F a degree-[2,b] subgraph by construction: every added edge
    has an end in D, so it is new; a vertex of D gets degree 2; an F-vertex
    keeps its degree, or gains up to the bound already checked; a removal
    lowers only F-vertices checked to stay at 2 or more."""
    d = state.d_mask
    if not d:
        return
    adj = g.adj_bits

    # X4: absorb a cycle of D into F
    cyc = _cycle_within(g, d, memo)
    if cyc is not None:
        yield ExchangeMove("X4", cyc, ())

    fadj = Graph.build(g.n, state.f_edges).adj_bits
    fdeg = [a.bit_count() for a in fadj]

    # X6: loop two leaves of D through a shared F-neighbor (D is a component
    # of G - F, so a neighbor of D outside D lies in F). D is connected, so
    # two adjacent leaves make up all of D, and otherwise the path between
    # them runs inside D minus the two: the path search always finds one
    d_leaves = [v for v in bits(d) if (adj[v] & d).bit_count() == 1]
    for x0, y0 in itertools.combinations(d_leaves, 2):
        commons = adj[x0] & adj[y0] & ~d
        if not commons:
            continue
        p = [x0, y0] if adj[x0] >> y0 & 1 else _path_through(g, d ^ (1 << x0 | 1 << y0), x0, y0)
        for u in bits(commons):
            if fdeg[u] <= b - 2:
                yield ExchangeMove("X6", _cycle_edges([u] + p), ())

    # attachments: the F-vertices with a neighbor in D; their pairs are walked
    # once per kind: X2, then X1, then X3. A pair's connector, a shortest path
    # with internal vertices in D, always exists because D is connected; it is
    # searched for only when a move is yielded
    attachments = [v for v in bits(state.f_mask) if adj[v] & d]
    pairs = list(itertools.combinations(attachments, 2))

    def connector(ui: int, uj: int) -> tuple[Edge, ...]:
        return _path_edges(_path_through(g, d, ui, uj))

    # X2: bridge two attachments of degree <= b-1
    for ui, uj in pairs:
        if fdeg[ui] <= b - 1 and fdeg[uj] <= b - 1:
            yield ExchangeMove("X2", connector(ui, uj), ())

    # X1: reroute an F-edge between the two attachments through D
    for ui, uj in pairs:
        e = norm_edge(ui, uj)
        if e in state.f_edges:
            yield ExchangeMove("X1", connector(ui, uj), (e,))

    # X3: detach one F-edge at each attachment, reconnect through D
    for ui, uj in pairs:
        for x in bits(fadj[ui]):
            if x == uj:
                continue
            for y in bits(fadj[uj]):
                if y == ui:
                    continue
                if x == y:
                    if fdeg[x] < 4:
                        continue
                elif fdeg[x] < 3 or fdeg[y] < 3:
                    continue
                yield ExchangeMove("X3", connector(ui, uj), (norm_edge(ui, x), norm_edge(uj, y)))

    # X7: delete a maximal degree-2 segment of F
    for removal in _deletable_segments(state, fadj):
        yield ExchangeMove("X7", (), removal)


def enumerate_moves(state: SearchState, g: Graph, b: int,
                    memo: SolveMemo | None = None) -> list[ExchangeMove]:
    """The rewrites of F that ``improve`` evaluates, in ``MOVE_ORDER``. Every
    kind but X7 keeps V(F) and adds part of D, so alpha(G - F) cannot rise
    and, if it stays, |D| drops: the first such move improves and is returned
    alone. Otherwise the list holds every X7 (empty when G - F is empty)."""
    memo = SolveMemo.of(g, memo)
    moves: list[ExchangeMove] = []
    for move in _candidates(state, g, b, memo):
        if move.kind != "X7":
            return [move]
        moves.append(move)
    return moves


def apply_move(state: SearchState, move: ExchangeMove, g: Graph,
               memo: SolveMemo) -> SearchState:
    """State after a move that ``enumerate_moves`` returned for ``state``,
    which keeps F a degree-[2,b] subgraph by construction."""
    new_edges = (state.f_edges - set(move.remove_edges)) | set(move.add_edges)
    return _make_state(g, new_edges, memo)


def improve(state: SearchState, g: Graph, b: int,
            memo: SolveMemo | None = None) -> ImproveOutcome:
    """Greedy first-improvement descent on (alpha(G-F), |D|, |V(F)|).

    Each step evaluates the moves ``enumerate_moves`` returns, in order, and
    takes the first that improves the objective: one move, or at most one
    X7 per maximal degree-2 segment of F. Returns once G - F is empty or no
    move improves. Each step strictly lowers the objective, which lies in
    [0, alpha(G)] x [0, n] x [0, n], so there are at most
    (alpha(G)+1)(n+1)^2 steps.

    b enters only through two degree caps on the moves (X6 needs its
    F-vertex at degree <= b - 2, X2 both ends at <= b - 1). ``need`` is 2
    plus the largest F-degree of the states whose moves were enumerated
    (every state with a nonempty D), or 2 when there were none: at every
    b >= need neither cap binds, so the descent is the same, and ``solve``
    shares it across b on that rule.
    """
    memo = SolveMemo.of(g, memo)
    steps: list[StepRecord] = []
    top = 0  # the largest F-degree of a state with a nonempty D
    while state.d_mask:
        top = max([top, *Counter(itertools.chain.from_iterable(state.f_edges)).values()])
        for move in enumerate_moves(state, g, b, memo):
            candidate = apply_move(state, move, g, memo)
            if candidate.objective < state.objective:
                steps.append(StepRecord(move.kind, state.objective, candidate.objective))
                state = candidate
                break
        else:
            break  # no move improves
    return ImproveOutcome(state, tuple(steps), 2 + top)


# ---------------------------------------------------------------------------
# remainder cover


def posa_cover(g: Graph, mask: int, memo: SolveMemo | None = None) -> tuple[Edge, ...]:
    """Edges of vertex-disjoint cycles, edges and vertices partitioning the
    vertex mask ``mask``: the pieces are the components of these edges
    within ``mask``.

    Repeatedly takes the ``_first_piece`` of the remainder. Every piece
    holds the closed neighborhood of a vertex of the remainder, so the
    piece count never exceeds the independence number of the induced
    subgraph.
    """
    memo = SolveMemo.of(g, memo)
    remaining = vertex_mask(g, mask)
    edges: list[Edge] = []
    while remaining:
        piece_mask, piece_edges = _first_piece(g, remaining, memo)
        edges += piece_edges
        remaining ^= piece_mask
    return tuple(edges)


def solve(g: Graph, b: int, memo: SolveMemo | None = None) -> HeuristicResult:
    """Full pipeline: seed, improve, cover the rest, assemble and validate.

    The result always validates; its small-component count is at most
    alpha(G). b = 2 and b = 3 are accepted (the degree window is meaningful
    for any b >= 2); only the bound guarantees are specific to other b.
    ``memo``, when given, must be a ``SolveMemo`` of this very graph; calls
    for several b may share it, and get the results of fresh calls. A call
    whose descent has need <= b (``ImproveOutcome.need``; 2 for the
    fallback, which has no descent) keeps it in ``memo.descent``, and a
    later call at any b >= need returns the kept result itself without
    seeding, descending or covering. A factor is a pseudo [2,b]-factor at
    every b >= max(2, max_degree), and the descent's need bounds its factor's
    max_degree; a kept factor whose max_degree exceeds b all the same raises
    the FactorError that ``PseudoFactor.build`` raises at that b.
    """
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    memo = SolveMemo.of(g, memo)
    if memo.descent is not None and memo.descent[0] <= b:
        shared = memo.descent[1]
        if shared.factor.max_degree > b:  # a vertex of degree >= 3 lies in a large component
            PseudoFactor.build(g, shared.factor.edges, b)  # raises, naming it
        return shared
    state = initial_subgraph(g, memo)
    fallback = not state.f_edges
    outcome = ImproveOutcome(state, (), 2) if fallback else improve(state, g, b, memo)
    final = outcome.state
    cover = posa_cover(g, g.full_mask ^ final.f_mask, memo)
    factor = PseudoFactor.build(g, final.f_edges.union(cover), b)
    result = HeuristicResult(factor=factor, steps=outcome.steps, fallback=fallback)
    if outcome.need <= b:
        memo.descent = (outcome.need, result)
    return result
