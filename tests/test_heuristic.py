import ast
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import all_labelled_graphs, cover_pieces, mask_of, neighbors, small_graphs
import pseudofactor.memo as memo_module
from pseudofactor import heuristic
from pseudofactor.factor import is_2b_subgraph, validate_pseudo_factor
from pseudofactor.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    join_sharpness,
    path_graph,
    pendant_sharpness,
)
from pseudofactor.graph import Graph, bits, component_masks, independence_number, longest_path, vertex_mask
from pseudofactor.harness import verify_instance
from pseudofactor.heuristic import (
    MOVE_ORDER,
    SolveMemo,
    apply_move,
    enumerate_moves,
    improve,
    initial_subgraph,
    posa_cover,
    solve,
)
from pseudofactor.oracle import min_small_components_exact


def attachments(state, g):
    """The F-vertices with a neighbor in D, ascending."""
    return [v for v in bits(state.f_mask) if g.adj_bits[v] & state.d_mask]


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.build(a.n + b.n, edges)


class TestInitialSubgraph:
    def test_cycle_seeds_itself(self):
        state = initial_subgraph(cycle_graph(5))
        assert state.f_mask == 0b11111
        assert state.d_mask == 0
        assert state.objective == (0, 0, 5)

    def test_hub_join_three_edges(self):
        g = join_sharpness(complete_graph(1), 3)
        state = initial_subgraph(g)
        # the seed cycle is a triangle through the hub and one pair;
        # the smallest leftover component is a pair
        assert state.f_mask.bit_count() == 3
        assert state.f_mask & 1
        assert state.d_mask.bit_count() == 2
        assert attachments(state, g) == [0]

    def test_single_edge_falls_back(self):
        state = initial_subgraph(complete_graph(2))
        assert state.f_edges == frozenset()
        assert state.d_mask == 0b11


def visited_states(g, b):
    """Every state ``_make_state`` builds while ``initial_subgraph`` and
    ``improve`` run on ``g`` at ``b``."""
    visited = []
    make_state = heuristic._make_state

    def recording(*args):
        visited.append(make_state(*args))
        return visited[-1]

    with mock.patch.object(heuristic, "_make_state", recording):
        improve(initial_subgraph(g), g, b)
    return visited


def set_components(g, within):
    """Components of G[within] by search over ``neighbors(g)``, each a
    frozenset."""
    neigh = neighbors(g)
    left = set(within)
    comps = []
    while left:
        comp = {min(left)}
        frontier = list(comp)
        while frontier:
            v = frontier.pop()
            for w in neigh[v] & left - comp:
                comp.add(w)
                frontier.append(w)
        left -= comp
        comps.append(frozenset(comp))
    return comps


class TestSearchState:
    @given(small_graphs(max_n=10), st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_every_visited_state_matches_set_references(self, g, b):
        visited = visited_states(g, b)
        assert visited
        for state in visited:
            f_verts = {v for e in state.f_edges for v in e}
            assert state.f_mask == sum(1 << v for v in f_verts)
            rest = set(range(g.n)) - f_verts
            comps = set_components(g, rest)
            d = {v for v in range(g.n) if state.d_mask >> v & 1}
            if comps:
                # a smallest component, the one with the lowest vertex on ties
                assert d == min(comps, key=lambda c: (len(c), min(c)))
            else:
                assert not d
            assert state.objective == (
                independence_number(g, mask_of(rest)), len(d), len(f_verts))


class TestEnumerateMoves:
    def test_no_moves_when_nothing_left(self):
        state = initial_subgraph(cycle_graph(5))
        assert enumerate_moves(state, cycle_graph(5), 4) == []

    def test_bridge_move_present(self):
        # C4 plus an apex on opposite corners: the seed cycle is the C4,
        # leaving the apex adjacent to two attachments of degree 2 < b
        g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4)])
        state = initial_subgraph(g)
        assert state.d_mask == 1 << 4
        assert attachments(state, g) == [0, 2]
        bridge = next(m for m in enumerate_moves(state, g, 4) if m.kind == "X2")
        assert set(bridge.add_edges) == {(0, 4), (2, 4)}

    def test_absorb_cycle_move_present(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        state = initial_subgraph(g)
        assert state.d_mask == 0b111000
        moves = enumerate_moves(state, g, 4)
        assert moves and moves[0].kind == "X4"
        assert set(moves[0].add_edges) == {(3, 4), (4, 5), (3, 5)}

    def test_segment_delete_move_present(self):
        g = disjoint_union(cycle_graph(5), complete_graph(2))
        state = initial_subgraph(g)
        kinds = {m.kind for m in enumerate_moves(state, g, 4)}
        assert "X7" in kinds

    @staticmethod
    def assert_candidates_keep_the_degree_window(state, g, b):
        # the moves are valid by construction; is_2b_subgraph is the reference
        for move in heuristic._candidates(state, g, b, SolveMemo(g)):
            add, remove = set(move.add_edges), set(move.remove_edges)
            assert len(add) == len(move.add_edges) and not add & state.f_edges, move
            assert len(remove) == len(move.remove_edges) and remove <= state.f_edges, move
            new_edges = (state.f_edges - remove) | add
            verts = frozenset(v for e in new_edges for v in e)
            assert is_2b_subgraph(g, verts, new_edges, b), (state, move)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_candidate_keeps_the_degree_window_exhaustive(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                g = Graph.build(n, edges)
                for b in range(2, 7):
                    for state in visited_states(g, b):
                        self.assert_candidates_keep_the_degree_window(state, g, b)

    @given(small_graphs(max_n=10), st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_every_candidate_keeps_the_degree_window(self, g, b):
        for state in visited_states(g, b):
            self.assert_candidates_keep_the_degree_window(state, g, b)

    def test_every_attachment_pair_has_a_connector(self):
        # D is a component of G - F, so it is connected, and each attachment
        # has a neighbor in it: X2, X1 and X3 always find a connector
        pairs = 0
        for g in all_labelled_graphs(5):
            for b in range(2, 7):
                for state in visited_states(g, b):
                    for ui, uj in itertools.combinations(attachments(state, g), 2):
                        path = heuristic._path_through(g, state.d_mask, ui, uj)
                        assert path is not None, (g.edges, b, state)
                        pairs += 1
        assert pairs > 0

    def test_every_leaf_pair_has_a_loop_path(self):
        # X6 joins two non-adjacent leaves of D by a path inside D minus the
        # two; D is connected, so on every connected vertex mask one exists
        pairs = 0
        for g in all_labelled_graphs(5):
            adj = g.adj_bits
            for d in range(1, g.full_mask + 1):
                if next(component_masks(adj, d)) != d:
                    continue
                leaves = [v for v in bits(d) if (adj[v] & d).bit_count() == 1]
                for x0, y0 in itertools.combinations(leaves, 2):
                    if adj[x0] >> y0 & 1:
                        continue
                    inner = d ^ (1 << x0 | 1 << y0)
                    assert heuristic._path_through(g, inner, x0, y0) is not None, (g.edges, d)
                    pairs += 1
        assert pairs > 0

    def test_segment_ending_twice_at_a_degree_3_vertex_kept(self):
        # F is two triangles joined by the edge 2-3, D the vertex 6: each
        # degree-2 run {0, 1} and {4, 5} ends twice at one degree-3 vertex,
        # which its deletion would leave at degree 1
        f_edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
        g = Graph.build(7, f_edges + [(0, 6)])
        state = heuristic._make_state(g, f_edges, SolveMemo(g))
        assert state.d_mask == 1 << 6
        assert list(heuristic._candidates(state, g, 4, SolveMemo(g))) == []
        # a degree-4 vertex may lose both ends: the figure eight at 2
        f_edges = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]
        g = Graph.build(6, f_edges + [(0, 5)])
        state = heuristic._make_state(g, f_edges, SolveMemo(g))
        moves = list(heuristic._candidates(state, g, 4, SolveMemo(g)))
        assert [m.remove_edges for m in moves] == [((0, 1), (0, 2), (1, 2)),
                                                   ((2, 3), (2, 4), (3, 4))]
        self.assert_candidates_keep_the_degree_window(state, g, 4)

    def test_kinds_follow_move_order(self, monkeypatch):
        # the full catalog comes out in MOVE_ORDER (X2, X1 and X3
        # share each attachment pair's connector but are walked kind by kind);
        # enumerate_moves stops at its first entry unless that is an X7
        visited = []

        def recording(state, g, b, memo=None):
            visited.append((state, g, b))
            return enumerate_moves(state, g, b, memo)

        monkeypatch.setattr(heuristic, "enumerate_moves", recording)
        for n in range(7, 11):
            for b in range(2, 7):
                for seed in range(5):
                    solve(gnp(n, 0.4, seed), b)
        rank = {kind: i for i, kind in enumerate(MOVE_ORDER)}
        catalogs = []
        for state, g, b in visited:
            full = list(heuristic._candidates(state, g, b, SolveMemo(g)))
            catalogs.append([m.kind for m in full])
            ranks = [rank[m.kind] for m in full]
            assert ranks == sorted(ranks), catalogs[-1]
            moves = enumerate_moves(state, g, b)
            assert moves == (full[:1] if full and full[0].kind != "X7" else full)
            # every move but X7 keeps V(F) and adds part of D, so alpha(G - F)
            # cannot rise and, if it stays, |D| drops
            memo = SolveMemo(g)
            for move in full:
                if move.kind != "X7":
                    assert apply_move(state, move, g, memo).objective < state.objective, move
        assert any(len({"X1", "X2", "X3"} & set(kinds)) >= 2 for kinds in catalogs)
        assert any(kinds[:1] == ["X4"] and len(kinds) >= 2 for kinds in catalogs)
        assert any(kinds.count("X7") == len(kinds) >= 2 for kinds in catalogs)

    @given(st.integers(5, 12), st.sampled_from((0.25, 0.3, 0.35, 0.4, 0.5)),
           st.integers(0, 10**6), st.integers(2, 6))
    @example(8, 0.35, 1, 4)  # each example reaches a D that holds a cycle
    @example(11, 0.35, 5, 4)
    @example(9, 0.35, 10, 2)
    @settings(max_examples=150, deadline=None)
    def test_cycle_in_d_leaves_x4_alone(self, n, p, seed, b):
        # X4 comes first in MOVE_ORDER and always keeps the degree window
        g = gnp(n, p, seed)
        state = initial_subgraph(g)
        if not state.f_edges:
            return  # solve covers G directly and never calls improve
        memo = SolveMemo(g)
        while state.d_mask:
            moves = enumerate_moves(state, g, b)
            d = state.d_mask
            # D is connected, so it holds a cycle iff |E(G[D])| >= |D|
            if sum(d >> u & d >> v & 1 for u, v in g.edges) >= d.bit_count():
                assert [m.kind for m in moves] == ["X4"]
            # walk on as improve does: the first strictly better state
            after = (apply_move(state, m, g, memo) for m in moves)
            state = next((c for c in after if c.objective < state.objective), None)
            if state is None:
                break

    def test_cycle_within_finds_one_cycle_exactly_off_forests(self):
        # every connected vertex mask d of every labelled graph on <= 5
        # vertices: X4's cycle is the edges of one cycle inside G[d], and
        # there is one exactly when G[d] is not a forest (a tree, d being
        # connected); some d reach the DFS past a non-cycle first piece
        fallbacks = 0
        for g in all_labelled_graphs(5):
            memo = SolveMemo(g)
            for d in range(1, 1 << g.n):
                if next(component_masks(g.adj_bits, d)) != d:
                    continue
                inside = {e for e in g.edges if d >> e[0] & 1 and d >> e[1] & 1}
                cycle = heuristic._cycle_within(g, d, memo)
                if len(inside) == d.bit_count() - 1:
                    assert cycle is None, (g.edges, d)
                    continue
                assert cycle and len(set(cycle)) == len(cycle) and set(cycle) <= inside, (g.edges, d)
                on_cycle = mask_of(v for e in cycle for v in e)
                f = Graph.build(g.n, cycle)
                assert all(f.adj_bits[v].bit_count() == 2 for v in bits(on_cycle)), (g.edges, d)
                assert next(component_masks(f.adj_bits, on_cycle)) == on_cycle, (g.edges, d)
                fallbacks += heuristic._first_piece(g, d, memo)[0].bit_count() < 3
        assert fallbacks > 0


class TestImprove:
    def test_cycle_unchanged(self):
        g = cycle_graph(5)
        state = initial_subgraph(g)
        outcome = improve(state, g, 4)
        assert outcome.state == state
        assert outcome.steps == ()

    def test_hub_join_reaches_alpha_ceiling(self):
        g = join_sharpness(complete_graph(1), 3)
        outcome = improve(initial_subgraph(g), g, 4)
        assert outcome.state.objective[0] <= 1

    def test_absorbs_second_triangle(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        outcome = improve(initial_subgraph(g), g, 4)
        assert outcome.state.f_mask == 0b111111
        assert outcome.steps[0].kind == "X4"

    def test_strict_descent(self):
        for seed in range(20):
            g = gnp(9, 0.4, seed)
            initial = initial_subgraph(g)
            if not initial.f_edges:
                continue
            outcome = improve(initial, g, 4)
            previous = initial.objective
            for step in outcome.steps:
                assert step.before == previous
                assert step.after < step.before
                previous = step.after
            assert outcome.state.objective <= initial.objective

    def test_descent_on_every_small_graph(self):
        # all 1099 labelled graphs on 1..5 vertices, from the seed state,
        # empty F included: each step lowers the objective, the steps chain
        # from the seed to the final state, and the objective's range bounds
        # their number
        for g in all_labelled_graphs(5):
            memo = SolveMemo(g)
            alpha = independence_number(g)
            initial = initial_subgraph(g, memo)
            for b in range(2, 7):
                outcome = improve(initial, g, b, memo)
                previous = initial.objective
                for step in outcome.steps:
                    assert step.before == previous and step.after < step.before, g.edges
                    previous = step.after
                assert outcome.state.objective == previous, g.edges
                assert len(outcome.steps) <= (alpha + 1) * (g.n + 1) ** 2


class TestPosaCover:
    def test_cycle_covered_by_one_piece(self):
        g = cycle_graph(5)
        cover = posa_cover(g, g.full_mask)
        assert cover_pieces(g, g.full_mask, cover) == [g.full_mask]
        assert sorted(cover) == list(g.edges)  # the piece is the whole cycle

    def test_path_on_three(self):
        g = path_graph(3)
        assert len(cover_pieces(g, 0b111, posa_cover(g, 0b111))) <= 2

    def test_empty(self):
        assert posa_cover(cycle_graph(5), 0) == ()

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_piece_count_at_most_alpha(self, g):
        cover = posa_cover(g, g.full_mask)
        if g.n:
            assert len(cover_pieces(g, g.full_mask, cover)) <= independence_number(g)
        # vertex-disjoint cycles, edges and vertices: a [2,2] pseudo factor
        validate_pseudo_factor(g, cover, 2)

    @given(small_graphs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_warm_memo_changes_nothing(self, g, data):
        mask = mask_of(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
        memo = SolveMemo(g)
        for b in range(2, 7):
            solve(g, b, memo=memo)
        assert posa_cover(g, mask, memo) == posa_cover(g, mask)


class TestSolve:
    def test_cycle(self):
        assert solve(cycle_graph(5), 4).small_count == 0

    def test_hub_join_meets_ceiling(self):
        g = join_sharpness(complete_graph(1), 3)
        result = solve(g, 4)
        assert result.small_count == 1

    def test_pendant_family(self):
        g = pendant_sharpness(cycle_graph(3))
        result = solve(g, 4)
        assert result.small_count == 3
        assert result.fallback  # every longest path ends at two pendants

    def test_single_edge(self):
        result = solve(complete_graph(2), 4)
        assert result.small_count == 1
        assert result.fallback

    def test_output_always_validates_and_brackets(self):
        for seed in range(25):
            g = gnp(8, 0.45, seed)
            for b in (4, 5):
                result = solve(g, b)
                summary = validate_pseudo_factor(g, result.factor.edges, b)
                assert summary.small_count == result.small_count
                optimum = min_small_components_exact(g, b).optimum
                assert optimum <= result.small_count <= independence_number(g)

    @pytest.mark.parametrize("b", [4, 5, 6])
    def test_accepts_an_x7_step(self, b):
        # no corpus row accepts X7, so this graph pins the segment deletion:
        # two X2 bridges grow F to 8 vertices, then deleting a degree-2
        # segment frees a vertex without raising alpha(G - F) or |D|
        g = Graph.build(10, [(0, 2), (0, 5), (0, 8), (0, 9), (1, 4), (1, 6), (1, 8), (1, 9),
                             (2, 3), (2, 6), (2, 7), (4, 6), (5, 6), (7, 9)])
        assert solve(g, b).steps == (
            ("X2", (2, 4, 6), (2, 3, 7)), ("X2", (2, 3, 7), (2, 1, 8)), ("X7", (2, 1, 8), (2, 1, 7)))
        report = verify_instance(g, b, mode="both", instance="x7")
        assert (report.heuristic_value, report.oracle_optimum) == (2, 1)

    def test_b3_accepted(self):
        result = solve(cycle_graph(5), 3)
        assert result.small_count == 0

    @given(small_graphs(max_n=10), st.permutations(range(2, 7)))
    @settings(max_examples=100, deadline=None)
    def test_shared_memo_changes_nothing(self, g, b_values):
        memo = SolveMemo(g)
        for b in b_values:
            shared = solve(g, b, memo=memo)
            own = solve(g, b)
            assert shared.factor.edges == own.factor.edges
            assert shared.steps == own.steps
            assert shared.fallback == own.fallback

    def test_shared_descent_equals_fresh_on_seeded_graphs(self):
        # one memo, b in shuffled order: a row that reuses a descent returns
        # what a fresh solve returns, and most rows past the first reuse one
        rng = random.Random(20260)
        rows = reused = 0
        for _ in range(150):
            g = gnp(rng.randint(3, 14), rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8)),
                    rng.randrange(10**6))
            b_values = list(range(2, 8))
            rng.shuffle(b_values)
            memo = SolveMemo(g)
            for b in b_values:
                reused += memo.descent is not None and memo.descent[0] <= b
                shared, own = solve(g, b, memo=memo), solve(g, b)
                assert (shared.factor.edges, shared.steps, shared.fallback, shared.factor.b) == \
                    (own.factor.edges, own.steps, own.fallback, b), (g.edges, b_values, b)
                rows += 1
        assert rows // 2 < reused < rows

    def test_caps_that_bind_are_not_shared(self):
        # the caps bind on this graph at b = 4: its descent reaches F-degree
        # 4, so need is 6, and b = 6 takes a third X2 that b = 4 refused;
        # so no descent here is kept (test_descents_per_memo checks the
        # shared answers against fresh ones)
        g = gnp(17, 0.15, 1289)
        assert [s.kind for s in solve(g, 4).steps] == ["X2", "X2"]
        assert [s.kind for s in solve(g, 6).steps] == ["X2", "X2", "X2"]
        assert heuristic._cap_need(improve(initial_subgraph(g), g, 4)) == 6
        memo = SolveMemo(g)
        for b in (4, 5, 6):
            solve(g, b, memo=memo)
        assert memo.descent is None

    @pytest.mark.parametrize("g, b_values, descents", [
        (cycle_graph(5), (2, 3, 4), 1),  # the seed spans G: no move is enumerated
        (gnp(8, 0.35, 1), (4, 5, 6), 1),  # one X4 step: F keeps degree 2
        (gnp(17, 0.15, 1289), (4, 5), 2),
        (gnp(17, 0.15, 1289), (4, 5, 6), 3),
        (gnp(17, 0.15, 1289), (7, 4, 5, 6, 8), 4),  # need 7 at b = 7 serves b = 8
    ])
    def test_descents_per_memo(self, monkeypatch, g, b_values, descents):
        fresh = [solve(g, b) for b in b_values]
        calls = []

        def counting(state, g, b, memo=None):
            calls.append(b)
            return improve(state, g, b, memo)

        monkeypatch.setattr(heuristic, "improve", counting)
        memo = SolveMemo(g)
        assert [solve(g, b, memo=memo) for b in b_values] == fresh
        assert len(calls) == descents, calls

    def test_memo_of_another_graph_rejected(self):
        g = cycle_graph(5)
        twin = cycle_graph(5)  # equal, but not the same graph
        with pytest.raises(ValueError, match="another graph"):
            solve(g, 4, memo=SolveMemo(twin))

    def test_each_stage_rejects_a_memo_of_another_graph(self):
        g = cycle_graph(5)
        twin = cycle_graph(5)
        with pytest.raises(ValueError, match="another graph"):
            initial_subgraph(g, memo=SolveMemo(twin))
        state = initial_subgraph(g)
        with pytest.raises(ValueError, match="another graph"):
            improve(state, g, 4, memo=SolveMemo(twin))

    def test_shared_memo_searches_each_mask_once(self, monkeypatch):
        # the seed, X4's cycle hunts and the cover all search through the
        # memo, so b rows sharing it never search one vertex mask twice
        masks = []

        def counting(g, mask=None):
            masks.append(vertex_mask(g, mask))
            return longest_path(g, mask)

        for module in (memo_module, heuristic):
            if getattr(module, "longest_path", None) is longest_path:
                monkeypatch.setattr(module, "longest_path", counting)
        # each repeats a mask when X4 or the cover search outside the memo;
        # the pendant graph falls back to covering all of G
        graphs = [join_sharpness(complete_graph(1), 3), gnp(6, 0.5, 0), gnp(9, 0.3, 5),
                  pendant_sharpness(cycle_graph(3))]
        for g in graphs:
            masks.clear()
            memo = SolveMemo(g)
            for b in range(2, 7):
                solve(g, b, memo=memo)
            assert g.full_mask in masks
            assert len(masks) == len(set(masks)), (g.edges, masks)


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pseudofactor").glob("*.py"))


def test_only_the_memo_calls_longest_path():
    # one seam: a later path search replaces the call in memo.py alone
    callers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "longest_path":
                    callers.add(path.name)
    assert callers == {"memo.py"}


#: the kernels that take a vertex set, as an int mask
MASK_TAKERS = {"longest_path", "independence_number", "spanning_in_range",
               "posa_cover", "_first_piece"}


def _is_bits_call(node) -> bool:
    """``bits(...)``, bare or wrapped in tuple/list/set/sorted."""
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "bits":
            return True
        if node.func.id not in ("tuple", "list", "set", "sorted") or len(node.args) != 1:
            return False
        node = node.args[0]
    return False


def test_vertex_sets_cross_as_masks():
    # one format at the seam: no caller unpacks a mask into vertices for a
    # kernel that would pack them again, and the vertex-iterable checker
    # within_mask is gone
    unpacked, within_mask_refs = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                args = list(node.args) + [kw.value for kw in node.keywords]
                if name in MASK_TAKERS and any(_is_bits_call(a) for a in args):
                    unpacked.append((path.name, node.lineno, name))
            elif isinstance(node, ast.FunctionDef) and node.name == "within_mask":
                within_mask_refs.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                if any(alias.name == "within_mask" for alias in node.names):
                    within_mask_refs.append((path.name, node.lineno))
    assert unpacked == []
    assert within_mask_refs == []
