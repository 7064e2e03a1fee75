from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_graphs
from pseudofactor import heuristic
from pseudofactor.factor import validate_pseudo_factor
from pseudofactor.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    join_sharpness,
    path_graph,
    pendant_sharpness,
)
from pseudofactor.graph import Graph, independence_number, longest_path
from pseudofactor.heuristic import (
    MOVE_ORDER,
    apply_move,
    enumerate_moves,
    improve,
    initial_subgraph,
    posa_cover,
    solve,
)
from pseudofactor.oracle import min_small_components_exact


def disjoint_union(a: Graph, b: Graph) -> Graph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return Graph.build(a.n + b.n, edges)


class TestInitialSubgraph:
    def test_cycle_seeds_itself(self):
        state = initial_subgraph(cycle_graph(5))
        assert state.f_vertices == frozenset(range(5))
        assert state.d_vertices == frozenset()
        assert state.objective == (0, 0, 5)

    def test_hub_join_three_edges(self):
        g = join_sharpness(complete_graph(1), 3)
        state = initial_subgraph(g)
        # the seed cycle is a triangle through the hub and one pair;
        # the smallest leftover component is a pair
        assert len(state.f_vertices) == 3
        assert 0 in state.f_vertices
        assert len(state.d_vertices) == 2
        assert state.attachments == (0,)

    def test_single_edge_falls_back(self):
        state = initial_subgraph(complete_graph(2))
        assert state.f_edges == frozenset()
        assert state.d_vertices == frozenset({0, 1})


class TestEnumerateMoves:
    def test_no_moves_when_nothing_left(self):
        state = initial_subgraph(cycle_graph(5))
        assert enumerate_moves(state, cycle_graph(5), 4) == []

    def test_bridge_move_present(self):
        # C4 plus an apex on opposite corners: the seed cycle is the C4,
        # leaving the apex adjacent to two attachments of degree 2 < b
        g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4)])
        state = initial_subgraph(g)
        assert state.d_vertices == frozenset({4})
        assert state.attachments == (0, 2)
        bridge = next(m for m in enumerate_moves(state, g, 4) if m.kind == "X2")
        assert set(bridge.add_edges) == {(0, 4), (2, 4)}

    def test_absorb_cycle_move_present(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        state = initial_subgraph(g)
        assert state.d_vertices == frozenset({3, 4, 5})
        moves = enumerate_moves(state, g, 4)
        assert moves and moves[0].kind == "X4"
        assert set(moves[0].add_edges) == {(3, 4), (4, 5), (3, 5)}

    def test_segment_delete_move_present(self):
        g = disjoint_union(cycle_graph(5), complete_graph(2))
        state = initial_subgraph(g)
        kinds = {m.kind for m in enumerate_moves(state, g, 4)}
        assert "X7" in kinds

    def test_every_move_preserves_the_degree_window(self):
        from pseudofactor.factor import is_2b_subgraph

        for seed in range(15):
            g = gnp(8, 0.45, seed)
            state = initial_subgraph(g)
            for move in enumerate_moves(state, g, 4):
                new_edges = (state.f_edges - set(move.remove_edges)) | set(move.add_edges)
                verts = frozenset(v for e in new_edges for v in e)
                assert is_2b_subgraph(g, verts, new_edges, 4), move


    def test_kinds_follow_move_order(self, monkeypatch):
        # X2, X1 and X3 come out of one loop over attachment pairs, so only
        # the final sort keeps each kind together and in MOVE_ORDER
        per_state = []

        def recording(state, g, b):
            moves = enumerate_moves(state, g, b)
            per_state.append([m.kind for m in moves])
            return moves

        monkeypatch.setattr(heuristic, "enumerate_moves", recording)
        for n in range(7, 11):
            for b in range(2, 7):
                for seed in range(5):
                    solve(gnp(n, 0.4, seed), b)
        rank = {kind: i for i, kind in enumerate(MOVE_ORDER)}
        for kinds in per_state:
            ranks = [rank[k] for k in kinds]
            assert ranks == sorted(ranks), kinds
        assert any(len({"X1", "X2", "X3"} & set(kinds)) >= 2 for kinds in per_state)

class TestImprove:
    def test_cycle_unchanged(self):
        g = cycle_graph(5)
        state = initial_subgraph(g)
        outcome = improve(state, g, 4)
        assert outcome.state == state
        assert outcome.steps == ()
        assert not outcome.budget_exhausted

    def test_hub_join_reaches_alpha_ceiling(self):
        g = join_sharpness(complete_graph(1), 3)
        outcome = improve(initial_subgraph(g), g, 4)
        assert outcome.state.objective[0] <= 1

    def test_absorbs_second_triangle(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        outcome = improve(initial_subgraph(g), g, 4)
        assert outcome.state.f_vertices == frozenset(range(6))
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

    def test_budget_flag(self):
        g = join_sharpness(complete_graph(1), 3)
        outcome = improve(initial_subgraph(g), g, 4, max_evals=0)
        assert outcome.budget_exhausted


    def test_max_evals_counts_apply_move_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return apply_move(*args)

        monkeypatch.setattr(heuristic, "apply_move", counting)
        g = gnp(9, 0.4, 4)  # two steps and some rejected moves
        initial = initial_subgraph(g)
        free = improve(initial, g, 4)
        k = len(calls)
        assert not free.budget_exhausted and k > len(free.steps) >= 2
        for budget in range(k + 1):
            calls.clear()
            outcome = improve(initial, g, 4, max_evals=budget)
            assert len(calls) <= budget
            assert outcome.budget_exhausted == (budget < k)
        assert outcome == free

class TestPosaCover:
    def test_cycle_covered_by_one_piece(self):
        g = cycle_graph(5)
        pieces = posa_cover(g, range(5))
        assert len(pieces) == 1
        assert pieces[0].kind == "cycle"

    def test_path_on_three(self):
        pieces = posa_cover(path_graph(3), range(3))
        assert len(pieces) <= 2

    def test_empty(self):
        assert posa_cover(cycle_graph(5), ()) == []

    @given(small_graphs())
    @settings(max_examples=50, deadline=None)
    def test_piece_count_at_most_alpha(self, g):
        pieces = posa_cover(g, range(g.n))
        if g.n:
            assert len(pieces) <= independence_number(g)
        covered = [v for piece in pieces for v in piece.vertices]
        assert sorted(covered) == list(range(g.n))

    @given(small_graphs(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_given_first_path_changes_nothing(self, g, data):
        within = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        path = longest_path(g, within=within)
        assert posa_cover(g, within, path=path) == posa_cover(g, within)


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

    def test_b3_accepted(self):
        result = solve(cycle_graph(5), 3)
        assert result.small_count == 0

    def test_fallback_searches_the_seed_path_once(self, monkeypatch):
        calls = []

        def counting(g, within=None):
            calls.append(within)
            return longest_path(g, within=within)

        monkeypatch.setattr(heuristic, "longest_path", counting)
        g = pendant_sharpness(cycle_graph(3))
        assert solve(g, 4).fallback
        in_solve = len(calls)
        calls.clear()
        initial_subgraph(g)
        posa_cover(g, range(g.n))
        # the seed and the cover's first search are the same call
        assert in_solve == len(calls) - 1
