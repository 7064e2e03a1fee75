import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neighbors, small_graphs
from pseudofactor.errors import CapacityError, FactorError
from pseudofactor.factor import (
    SPANNING_LIMIT,
    PseudoFactor,
    factor_to_text,
    is_2b_subgraph,
    spanning_in_range,
    validate_pseudo_factor,
)
from pseudofactor.generators import complete_graph, cycle_graph, gnp, path_graph
from pseudofactor.graph import Graph, bits


def brute_force_feasible(g, s, b):
    """Degree-[2,b] spanning subgraph of G[s] by scanning all edge subsets."""
    verts = sorted(s)
    if len(verts) < 3:
        return False
    edges = [e for e in g.edges if e[0] in s and e[1] in s]
    assert len(edges) <= 18, "brute force oracle capped at 18 induced edges"
    for mask in range(1 << len(edges)):
        deg = dict.fromkeys(verts, 0)
        for i, (u, v) in enumerate(edges):
            if mask >> i & 1:
                deg[u] += 1
                deg[v] += 1
        if all(2 <= deg[v] <= b for v in verts):
            return True
    return False


def reference_components(n, chosen):
    """Vertex sets of the components of ``chosen`` on 0..n-1, by flood fill
    over plain neighbor sets, in smallest-vertex order; plus the neighbors."""
    nbrs = {v: set() for v in range(n)}
    for u, v in chosen:
        nbrs[u].add(v)
        nbrs[v].add(u)
    left = set(range(n))
    comps = []
    while left:
        comp = {min(left)}
        frontier = list(comp)
        while frontier:
            new = nbrs[frontier.pop()] - comp
            comp |= new
            frontier.extend(new)
        left -= comp
        comps.append(tuple(sorted(comp)))
    return comps, nbrs


@st.composite
def chosen_edge_lists(draw):
    """A small graph and a list of its edges, with repeats and either
    orientation."""
    g = draw(small_graphs(max_n=8))
    if not g.edges:
        return g, []
    picked = draw(st.lists(st.tuples(st.sampled_from(g.edges), st.booleans())))
    return g, [(v, u) if flip else (u, v) for (u, v), flip in picked]


def k1_join_3k2():
    """A hub joined to three disjoint edges."""
    edges = [(1, 2), (3, 4), (5, 6)] + [(0, v) for v in range(1, 7)]
    return Graph.build(7, edges)


class TestValidate:
    def test_cycle_is_one_large_component(self):
        g = cycle_graph(5)
        summary = validate_pseudo_factor(g, g.edges, 4)
        assert (summary.small_count, summary.components) == (0, (0b11111,))

    def test_edge_plus_vertex(self):
        g = path_graph(3)
        summary = validate_pseudo_factor(g, [(0, 1)], 4)
        assert summary.small_count == 2
        assert summary.components == (0b011, 0b100)

    def test_degree_one_in_large_component(self):
        g = path_graph(3)
        with pytest.raises(FactorError) as err:
            validate_pseudo_factor(g, [(0, 1), (1, 2)], 4)
        assert err.value.vertex in (0, 2)
        assert err.value.component == (0, 1, 2)

    def test_degree_above_b(self):
        g = Graph.build(5, [(0, v) for v in range(1, 5)] + [(1, 2), (3, 4)])
        with pytest.raises(FactorError, match="degree 4"):
            validate_pseudo_factor(g, g.edges, 3)

    def test_edge_not_in_graph(self):
        with pytest.raises(FactorError, match="not an edge"):
            validate_pseudo_factor(path_graph(3), [(0, 2)], 4)

    def test_b_below_two_rejected(self):
        with pytest.raises(ValueError):
            validate_pseudo_factor(path_graph(3), [], 1)

    def test_negative_endpoint_rejected(self):
        # vertex -1 must not alias vertex n-1 through negative indexing
        with pytest.raises(FactorError, match="not an edge"):
            PseudoFactor.build(cycle_graph(5), [(-1, 0), (0, 1), (1, 2), (2, 3), (3, 4)], 4)

    def test_endpoint_past_n_rejected(self):
        with pytest.raises(FactorError, match="not an edge"):
            PseudoFactor.build(cycle_graph(5), [(5, 6)], 4)

    @given(chosen_edge_lists(), st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_build_matches_reference(self, case, b):
        g, picked = case
        chosen = sorted({(min(e), max(e)) for e in picked})
        comps, nbrs = reference_components(g.n, chosen)
        bad = [(c, v) for c in comps if len(c) >= 3 for v in c if not 2 <= len(nbrs[v]) <= b]
        if bad:
            with pytest.raises(FactorError) as err:
                PseudoFactor.build(g, picked, b)
            assert (err.value.component, err.value.vertex) == bad[0]
            return
        pf = PseudoFactor.build(g, picked, b)
        assert pf.edges == tuple(chosen)
        assert [tuple(bits(c)) for c in pf.components] == comps
        assert pf.small_count == sum(len(c) < 3 for c in comps)
        assert pf.max_degree == max((len(nbrs[v]) for v in nbrs), default=0)
        kinds = {1: "vertex", 2: "edge"}
        assert factor_to_text(pf).splitlines() == [
            f"component {k}: class={kinds.get(len(c), 'large')} vertices={','.join(map(str, c))} "
            f"edges={','.join(f'{u}-{v}' for u, v in chosen if u in c and v in c)}"
            for k, c in enumerate(comps)
        ]

    def test_max_degree_sets_the_bs_it_builds_at(self, corpus_oracle):
        # the corpus witnesses, and a wheel whose hub has degree 5, built
        # again at each b: the very same record at every b >= max(2,
        # max_degree), and a FactorError below it
        wheel = Graph.build(6, [(0, v) for v in range(1, 6)] + [(v, v % 5 + 1) for v in range(1, 6)])
        factors = [result.witness for result in corpus_oracle.values()]
        factors.append(PseudoFactor.build(wheel, wheel.edges, 5))
        for pf in factors:
            degree = Counter(v for e in pf.edges for v in e)
            assert pf.max_degree == max(degree.values(), default=0)
            for b in range(2, 8):
                if b >= max(2, pf.max_degree):
                    assert PseudoFactor.build(pf.graph, pf.edges, b) == pf
                else:
                    with pytest.raises(FactorError):
                        PseudoFactor.build(pf.graph, pf.edges, b)
        assert factors[-1].max_degree == 5
        with pytest.raises(FactorError, match=r"vertex 0 has degree 5, outside \[2, 4\]"):
            PseudoFactor.build(wheel, wheel.edges, 4)

    def test_component_classification(self):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        pf = PseudoFactor.build(g, [(0, 1), (1, 2), (0, 2), (3, 4)], 4)
        # a component's class follows from its vertex count alone
        assert pf.components == (0b000111, 0b011000, 0b100000)
        assert pf.small_count == 2
        kinds = [line.split()[2] for line in factor_to_text(pf).splitlines()]
        assert kinds == ["class=large", "class=edge", "class=vertex"]


class TestIs2bSubgraph:
    def test_cycle(self):
        g = cycle_graph(5)
        assert is_2b_subgraph(g, range(5), g.edges, 4)

    def test_single_edge(self):
        g = cycle_graph(5)
        assert not is_2b_subgraph(g, {0, 1}, [(0, 1)], 4)

    def test_k4_with_tight_window(self):
        g = complete_graph(4)
        assert not is_2b_subgraph(g, range(4), g.edges, 2)
        assert is_2b_subgraph(g, range(4), g.edges, 3)

    def test_empty_is_vacuously_true(self):
        assert is_2b_subgraph(cycle_graph(5), (), (), 4)

    def test_edge_outside_vertices(self):
        g = cycle_graph(5)
        assert not is_2b_subgraph(g, {0, 1}, [(1, 2)], 4)

    def test_endpoint_outside_graph(self):
        g = cycle_graph(5)
        # -1 would alias vertex 4, whose neighbors 0 and 3 close a "cycle"
        cycle = [(-1, 0), (0, 1), (1, 2), (2, 3), (3, -1)]
        assert not is_2b_subgraph(g, [-1, 0, 1, 2, 3], cycle, 4)
        assert not is_2b_subgraph(g, range(7), [(5, 6), (4, 5), (4, 6)], 4)


class TestSpanning:
    def test_cycle_spans_itself(self):
        g = cycle_graph(5)
        assert spanning_in_range(g, 0b11111, 4) is not None

    def test_star_leaves_cannot_reach_two(self):
        star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        assert spanning_in_range(star, star.full_mask, 4) is None

    def test_hub_join_three_edges_infeasible(self):
        g = k1_join_3k2()
        assert spanning_in_range(g, g.full_mask, 4) is None
        assert not brute_force_feasible(g, range(7), 4)

    def test_small_sets_false(self):
        g = cycle_graph(5)
        assert spanning_in_range(g, 0b11, 4) is None
        assert spanning_in_range(g, 0b1, 4) is None

    def test_witness_edges_satisfy_window(self):
        g = complete_graph(6)
        chosen = spanning_in_range(g, g.full_mask, 3)
        assert chosen is not None
        assert is_2b_subgraph(g, range(6), chosen, 3)

    def test_capacity(self):
        over = SPANNING_LIMIT + 1
        with pytest.raises(CapacityError, match=f"limited to {SPANNING_LIMIT} vertices, got {over}"):
            spanning_in_range(complete_graph(over), (1 << over) - 1, 3)
        g = complete_graph(SPANNING_LIMIT)
        assert is_2b_subgraph(g, range(g.n), spanning_in_range(g, g.full_mask, 3), 3)

    @given(small_graphs(min_n=3, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, g):
        # a maximum degree above b takes the search (and its pot table), not
        # the early return that keeps every edge
        for b in (2, 3):
            if len(g.edges) <= 18 and max(map(len, neighbors(g))) > b:
                chosen = spanning_in_range(g, g.full_mask, b)
                assert (chosen is not None) == brute_force_feasible(g, range(g.n), b)
                if chosen is not None:
                    assert is_2b_subgraph(g, range(g.n), chosen, b)

    @given(small_graphs(min_n=3, max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_b(self, g):
        feasible = [spanning_in_range(g, g.full_mask, b) is not None for b in (2, 3, 4, 5)]
        for earlier, later in itertools.pairwise(feasible):
            assert not earlier or later

    def test_all_degrees_in_window_is_feasible(self):
        for seed in range(8):
            g = gnp(7, 0.5, seed)
            degs = [len(s) for s in neighbors(g)]
            if min(degs) >= 2:
                assert spanning_in_range(g, g.full_mask, max(degs)) is not None


class TestSerialization:
    def test_text_block(self):
        g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
        pf = PseudoFactor.build(g, g.edges, 4)
        assert factor_to_text(pf) == (
            "component 0: class=large vertices=0,1,2 edges=0-1,0-2,1-2\n"
            "component 1: class=edge vertices=3,4 edges=3-4\n"
            "component 2: class=vertex vertices=5 edges="
        )
