import pytest
from hypothesis import given, settings

from conftest import small_graphs
from pseudofactor.errors import CapacityError
from pseudofactor.factor import validate_pseudo_factor
from pseudofactor.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    join_sharpness,
    path_graph,
    pendant_sharpness,
)
from pseudofactor.graph import Graph
from pseudofactor.oracle import min_small_components_exact, min_small_components_naive


class TestExact:
    def test_cycle_is_its_own_factor(self):
        assert min_small_components_exact(cycle_graph(5), 4).optimum == 0

    def test_path_on_three(self):
        # all 5 partitions of 3 vertices leave at least an edge plus a vertex
        assert min_small_components_exact(path_graph(3), 4).optimum == 2

    def test_hub_join_three_edges(self):
        g = join_sharpness(complete_graph(1), 3)
        assert min_small_components_exact(g, 4).optimum == 1

    def test_triangle_with_pendants(self):
        g = pendant_sharpness(cycle_graph(3))
        assert min_small_components_exact(g, 4).optimum == 3

    def test_empty_graph(self):
        result = min_small_components_exact(Graph.build(0, []), 4)
        assert result.optimum == 0
        assert result.blocks == ()

    def test_capacity(self):
        with pytest.raises(CapacityError):
            min_small_components_exact(complete_graph(6), 4, limit=5)

    def test_witness_round_trip(self):
        for seed in range(10):
            g = gnp(8, 0.4, seed)
            result = min_small_components_exact(g, 4)
            summary = validate_pseudo_factor(g, result.witness.edges, 4)
            assert summary.small_count == result.optimum
            assert result.blocks == tuple(c.vertices for c in result.witness.components)

    def test_witness_blocks_partition_vertices(self):
        g = gnp(9, 0.5, 7)
        result = min_small_components_exact(g, 4)
        flat = [v for block in result.blocks for v in block]
        assert sorted(flat) == list(range(9))

    def test_deterministic_witness(self):
        g = gnp(8, 0.5, 3)
        first = min_small_components_exact(g, 4)
        second = min_small_components_exact(g, 4)
        assert first.blocks == second.blocks
        assert first.witness.edges == second.witness.edges

    def test_witness_tie_breaks(self):
        # P3 has two optima with one singleton each; the lexicographically
        # smaller block set wins
        assert min_small_components_exact(path_graph(3), 4).blocks == ((0,), (1, 2))
        # pendant family: three stem edges (no vertex components) beat any
        # optimum that leaves singletons behind
        g = pendant_sharpness(cycle_graph(3))
        assert min_small_components_exact(g, 4).blocks == ((0, 3), (1, 4), (2, 5))

    def test_monotone_in_b(self):
        # a wider degree window never costs more small components
        for seed in range(12):
            g = gnp(8, 0.45, seed)
            values = [min_small_components_exact(g, b).optimum for b in (2, 4, 5, 6)]
            assert all(earlier >= later for earlier, later in zip(values, values[1:]))


class TestNaive:
    def test_partition_enumeration_counts(self):
        # Bell numbers pin the enumerator itself
        from pseudofactor.oracle import _set_partitions

        assert sum(1 for _ in _set_partitions(list(range(4)))) == 15
        assert sum(1 for _ in _set_partitions(list(range(6)))) == 203
        for part in _set_partitions(list(range(5))):
            flat = sorted(v for blk in part for v in blk)
            assert flat == list(range(5))

    def test_single_edge(self):
        assert min_small_components_naive(complete_graph(2), 4) == 1

    def test_k4(self):
        assert min_small_components_naive(complete_graph(4), 4) == 0

    def test_star(self):
        star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        assert min_small_components_naive(star, 4) == 3

    def test_capacity(self):
        with pytest.raises(CapacityError):
            min_small_components_naive(gnp(10, 0.5, 0), 4)

    @given(small_graphs(max_n=7))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_dp(self, g):
        for b in (2, 3, 4, 5, 6):
            assert min_small_components_naive(g, b) == min_small_components_exact(g, b).optimum
