import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _feasible_by_edge_subsets,
    _set_partitions,
    min_small_components_naive,
    neighbors,
    small_graphs,
)
from pseudofactor import oracle
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
from pseudofactor.graph import Graph, bits
from pseudofactor.memo import SolveMemo
from pseudofactor.oracle import min_small_components_exact


def _blocks(result) -> tuple[tuple[int, ...], ...]:
    """The witness's component vertex tuples."""
    return tuple(tuple(bits(c)) for c in result.witness.components)


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
        assert _blocks(result) == ()

    def test_capacity(self, monkeypatch):
        over = oracle.ORACLE_LIMIT + 1
        with pytest.raises(CapacityError, match=f"limited to {oracle.ORACLE_LIMIT} vertices, got {over}"):
            min_small_components_exact(cycle_graph(over), 4)
        assert min_small_components_exact(cycle_graph(oracle.ORACLE_LIMIT), 4).optimum == 0
        # the limit is read at call time, so patching the constant moves it
        monkeypatch.setattr(oracle, "ORACLE_LIMIT", 5)
        with pytest.raises(CapacityError, match="limited to 5 vertices, got 6"):
            min_small_components_exact(complete_graph(6), 4)

    def test_witness_round_trip(self):
        for seed in range(10):
            g = gnp(8, 0.4, seed)
            result = min_small_components_exact(g, 4)
            summary = validate_pseudo_factor(g, result.witness.edges, 4)
            assert summary.small_count == result.optimum

    def test_witness_blocks_partition_vertices(self):
        g = gnp(9, 0.5, 7)
        result = min_small_components_exact(g, 4)
        flat = [v for block in _blocks(result) for v in block]
        assert sorted(flat) == list(range(9))

    def test_deterministic_witness(self):
        g = gnp(8, 0.5, 3)
        first = min_small_components_exact(g, 4)
        second = min_small_components_exact(g, 4)
        assert _blocks(first) == _blocks(second)
        assert first.witness.edges == second.witness.edges

    def test_witness_tie_breaks(self):
        # P3 has two optima with one singleton each, both with S empty; the
        # matching is rebuilt lowest vertex first, and vertex 0 stays single
        # because G - 0 still has a matching of the maximum size
        assert _blocks(min_small_components_exact(path_graph(3), 4)) == ((0,), (1, 2))
        # pendant family: three stem edges (no vertex components) beat any
        # optimum that leaves singletons behind
        g = pendant_sharpness(cycle_graph(3))
        assert _blocks(min_small_components_exact(g, 4)) == ((0, 3), (1, 4), (2, 5))

    def test_monotone_in_b(self):
        # a wider degree window never costs more small components
        for seed in range(12):
            g = gnp(8, 0.45, seed)
            values = [min_small_components_exact(g, b).optimum for b in (2, 4, 5, 6)]
            assert all(earlier >= later for earlier, later in zip(values, values[1:]))


class TestSharedScan:
    """One memo carries the b-independent scan across a graph's b rows."""

    @given(small_graphs(max_n=9), st.permutations(range(2, 7)))
    @settings(max_examples=100, deadline=None)
    def test_shared_memo_changes_nothing(self, g, b_values):
        memo = SolveMemo(g)
        for b in b_values:
            shared = min_small_components_exact(g, b, memo=memo)
            own = min_small_components_exact(g, b)
            assert shared.optimum == own.optimum
            assert shared.witness.edges == own.witness.edges
            assert _blocks(shared) == _blocks(own)

    def test_shared_witnesses_equal_fresh_on_seeded_graphs(self):
        # one memo, b shuffled over 2-7 with repeats: a row that takes a kept
        # witness returns what a fresh call returns, and many rows take one
        rng = random.Random(20261)
        rows = reused = 0
        for _ in range(150):
            g = gnp(rng.randint(3, 11), rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8)),
                    rng.randrange(10**6))
            b_values = list(range(2, 8)) + rng.choices(range(2, 8), k=3)
            rng.shuffle(b_values)
            memo = SolveMemo(g)
            for b in b_values:
                kept = list(memo.witnesses.values())
                shared = min_small_components_exact(g, b, memo=memo)
                own = min_small_components_exact(g, b)
                assert shared == own, (g.edges, b_values, b)
                # a kept witness is returned itself, not rebuilt
                reused += any(shared is result for result in kept)
                rows += 1
        assert rows // 2 < reused < rows

    def test_memo_of_another_graph_rejected(self):
        g = cycle_graph(5)
        twin = cycle_graph(5)  # equal, but not the same graph
        with pytest.raises(ValueError, match="another graph"):
            min_small_components_exact(g, 4, memo=SolveMemo(twin))

    def test_refusal_stores_nothing(self, monkeypatch):
        g = complete_graph(6)
        memo = SolveMemo(g)
        monkeypatch.setattr(oracle, "ORACLE_LIMIT", 5)
        with pytest.raises(CapacityError):
            min_small_components_exact(g, 4, memo=memo)
        assert memo.scan is None


def _matching_number(g: Graph, verts: frozenset[int]) -> int:
    """Maximum matching size of G[verts], by include/exclude over its edges."""
    edges = [e for e in g.edges if e[0] in verts and e[1] in verts]

    def rec(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        u, v = edges[i]
        best = rec(i + 1, used)
        if u not in used and v not in used:
            best = max(best, 1 + rec(i + 1, used | {u, v}))
        return best

    return rec(0, frozenset())


def _reference_large_part(g: Graph, b: int) -> tuple[int, int]:
    """(optimum, S) of the first feasible large part S in order of
    (|R| - nu(R), |R| - 2 nu(R), bitmask of S), R = V - S; S empty always is
    feasible. Feasibility comes from the naive cross-check's own search."""

    def key(large: int) -> tuple[int, int, int]:
        rest = frozenset(v for v in range(g.n) if not large >> v & 1)
        nu = _matching_number(g, rest)
        return (len(rest) - nu, len(rest) - 2 * nu, large)

    for large in sorted(range(1 << g.n), key=key):
        block = frozenset(bits(large))
        if not large or _feasible_by_edge_subsets(g, block, b):
            return key(large)[0], large
    raise AssertionError("the empty large part is always feasible")


def _large_part(result) -> frozenset[int]:
    """The vertices of the witness's large components."""
    return frozenset(v for c in result.witness.components if c.bit_count() >= 3 for v in bits(c))


def _assert_matches_reference(g: Graph, b: int) -> None:
    result = min_small_components_exact(g, b)
    optimum, large = _reference_large_part(g, b)
    assert result.optimum == optimum, (g.edges, b)
    assert _large_part(result) == frozenset(bits(large)), (g.edges, b)


class TestCandidateOrder:
    """The witness's large part is the first feasible set in the documented
    order, whatever the scan skips on the way."""

    def test_every_small_graph(self):
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for chosen in range(1 << len(pairs)):
                g = Graph.build(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
                for b in (2, 4):
                    _assert_matches_reference(g, b)

    @pytest.mark.parametrize("b", [2, 4])
    def test_tight_families(self, b):
        # the pendant family's optimum leaves its feasible cycle unused
        for g in (
            pendant_sharpness(cycle_graph(3)),
            pendant_sharpness(cycle_graph(4)),
            join_sharpness(complete_graph(1), 3),
        ):
            _assert_matches_reference(g, b)

    @given(small_graphs(max_n=7), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, g, b):
        _assert_matches_reference(g, b)

    @pytest.mark.parametrize("b", [2, 4])
    def test_spanning_search_sees_only_degree_two_sets(self, monkeypatch, b):
        # the scan hands spanning_in_range (through the module-level name the
        # traced benchmark rebinds) only sets with every induced degree >= 2,
        # and stops at the first feasible one
        calls = []
        real = oracle.spanning_in_range

        def recorder(g, mask, b):
            result = real(g, mask, b)
            calls.append((frozenset(bits(mask)), result))
            return result

        monkeypatch.setattr(oracle, "spanning_in_range", recorder)
        graphs = [pendant_sharpness(cycle_graph(3))] + [gnp(9, 0.5, seed) for seed in range(6)]
        total = 0
        for g in graphs:
            calls.clear()
            result = min_small_components_exact(g, b)
            nbrs = neighbors(g)
            for verts, _ in calls:
                assert len(verts) >= 3
                assert all(len(nbrs[v] & verts) >= 2 for v in verts), (g.edges, sorted(verts))
            assert all(r is None for _, r in calls[:-1])
            large = _large_part(result)
            if large:
                assert calls[-1][0] == large and calls[-1][1] is not None
            else:
                assert all(r is None for _, r in calls)
            total += len(calls)
        assert total > 0


def _walk_reference(g: Graph) -> list[int]:
    """S empty and every set in which each vertex has two neighbors inside,
    sorted by (|R| - nu, |R| - 2 nu, bitmask of S), R = V - S, with nu from
    a memoized recursion on the lowest vertex of R."""
    nu = {0: 0}

    def matching(rest: int) -> int:
        if rest not in nu:
            v = (rest & -rest).bit_length() - 1
            left = rest ^ (1 << v)
            nu[rest] = max([matching(left)] + [1 + matching(left ^ (1 << w)) for w in bits(g.adj_bits[v] & left)])
        return nu[rest]

    kept = [s for s in range(g.full_mask + 1) if all((g.adj_bits[v] & s).bit_count() >= 2 for v in bits(s))]

    def key(large: int) -> tuple[int, int, int]:
        rest = g.full_mask ^ large
        return (rest.bit_count() - matching(rest), rest.bit_count() - 2 * matching(rest), large)

    return sorted(kept, key=key)


class TestWalkOrder:
    """The grouped walk visits the kept candidates in exactly the order a
    full sort would give, whichever b reaches a shared scan's groups first."""

    @staticmethod
    def _check(monkeypatch, g: Graph, b_values) -> None:
        expected = _walk_reference(g)
        calls: list[int] = []
        real = oracle.spanning_in_range

        def recorder(g, mask, b):
            calls.append(mask)
            return real(g, mask, b)

        def refuse_all(g, mask, b):
            calls.append(mask)
            return None

        memo = SolveMemo(g)
        for b in b_values:
            # a real walk is a prefix of the order, ending at the witness
            calls.clear()
            monkeypatch.setattr(oracle, "spanning_in_range", recorder)
            min_small_components_exact(g, b, memo=memo)
            assert calls == expected[: len(calls)], (g.edges, b)
            # with every search refused, the walk runs on until S empty; a
            # memo sharing only the scan, so no kept witness ends it early
            calls.clear()
            monkeypatch.setattr(oracle, "spanning_in_range", refuse_all)
            scan_only = SolveMemo(g)
            scan_only.scan = memo.scan
            min_small_components_exact(g, b, memo=scan_only)
            assert calls == expected[: expected.index(0)], (g.edges, b)
        # no small components means R is empty, so group 0 holds at most V
        assert memo.scan[1][0] in ([], [g.full_mask])

    @given(small_graphs(max_n=10), st.lists(st.integers(2, 6), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, g, b_values):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._check(monkeypatch, g, b_values)

    @pytest.mark.parametrize(
        "g",
        [
            pendant_sharpness(cycle_graph(3)),
            pendant_sharpness(cycle_graph(5)),
            join_sharpness(complete_graph(1), 3),
            join_sharpness(complete_graph(2), 4),
            join_sharpness(cycle_graph(3), 3),
        ],
        ids=["pendant-c3", "pendant-c5", "join-k1-3", "join-k2-4", "join-c3-3"],
    )
    def test_tight_families(self, monkeypatch, g):
        self._check(monkeypatch, g, (4, 2, 6))


class TestNaive:
    def test_partition_enumeration_counts(self):
        # Bell numbers pin the enumerator itself
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
