import itertools
import os
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudofactor.graph as graph_module
import pseudofactor.memo as memo_module
from conftest import all_labelled_graphs, brute_force_alpha, mask_of, neighbors, petersen, small_graphs
from pseudofactor.errors import CapacityError, GraphParseError, NonMaximalPathError
from pseudofactor import heuristic
from pseudofactor.factor import spanning_in_range
from pseudofactor.generators import complete_graph, cycle_graph, gnp, join_sharpness, path_graph
from pseudofactor.graph import (
    DECLARED_VERTEX_LIMIT,
    INDEPENDENCE_LIMIT,
    LONGEST_PATH_LIMIT,
    Graph,
    _greedy_independent,
    bits,
    component_masks,
    independence_number,
    load_dimacs,
    load_edge_list,
    load_graph_text,
    longest_path,
    min_degree,
    norm_edge,
    read_graph_file,
    to_edge_list,
    vertex_mask,
)
from pseudofactor.heuristic import posa_cover
from pseudofactor.memo import SolveMemo


# graph-file text: arbitrary strings, and lines of the formats' own tokens so
# that most examples get past the first line
_GRAPH_TOKENS = ("n", "p", "edge", "e", "c", "#", "0", "1", "2", "3", "-1", "1.5", "x", str(DECLARED_VERTEX_LIMIT + 1))
graph_texts = st.one_of(
    st.text(max_size=60),
    st.lists(st.lists(st.sampled_from(_GRAPH_TOKENS), max_size=5).map(" ".join), max_size=8).map("\n".join),
)


def _to_dimacs(g: Graph) -> str:
    lines = ["c rendered by the test", f"p edge {g.n} {len(g.edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_path_on_three(self):
        g = load_edge_list("n 3\n0 1\n1 2")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_c5(self):
        g = load_edge_list("n 5\n0 1\n1 2\n2 3\n3 4\n4 0")
        assert g.n == 5
        assert len(g.edges) == 5
        assert all(a.bit_count() == 2 for a in g.adj_bits)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            load_edge_list("n 2\n0 0")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            load_edge_list("n 3\n0 1\n1 two")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="header"):
            load_edge_list("0 1")

    def test_duplicate_edges_collapse(self):
        g = load_edge_list("n 3\n0 1\n1 0\n0 1")
        assert g.edges == ((0, 1),)

    def test_comments_and_blanks(self):
        g = load_edge_list("# a path\nn 3\n\n0 1  # first\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_out_of_range(self):
        with pytest.raises(GraphParseError, match="range"):
            load_edge_list("n 2\n0 2")

    def test_empty_graph_accepted(self):
        g = load_edge_list("n 0")
        assert g.n == 0 and g.edges == ()

    def test_dimacs(self):
        g = load_dimacs("c a path\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_dimacs_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            load_dimacs("p edge 2 1\ne 1 1")

    def test_dimacs_out_of_range(self):
        with pytest.raises(GraphParseError, match="range"):
            load_dimacs("p edge 2 1\ne 1 3")

    @pytest.mark.parametrize("m", ["banana", "-7"])
    def test_dimacs_edge_count_is_checked(self, m):
        with pytest.raises(GraphParseError, match=r"^line 2: edge count"):
            load_dimacs(f"c comment\np edge 3 {m}\ne 1 2")

    def test_dimacs_edge_count_need_not_match(self):
        # duplicate edges collapse, so m may exceed the distinct edges
        assert load_dimacs("p edge 3 5\ne 1 2\ne 2 1").edges == ((0, 1),)

    def test_declared_vertex_count_limit(self):
        # rejected at the header, before any per-vertex allocation
        over = DECLARED_VERTEX_LIMIT + 1
        with pytest.raises(GraphParseError, match="exceeds the limit"):
            load_edge_list(f"n {over}\n0 1")
        with pytest.raises(GraphParseError, match="exceeds the limit"):
            load_dimacs(f"p edge {over} 1\ne 1 2")
        assert load_edge_list(f"n {DECLARED_VERTEX_LIMIT}").n == DECLARED_VERTEX_LIMIT

    def test_autodetect(self):
        assert load_graph_text("p edge 2 1\ne 1 2").edges == ((0, 1),)
        assert load_graph_text("n 2\n0 1").edges == ((0, 1),)

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x85", "\u2028"], ids=["lf", "cr", "nel", "ls"])
    def test_comment_line_breaks_round_trip(self, brk):
        # the parser splits lines with str.splitlines, so a comment holding
        # any of its breaks must come out as several comment lines
        g = cycle_graph(4)
        text = to_edge_list(g, comments=(f"instance: a{brk}b",))
        assert text.startswith("# instance: a\n# b\nn 4\n")
        assert load_edge_list(text).edges == g.edges

    def test_edge_list_round_trip(self):
        g = petersen()
        assert load_edge_list(to_edge_list(g, comments=("petersen",))).edges == g.edges

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_list_round_trip_property(self, g):
        back = load_edge_list(to_edge_list(g))
        assert (back.n, back.edges) == (g.n, g.edges)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_dimacs_round_trip_property(self, g):
        back = load_graph_text(_to_dimacs(g))
        assert (back.n, back.edges) == (g.n, g.edges)

    @given(graph_texts)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_raises_only_parse_errors(self, text):
        for load in (load_graph_text, load_edge_list, load_dimacs):
            try:
                load(text)
            except GraphParseError:
                pass

    @given(st.lists(st.tuples(st.lists(st.sampled_from(_GRAPH_TOKENS), max_size=5).map(" ".join),
                              st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"])), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_file_parses_as_its_text(self, lines):
        # a file is read a line at a time, yet gives the graph, or the error
        # with its line number, that parsing its whole text gives
        text = "".join(line + brk for line, brk in lines)

        def outcome(load, source):
            try:
                g = load(source)
            except GraphParseError as exc:
                return str(exc)
            return g.n, g.edges

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.txt"
            path.write_text(text, encoding="utf-8", newline="")
            expected = outcome(load_graph_text, text)
            if isinstance(expected, str):
                expected = f"{path}: {expected}"
            assert outcome(read_graph_file, path) == expected

    @pytest.mark.parametrize("tail", [b"\xff\n", b"1 \xe2\x82\n", b"\xe2\x82"],
                             ids=["bad-byte", "bad-continuation", "truncated-at-end"])
    def test_decode_error_gives_its_file_position(self, tmp_path, tail):
        # past the first 8 KiB, as parsing the file's whole decoded text would
        data = b"n 2\n" + b"0 1\n" * 5000 + tail
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        path = tmp_path / "g.edges"
        path.write_bytes(data)
        with pytest.raises(GraphParseError) as exc:
            read_graph_file(path)
        assert str(exc.value) == f"{path}: {whole.value}"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read(self):
        # a pipe cannot seek, and is parsed in the same single pass as a file
        r, w = os.pipe()
        try:
            os.write(w, b"c a pipe\np edge 2 1\ne 1 2\n")
            os.close(w)
            assert read_graph_file(f"/dev/fd/{r}").edges == ((0, 1),)
        finally:
            os.close(r)

    @given(small_graphs(max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_adj_bits_match_edges(self, g):
        edges = set(g.edges)
        assert len(g.adj_bits) == g.n
        for v, a in enumerate(g.adj_bits):
            assert not a >> v & 1
            assert a == sum(1 << w for w in range(g.n) if norm_edge(v, w) in edges)

    def test_build_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph.build(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.build(3, [(1, 1)])


class TestMinDegree:
    def test_cycle_is_two_regular(self):
        assert min_degree(cycle_graph(5)) == 2

    def test_single_edge(self):
        assert min_degree(complete_graph(2)) == 1

    def test_star(self):
        star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        assert min_degree(star) == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            min_degree(Graph.build(0, []))


class TestIndependence:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete(self, n):
        assert independence_number(complete_graph(n)) == 1

    def test_c5(self):
        g = cycle_graph(5)
        assert independence_number(g) == 2
        assert brute_force_alpha(g) == 2

    def test_petersen(self):
        g = petersen()
        assert independence_number(g) == 4
        assert brute_force_alpha(g) == 4

    def test_within(self):
        g = cycle_graph(5)
        assert independence_number(g, 0b111) == 2
        assert independence_number(g, 0) == 0

    def test_capacity(self):
        over = INDEPENDENCE_LIMIT + 1
        with pytest.raises(CapacityError, match=f"limited to {INDEPENDENCE_LIMIT} vertices, got {over}"):
            independence_number(cycle_graph(over))
        assert independence_number(cycle_graph(INDEPENDENCE_LIMIT)) == INDEPENDENCE_LIMIT // 2

    @given(small_graphs())
    def test_matches_brute_force(self, g):
        assert independence_number(g) == brute_force_alpha(g)

    def test_every_small_graph(self):
        # all 1099 labelled graphs on 1..5 vertices
        for g in all_labelled_graphs(5):
            assert independence_number(g) == brute_force_alpha(g), g.edges

    @given(small_graphs(max_n=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_within(self, g, data):
        within = data.draw(st.sets(st.integers(0, g.n - 1)))
        assert independence_number(g, mask_of(within)) == brute_force_alpha(g, within), g.edges

    def test_where_greedy_falls_short(self):
        # the branch search decides alpha only where the greedy seed count is
        # not maximum: here 150 of the first 5,800 graphs drawn
        rng = random.Random(0)
        found = 0
        while found < 150:
            n = rng.randint(7, 10)
            p = rng.choice((0.3, 0.4, 0.5))
            g = Graph.build(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            alpha = independence_number(g)
            if _greedy_independent(g.adj_bits, g.full_mask) < alpha:
                found += 1
                assert alpha == brute_force_alpha(g), g.edges


def _assert_valid_path(g, path):
    assert len(set(path)) == len(path)
    nbrs = neighbors(g)
    for u, v in zip(path, path[1:]):
        assert v in nbrs[u]


def _brute_force_longest_path(g, within):
    """Lexicographically smallest longest path, by scanning vertex orders:
    ``permutations`` of a sorted pool yields tuples in lexicographic order."""
    nbrs = neighbors(g)
    pool = sorted(within)
    for length in range(len(pool), 0, -1):
        for order in itertools.permutations(pool, length):
            if all(v in nbrs[u] for u, v in zip(order, order[1:])):
                return order
    raise AssertionError("a single vertex is always a path")


def _reference_longest_path(g, within):
    """First longest path in lexicographic order, by an unpruned DFS over
    vertex sets: every path is visited, by ascending start and neighbour,
    and only a strictly longer path replaces the one kept."""
    nbrs = neighbors(g)
    allowed = set(within)
    best: list[int] = []
    path: list[int] = []

    def extend(v):
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        for u in sorted(nbrs[v] & allowed):
            if u not in path:
                path.append(u)
                extend(u)
                path.pop()

    for s in sorted(allowed):
        path = [s]
        extend(s)
    return tuple(best)


def _cycle_edges(first, length):
    return [(first + i, first + (i + 1) % length) for i in range(length)]


def _path_edges(vertices):
    return list(zip(vertices, vertices[1:]))


@st.composite
def chain_graphs(draw):
    """Graphs made of long single-extension chains, vertices shuffled: a
    cycle with a tail, a theta graph (two vertices joined by three disjoint
    paths) or two cycles joined by a path; at most 16 vertices."""
    kind = draw(st.sampled_from(["tail", "theta", "dumbbell"]))
    if kind == "tail":
        c, t = draw(st.integers(3, 9)), draw(st.integers(1, 7))
        n = c + t
        edges = _cycle_edges(0, c) + _path_edges([0] + list(range(c, n)))
    elif kind == "theta":
        # the first path may be the edge 0-1 itself
        lengths = [draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))]
        n, edges = 2, []
        for inner in lengths:
            edges += _path_edges([0] + list(range(n, n + inner)) + [1])
            n += inner
    else:
        c1, c2, gap = draw(st.integers(3, 6)), draw(st.integers(3, 6)), draw(st.integers(0, 4))
        n = c1 + c2 + gap
        edges = (
            _cycle_edges(0, c1)
            + _cycle_edges(c1, c2)
            + _path_edges([0] + list(range(c1 + c2, n)) + [c1])
        )
    perm = draw(st.permutations(range(n)))
    return Graph.build(n, [(perm[u], perm[v]) for u, v in edges])


def _mask_or_none(within):
    return None if within is None else mask_of(within)


class TestLongestPath:
    def test_c5_hamilton(self):
        path = longest_path(cycle_graph(5))
        assert len(path) == 5
        _assert_valid_path(cycle_graph(5), path)

    def test_star_three_vertices(self):
        star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        path = longest_path(star)
        assert len(path) == 3
        _assert_valid_path(star, path)

    def test_two_disjoint_edges(self):
        g = Graph.build(4, [(0, 1), (2, 3)])
        assert len(longest_path(g)) == 2

    def test_capacity(self):
        over = LONGEST_PATH_LIMIT + 1
        with pytest.raises(CapacityError, match=f"limited to {LONGEST_PATH_LIMIT} vertices, got {over}"):
            longest_path(path_graph(over))
        assert len(longest_path(path_graph(LONGEST_PATH_LIMIT))) == LONGEST_PATH_LIMIT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            longest_path(Graph.build(0, []))

    def test_step_budget(self, monkeypatch):
        # the budget counts branching steps only and is read at call time: a
        # path never branches, so it needs none; K_1 joined to 4 disjoint
        # edges has no Hamiltonian path, so its search branches 25 times, and
        # one step fewer than it takes is refused
        g = join_sharpness(complete_graph(1), 4)
        want = longest_path(g)
        monkeypatch.setattr(graph_module, "LONGEST_PATH_STEPS", 0)
        assert longest_path(path_graph(LONGEST_PATH_LIMIT)) == tuple(range(LONGEST_PATH_LIMIT))
        need = 0
        while True:
            monkeypatch.setattr(graph_module, "LONGEST_PATH_STEPS", need)
            try:
                assert longest_path(g) == want
                break
            except CapacityError as exc:
                assert str(exc) == f"longest-path search limited to {need} branching steps, on 9 vertices"
                need += 1
        assert need == 25

    def test_memo_keeps_its_refusal(self, monkeypatch):
        # a memo keeps the refusal it met and raises it again, same message,
        # without searching; a fresh memo searches again under the budget of
        # its time
        g = join_sharpness(complete_graph(1), 4)
        searches = []

        def counting(g, mask=None):
            searches.append(mask)
            return longest_path(g, mask)

        monkeypatch.setattr(memo_module, "longest_path", counting)
        memo = SolveMemo(g)
        with monkeypatch.context() as low:
            low.setattr(graph_module, "LONGEST_PATH_STEPS", 0)
            messages = []
            for _ in range(3):
                with pytest.raises(CapacityError, match="branching steps") as refused:
                    memo.path(g.full_mask)
                messages.append(str(refused.value))
            assert messages == ["longest-path search limited to 0 branching steps, on 9 vertices"] * 3
            assert searches == [g.full_mask]
        with pytest.raises(CapacityError):
            memo.path(g.full_mask)  # the budget rose, but this memo keeps its refusal
        assert searches == [g.full_mask]
        assert SolveMemo(g).path(g.full_mask) == longest_path(g)
        assert searches == [g.full_mask] * 2

    @given(small_graphs())
    @settings(max_examples=60)
    def test_endpoint_neighbors_lie_on_path(self, g):
        # this maximality is what makes the endpoint cycle sound
        path = longest_path(g)
        _assert_valid_path(g, path)
        on_path = set(path)
        nbrs = neighbors(g)
        for endpoint in (path[0], path[-1]):
            assert nbrs[endpoint] <= on_path


    @given(small_graphs(max_n=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lexicographically_smallest_longest_path(self, g, data):
        within = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        assert longest_path(g, mask_of(within)) == _brute_force_longest_path(g, within)

    @given(st.integers(8, 16), st.floats(0.1, 0.3), st.integers(0, 2**32), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_unpruned_search_on_sparse_graphs(self, n, p, seed, data):
        g = gnp(n, p, seed)
        within = data.draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1), min_size=1)))
        pool = range(n) if within is None else within
        assert longest_path(g, _mask_or_none(within)) == _reference_longest_path(g, pool)

    @given(chain_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_unpruned_search_on_chains(self, g, data):
        # long forced stretches, where the search skips its bound
        within = data.draw(st.one_of(st.none(), st.sets(st.integers(0, g.n - 1), min_size=1)))
        pool = range(g.n) if within is None else within
        assert longest_path(g, _mask_or_none(within)) == _reference_longest_path(g, pool)

    def test_lexicographically_smallest_on_every_small_graph(self):
        # random graphs rarely tie late in the search; all 1099 labelled
        # graphs on 1..5 vertices do
        for g in all_labelled_graphs(5):
            assert longest_path(g) == _brute_force_longest_path(g, range(g.n)), g.edges


class TestEndpointCycle:
    """The solver's endpoint-cycle rule, ``heuristic._first_piece``: from an
    end u of the longest path, the path to u's farthest neighbor on it,
    closed by that chord."""

    @staticmethod
    def first_piece(g, path=None):
        memo = SolveMemo(g)
        if path is not None:
            memo.paths[g.full_mask] = path
        return heuristic._first_piece(g, g.full_mask, memo)

    def test_c5_gives_whole_cycle(self):
        assert self.first_piece(cycle_graph(5)) == (0b11111, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))

    def test_k4_contains_closed_neighborhood(self):
        g = complete_graph(4)
        verts, edges = self.first_piece(g)
        u = longest_path(g)[0]
        assert neighbors(g)[u] | {u} <= set(bits(verts))
        assert verts.bit_count() == len(edges)

    def test_degree_one_endpoint_signals_no_cycle(self):
        assert self.first_piece(complete_graph(2)) == (0b11, ((0, 1),))

    def test_last_end_when_the_first_has_one_neighbor(self):
        # a triangle 1-2-3 with the pendant vertex 0 at 1: the path 0 1 2 3
        # starts at a leaf, so the cycle is taken at its last end 3
        g = Graph.build(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        assert longest_path(g) == (0, 1, 2, 3)
        assert self.first_piece(g) == (0b1110, ((2, 3), (1, 2), (1, 3)))

    def test_non_maximal_path_rejected(self):
        # vertex 4, a neighbor of the end 0, is not on the path
        with pytest.raises(NonMaximalPathError, match="not maximal"):
            self.first_piece(cycle_graph(5), (0, 1, 2))

    @given(small_graphs(min_n=2))
    @settings(max_examples=60)
    def test_cycle_removal_lowers_alpha(self, g):
        verts, edges = self.first_piece(g)
        if verts.bit_count() < 3:  # an edge or a vertex: no cycle
            return
        path = longest_path(g)
        assert any(neighbors(g)[u] | {u} <= set(bits(verts)) for u in (path[0], path[-1]))
        assert verts.bit_count() == len(edges)
        rest = set(range(g.n)) - set(bits(verts))
        assert independence_number(g, mask_of(rest)) < independence_number(g)

class TestConnectedComponents:
    def test_whole_cycle(self):
        g = cycle_graph(5)
        assert list(component_masks(g.adj_bits, g.full_mask)) == [0b11111]

    def test_restricted(self):
        comps = component_masks(cycle_graph(5).adj_bits, mask_of({0, 1, 3}))
        assert list(comps) == [0b00011, 0b01000]

    def test_empty(self):
        assert list(component_masks(cycle_graph(5).adj_bits, 0)) == []

    @given(small_graphs(), st.data())
    @settings(max_examples=60)
    def test_partition_properties(self, g, data):
        within = data.draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
        comps = [frozenset(bits(c)) for c in component_masks(g.adj_bits, mask_of(within))]
        nbrs = neighbors(g)
        seen = set()
        for comp in comps:
            assert comp and not (comp & seen)
            seen |= comp
            # connected: reachable from its first vertex inside comp
            start = min(comp)
            frontier, reach = {start}, {start}
            while frontier:
                frontier = {w for v in frontier for w in nbrs[v] & comp} - reach
                reach |= frontier
            assert reach == comp
        assert seen == set(within)
        for a in comps:
            for b_ in comps:
                if a is not b_:
                    assert not any(nbrs[v] & b_ for v in a)

    @given(small_graphs(max_n=12), st.data())
    @settings(max_examples=100)
    def test_component_masks_match_set_bfs(self, g, data):
        mask = data.draw(st.integers(0, g.full_mask))
        left = {v for v in range(g.n) if mask >> v & 1}
        nbrs = neighbors(g)
        expected = []
        while left:
            start = min(left)
            comp, frontier = {start}, {start}
            while frontier:
                frontier = {w for v in frontier for w in nbrs[v] & left} - comp
                comp |= frontier
            expected.append(sum(1 << v for v in comp))
            left -= comp
        assert list(component_masks(g.adj_bits, mask)) == expected


class TestWithinRange:
    """Every entry point that takes a vertex set takes an int mask: one with
    a bit at n or above, or a negative one, raises ValueError, and anything
    but an int raises TypeError."""

    ENTRY_POINTS = {
        "vertex_mask": vertex_mask,
        "longest_path": longest_path,
        "independence_number": independence_number,
        "posa_cover": posa_cover,
        "spanning_in_range": lambda g, m: spanning_in_range(g, m, 4),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("n, bad", [(4, 4), (4, 7), (4, -1), (0, 0)])
    def test_out_of_range_vertex(self, entry, n, bad):
        # a bit at n, a bit at n + 3, the mask -1, a bit at n of the empty graph
        g = cycle_graph(n) if n else Graph.build(0, [])
        mask = -1 if bad < 0 else g.full_mask & 0b11 | 1 << bad
        with pytest.raises(ValueError, match=rf"^vertex mask has a bit outside 0\.\.{n - 1}$"):
            self.ENTRY_POINTS[entry](g, mask)

    def test_range_checked_before_the_shift(self):
        # the check reads bit_length alone: a 125 kB mask is neither shifted
        # nor copied on the way to the refusal
        g = cycle_graph(4)
        huge = 1 << 10**6
        tracemalloc.start()
        try:
            for entry in self.ENTRY_POINTS.values():
                with pytest.raises(ValueError, match=r"^vertex mask has a bit outside 0\.\.3$"):
                    entry(g, huge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_vertex_set_is_not_a_mask(self, entry):
        # a set is refused, never read as something else
        with pytest.raises(TypeError, match="^a vertex set is an int bitmask, not set$"):
            self.ENTRY_POINTS[entry](cycle_graph(4), {0, 1})
