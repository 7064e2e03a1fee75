import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudofactor import generators
from pseudofactor.errors import ManifestError
from pseudofactor.generators import (
    MANIFEST_EDGE_LIMIT,
    FamilySpec,
    complete_graph,
    cycle_graph,
    gnp,
    join_sharpness,
    parse_manifest,
    path_graph,
    pendant_sharpness,
    read_manifest,
)
from pseudofactor.graph import DECLARED_VERTEX_LIMIT, Graph, independence_number, min_degree


# manifest text: arbitrary strings, and lines of spec-like tokens
_MANIFEST_TOKENS = (
    "gnp", "join", "pendant", "cycle", "complete", "path", "#", "=", "n=5", "n=-3", "n=inf",
    "n=nan", "n=1e9", "n=", "p=0.5", "p=3", "h=2", "seed=1", "seed=x", "x=1",
)
manifest_texts = st.one_of(
    st.text(max_size=60),
    st.lists(st.lists(st.sampled_from(_MANIFEST_TOKENS), max_size=5).map(" ".join), max_size=6).map("\n".join),
)


class TestJoinFamily:
    def test_hub_with_three_edges(self):
        g = join_sharpness(complete_graph(1), 3)
        assert g.n == 7
        assert min_degree(g) == 2
        assert independence_number(g) == 3

    def test_two_hubs_five_edges(self):
        g = join_sharpness(complete_graph(2), 5)
        assert min_degree(g) == 3
        assert independence_number(g) == 5

    def test_smallest(self):
        g = join_sharpness(complete_graph(1), 1)
        assert (g.n, min_degree(g), independence_number(g)) == (3, 2, 1)

    @pytest.mark.parametrize("h_size,b", [(1, 4), (2, 4), (1, 6)])
    def test_sharp_regime_parameters(self, h_size, b):
        # for p > b|H|/2 the construction has delta = |H|+1 and alpha = p
        p = b * h_size // 2 + 1
        g = join_sharpness(complete_graph(h_size), p)
        assert min_degree(g) == h_size + 1
        assert independence_number(g) == p

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            join_sharpness(Graph.build(0, []), 2)

    def test_nonpositive_p_rejected(self):
        with pytest.raises(ValueError):
            join_sharpness(complete_graph(1), 0)


class TestPendantFamily:
    def test_triangle(self):
        g = pendant_sharpness(cycle_graph(3))
        assert g.n == 6
        assert min_degree(g) == 1
        assert independence_number(g) == 3

    def test_five_cycle(self):
        g = pendant_sharpness(cycle_graph(5))
        assert min_degree(g) == 1
        assert independence_number(g) == 5

    def test_star_rejected(self):
        star = Graph.build(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="degree 1"):
            pendant_sharpness(star)


class TestGnp:
    def test_zero_probability(self):
        assert gnp(5, 0, 123).edges == ()

    def test_probability_one(self):
        g = gnp(5, 1, 123)
        assert len(g.edges) == 10

    def test_seed_determinism(self):
        assert gnp(8, 0.5, 42).edges == gnp(8, 0.5, 42).edges

    def test_seeds_differ(self):
        assert gnp(8, 0.5, 1).edges != gnp(8, 0.5, 2).edges

    def test_domain(self):
        with pytest.raises(ValueError):
            gnp(0, 0.5, 1)
        with pytest.raises(ValueError):
            gnp(5, 1.5, 1)


class TestNamedGraphs:
    def test_cycle(self):
        g = cycle_graph(4)
        assert len(g.edges) == 4
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        assert len(complete_graph(5).edges) == 10

    def test_path(self):
        assert path_graph(1).edges == ()
        assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))


class TestFamilySpec:
    def test_parse_and_build(self):
        spec = FamilySpec.parse("gnp n=8 p=0.5 seed=42")
        assert spec.instance_id() == "gnp n=8 p=0.5 seed=42"
        assert spec.build().edges == gnp(8, 0.5, 42).edges

    def test_join_spec(self):
        spec = FamilySpec.parse("join h=1 p=3")
        assert spec.build().n == 7

    def test_pendant_spec(self):
        spec = FamilySpec.parse("pendant h=4")
        assert spec.build().n == 8

    def test_unknown_family(self):
        with pytest.raises(ManifestError, match="unknown family"):
            FamilySpec.parse("torus n=5")

    def test_unknown_family_lists_every_family_in_table_order(self):
        with pytest.raises(ManifestError) as info:
            FamilySpec.parse("torus n=5")
        assert str(info.value) == ("unknown family 'torus' (expected one of "
                                   "join, pendant, gnp, cycle, complete, path)")
        assert list(generators._FAMILIES) == ["join", "pendant", "gnp", "cycle", "complete", "path"]

    @pytest.mark.parametrize("family", list(generators._FAMILIES))
    def test_implied_size_matches_the_built_graph(self, family):
        # the implied (vertices, edges) is the built graph's, except that gnp
        # below p = 1 builds only some of the vertex pairs it samples
        keys, size, build = generators._FAMILIES[family]
        grid = [(0.5, 1) if (family, key) == ("gnp", "p") else range(1, 6) for key in keys]
        built = 0
        for values in itertools.product(*grid):
            params = dict(zip(keys, values))
            try:
                g = build(*values)
            except ValueError:
                continue  # outside the family's domain, as build() reports it
            vertices, edges = size(*values)
            if family == "gnp" and params["p"] < 1:
                assert g.n == vertices and len(g.edges) <= edges, values
            else:
                assert (g.n, len(g.edges)) == (vertices, edges), values
            built += 1
        assert built >= 3

    def test_missing_key(self):
        with pytest.raises(ManifestError, match="missing"):
            FamilySpec.parse("gnp n=8 p=0.5")

    def test_extra_key(self):
        with pytest.raises(ManifestError, match="does not take"):
            FamilySpec.parse("cycle n=5 p=0.3")

    def test_bad_value(self):
        with pytest.raises(ManifestError, match="non-numeric"):
            FamilySpec.parse("cycle n=five")

    def test_bad_parameter_surfaces_instance(self):
        with pytest.raises(ManifestError, match="cycle"):
            FamilySpec.parse("cycle n=2").build()

    def test_integer_probability_past_float_range_surfaces_instance(self):
        # gnp's p reaches the builder as written; float() of it used to
        # escape as OverflowError
        with pytest.raises(ManifestError, match="edge probability must be in"):
            FamilySpec.parse(f"gnp n=5 p={10 ** 400} seed=1").build()

    @pytest.mark.parametrize("line", [
        "complete n=1000000000",
        "cycle n=65537",
        "path n=1e12",
        "gnp n=100000 p=0.001 seed=1",
        "join h=1 p=40000",
        "pendant h=40000",
    ])
    def test_too_many_vertices_rejected_at_parse(self, line):
        # parse only: nothing oversized is ever built here
        with pytest.raises(ManifestError, match="vertices, over the limit"):
            FamilySpec.parse(line)

    @pytest.mark.parametrize("line", [
        "complete n=725",
        "gnp n=725 p=0.001 seed=1",
        "join h=725 p=1",
    ])
    def test_too_many_edges_rejected_at_parse(self, line):
        with pytest.raises(ManifestError, match="edges, over the limit"):
            FamilySpec.parse(line)

    def test_size_limits_are_inclusive(self):
        assert FamilySpec.parse(f"cycle n={DECLARED_VERTEX_LIMIT}").get("n") == DECLARED_VERTEX_LIMIT
        assert 724 * 723 // 2 <= MANIFEST_EDGE_LIMIT < 725 * 724 // 2
        FamilySpec.parse("complete n=724")

    def test_non_finite_size_rejected(self):
        with pytest.raises(ManifestError, match="not finite"):
            FamilySpec.parse("path n=inf")

    @pytest.mark.parametrize("line, key", [
        ("gnp n=6.9 p=0.5 seed=1", "n"),
        ("gnp n=6 p=0.5 seed=1.5", "seed"),
        ("join h=3 p=2.5", "p"),
        ("join h=2.5 p=3", "h"),
        ("pendant h=4.2", "h"),
        ("cycle n=5.5", "n"),
        ("path n=-1.5", "n"),
    ])
    def test_fractional_integer_key_rejected(self, line, key):
        with pytest.raises(ManifestError, match=f"{key}=.* is not an integer"):
            FamilySpec.parse(line)

    def test_non_finite_seed_rejected(self):
        with pytest.raises(ManifestError, match="seed=inf is not finite"):
            FamilySpec.parse("gnp n=6 p=0.5 seed=inf")

    def test_integral_float_and_gnp_probability_accepted(self):
        assert FamilySpec.parse("cycle n=5.0").build().n == 5
        assert FamilySpec.parse("gnp n=6 p=0.5 seed=1").get("p") == 0.5

    def test_oversized_manifest_line_reports_line_number(self):
        with pytest.raises(ManifestError, match="line 2: .*over the limit"):
            parse_manifest("cycle n=5\ncomplete n=1000000000\n")

    def test_manifest_parsing(self):
        text = "# corpus\n\ngnp n=6 p=0.5 seed=1\njoin h=1 p=3  # tight\n"
        specs = parse_manifest(text)
        assert [s.family for s in specs] == ["gnp", "join"]

    @given(manifest_texts)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_raises_only_manifest_errors(self, text):
        # parse only: a spec that parses may still be costly to build
        try:
            parse_manifest(text)
        except ManifestError:
            pass

    def test_manifest_error_carries_line_number(self):
        with pytest.raises(ManifestError, match="line 2"):
            parse_manifest("gnp n=6 p=0.5 seed=1\nbad spec\n")

    @pytest.mark.parametrize("text", [
        "cycle n=5\r\npath n=4\rcomplete n=3\n",
        "# a\x0cgnp n=6 p=0.5 seed=1\x85join h=1 p=3",
        "cycle n=5\n\u2028bad spec\n",
        "cycle n=5\r\n\r\nfoo n=3\r\n",
    ])
    def test_manifest_file_reads_as_its_text(self, tmp_path, text):
        # the file reader splits lines as str.splitlines does, so specs and
        # line numbers match parse_manifest on the same text
        path = tmp_path / "manifest.txt"
        path.write_bytes(text.encode("utf-8"))

        def outcome(parse, source):
            try:
                return parse(source)
            except ManifestError as exc:
                return str(exc)

        expected = outcome(parse_manifest, text)
        assert outcome(read_manifest, path) == (expected if isinstance(expected, list)
                                                 else f"{path}: {expected}")

    def test_manifest_file_is_read_a_line_at_a_time(self, tmp_path):
        # a 4 MB comment-only manifest holding one spec is never held whole
        path = tmp_path / "manifest.txt"
        comment = "# " + "x" * 76 + "\n"
        path.write_text(comment * 25_000 + "cycle n=5\n" + comment * 25_000, encoding="utf-8")
        tracemalloc.start()
        try:
            specs = read_manifest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert specs == [FamilySpec("cycle", (("n", 5),))]
        assert peak < 1 << 20
