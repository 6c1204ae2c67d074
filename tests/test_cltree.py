"""Tests for the CL-tree index (Figure 5(b))."""

from hypothesis import given

from repro.core.cltree import build_cltree, build_cltree_basic
from repro.core.kcore import connected_k_core, core_decomposition

from conftest import build_graph, random_graphs


def _tree_shape(tree):
    """Canonical structure: frozenset-based recursive description."""
    def node_shape(node):
        return (node.k, frozenset(node.vertices),
                frozenset(node_shape(c) for c in node.children))
    return frozenset(node_shape(r) for r in tree.roots)


class TestFigure5:
    """The index must match Figure 5(b) of the paper exactly."""

    def test_advanced_structure(self, fig5):
        tree = build_cltree(fig5)
        assert tree.describe() == (
            "[k=0] {J}\n"
            "  [k=1] {F, G}\n"
            "    [k=2] {E}\n"
            "      [k=3] {A, B, C, D}\n"
            "  [k=1] {H, I}"
        )

    def test_basic_structure_identical(self, fig5):
        assert (_tree_shape(build_cltree(fig5))
                == _tree_shape(build_cltree_basic(fig5)))

    def test_single_root_homes_isolated_vertex(self, fig5):
        tree = build_cltree(fig5)
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.k == 0
        assert [fig5.label(v) for v in root.vertices] == ["J"]

    def test_node_of_respects_core_numbers(self, fig5):
        tree = build_cltree(fig5)
        core = core_decomposition(fig5)
        for v in fig5.vertices():
            # v's home: the node of its own core number that holds it.
            home = tree.component_root(v, core[v])
            assert home.k == core[v]
            assert v in home.vertices

    def test_inverted_lists(self, fig5):
        tree = build_cltree(fig5)
        node3 = tree.component_root(fig5.id_of("A"), 3)
        # Keyword x appears on A, B, C, D (all homed at the k=3 node).
        assert sorted(fig5.label(v) for v in node3.inverted["x"]) == \
            ["A", "B", "C", "D"]
        assert sorted(fig5.label(v) for v in node3.inverted["w"]) == ["A"]
        assert "z" in node3.inverted  # D carries z

    def test_node_count(self, fig5):
        assert build_cltree(fig5).node_count() == 5


class TestQueries:
    def test_component_root_walks_up(self, fig5):
        tree = build_cltree(fig5)
        a = fig5.id_of("A")
        assert tree.component_root(a, 3).k == 3
        assert tree.component_root(a, 2).k == 2
        assert tree.component_root(a, 1).k == 1

    def test_component_root_above_core_number(self, fig5):
        tree = build_cltree(fig5)
        assert tree.component_root(fig5.id_of("E"), 3) is None
        assert tree.component_root(fig5.id_of("J"), 1) is None

    def test_community_vertices_matches_peeling(self, fig5):
        tree = build_cltree(fig5)
        a = fig5.id_of("A")
        for k in range(0, 4):
            assert tree.community_vertices(a, k) == \
                connected_k_core(fig5, a, k)

    def test_community_vertices_k0_connected(self, fig5):
        """k=0 must return the connected component, not the whole
        (disconnected) 0-core the root represents."""
        tree = build_cltree(fig5)
        h = fig5.id_of("H")
        assert {fig5.label(v) for v in tree.community_vertices(h, 0)} == \
            {"H", "I"}
        j = fig5.id_of("J")
        assert tree.community_vertices(j, 0) == {j}

    def test_keyword_vertex_sets(self, fig5):
        tree = build_cltree(fig5)
        sets = tree.keyword_vertex_sets(fig5.id_of("A"), 2,
                                        ["x", "y", "w", "nope"])
        # In {A,B,C,D,E}: x on A,B,C,D; y on A,C,D,E; w on A.
        assert {w: {fig5.label(v) for v in vs}
                for w, vs in sets.items()} == {
            "x": {"A", "B", "C", "D"}, "y": {"A", "C", "D", "E"},
            "w": {"A"}, "nope": set()}

    def test_keyword_vertex_sets_spans_the_k_core(self, fig5):
        tree = build_cltree(fig5)
        sets = tree.keyword_vertex_sets(fig5.id_of("A"), 1, ["y"])
        assert {fig5.label(v) for v in sets["y"]} == \
            {"A", "C", "D", "E", "F", "G"}

    def test_index_size_counts(self, fig5):
        sizes = build_cltree(fig5).index_size()
        assert sizes["vertex_entries"] == 10
        assert sizes["nodes"] == 5
        total_kw = sum(len(fig5.keywords(v)) for v in fig5.vertices())
        assert sizes["postings"] == total_kw


class TestEdgeCases:
    def test_empty_graph(self):
        tree = build_cltree(build_graph(0, []))
        assert tree.roots == []
        assert tree.node_count() == 0

    def test_all_isolated(self):
        g = build_graph(3, [])
        tree = build_cltree(g)
        assert len(tree.roots) == 1
        assert tree.roots[0].k == 0
        assert sorted(tree.roots[0].vertices) == [0, 1, 2]

    def test_connected_min_core_one_has_no_zero_node(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        tree = build_cltree(g)
        assert len(tree.roots) == 1
        assert tree.roots[0].k == 1

    def test_two_cliques_get_zero_root(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5)])
        tree = build_cltree(g)
        assert len(tree.roots) == 1
        root = tree.roots[0]
        assert root.k == 0
        assert root.vertices == []
        assert sorted(child.k for child in root.children) == [2, 2]


class TestBuilderEquivalence:
    @given(random_graphs(max_n=26, max_m=90))
    def test_advanced_equals_basic(self, g):
        """Property: both builders produce the identical tree shape."""
        assert (_tree_shape(build_cltree(g))
                == _tree_shape(build_cltree_basic(g)))

    @given(random_graphs(max_n=22, max_m=70))
    def test_index_queries_match_peeling(self, g):
        """Property: community_vertices == connected_k_core everywhere."""
        tree = build_cltree(g)
        core = core_decomposition(g)
        for v in g.vertices():
            for k in (0, 1, 2, core[v], core[v] + 1):
                expected = connected_k_core(g, v, k)
                assert tree.community_vertices(v, k) == expected

    @given(random_graphs(max_n=24, max_m=80))
    def test_every_vertex_homed_once(self, g):
        """Property: nodes partition the vertex set; parents have
        strictly smaller k than children."""
        tree = build_cltree(g)
        seen = []
        for root in tree.roots:
            for node in root.subtree_nodes():
                seen.extend(node.vertices)
                for child in node.children:
                    assert child.k > node.k
                    assert child.parent is node
        assert sorted(seen) == list(g.vertices())
