"""Tests for k-core decomposition and peeling.

NetworkX (which ships its own core-number implementation) serves as an
independent oracle; it is used *only* in tests, never in the library.
"""

import networkx as nx
import pytest
from hypothesis import given

from repro.core.kcore import (
    connected_k_core,
    core_decomposition,
    k_core,
    peel_to_min_degree,
)
from repro.graph import AttributedGraph, freeze
from repro.util.errors import UnknownVertexError

from conftest import build_graph, random_graphs


def _to_nx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.edges())
    return nxg


class TestCoreDecomposition:
    def test_figure5_core_numbers(self, fig5):
        """The exact table of Figure 5(b)."""
        core = core_decomposition(fig5)
        expected = {"A": 3, "B": 3, "C": 3, "D": 3, "E": 2,
                    "F": 1, "G": 1, "H": 1, "I": 1, "J": 0}
        got = {fig5.label(v): core[v] for v in fig5.vertices()}
        assert got == expected

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert core_decomposition(g) == []
        assert max(core_decomposition(g), default=0) == 0

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert core_decomposition(g) == [0]

    def test_clique(self):
        g = build_graph(5, [(i, j) for i in range(5) for j in range(i)])
        assert core_decomposition(g) == [4] * 5
        assert max(core_decomposition(g), default=0) == 4

    def test_star(self):
        g = build_graph(6, [(0, i) for i in range(1, 6)])
        assert core_decomposition(g) == [1] * 6

    def test_karate_max_core(self, karate):
        assert max(core_decomposition(karate), default=0) == 4

    @given(random_graphs(max_n=30, max_m=120))
    def test_matches_networkx(self, g):
        """Property: agrees with NetworkX's core_number on any graph."""
        ours = core_decomposition(g)
        theirs = nx.core_number(_to_nx(g))
        assert {v: ours[v] for v in g.vertices()} == theirs

    @given(random_graphs())
    def test_kcore_definition(self, g):
        """Property: inside H_k every vertex has >= k neighbours in H_k,
        and no vertex outside H_k could be added (maximality via the
        peeling fixpoint)."""
        core = core_decomposition(g)
        k = max(core) if core else 0
        members = k_core(g, k)
        for v in members:
            inside = sum(1 for u in g.neighbors(v) if u in members)
            assert inside >= k

    @given(random_graphs())
    def test_cores_are_nested(self, g):
        """Property: the (k+1)-core is contained in the k-core."""
        kmax = max(core_decomposition(g), default=0)
        previous = set(g.vertices())
        for k in range(kmax + 1):
            current = k_core(g, k)
            assert current <= previous
            previous = current


class TestKCoreSubsets:
    def test_k_core_negative_k(self, fig5):
        with pytest.raises(ValueError):
            k_core(fig5, -1)

    def test_k_core_vertices_fig5(self, fig5):
        names = {fig5.label(v) for v in k_core(fig5, 3)}
        assert names == {"A", "B", "C", "D"}
        names2 = {fig5.label(v) for v in k_core(fig5, 2)}
        assert names2 == {"A", "B", "C", "D", "E"}

    def test_connected_k_core_fig5(self, fig5):
        got = connected_k_core(fig5, fig5.id_of("A"), 2)
        assert {fig5.label(v) for v in got} == {"A", "B", "C", "D", "E"}

    def test_connected_k_core_absent(self, fig5):
        assert connected_k_core(fig5, fig5.id_of("J"), 1) is None

    def test_connected_k_core_k0_is_component(self, fig5):
        got = connected_k_core(fig5, fig5.id_of("H"), 0)
        assert {fig5.label(v) for v in got} == {"H", "I"}

    def test_connected_k_core_separate_components(self, fig5):
        got = connected_k_core(fig5, fig5.id_of("H"), 1)
        assert {fig5.label(v) for v in got} == {"H", "I"}


class TestPeeling:
    def test_peel_keeps_k_core(self, fig5):
        alive = peel_to_min_degree(fig5, fig5.vertices(), 3)
        assert {fig5.label(v) for v in alive} == {"A", "B", "C", "D"}

    def test_peel_protect_failure_returns_none(self, fig5):
        assert peel_to_min_degree(fig5, fig5.vertices(), 3,
                                  protect=(fig5.id_of("E"),)) is None

    def test_peel_protect_outside_candidates(self, fig5):
        assert peel_to_min_degree(fig5, [0, 1], 0,
                                  protect=(9,)) is None

    def test_peel_on_subset(self, fig5):
        # Restricted to {A, B, C}, everyone has degree 2.
        ids = [fig5.id_of(x) for x in "ABC"]
        alive = peel_to_min_degree(fig5, ids, 2)
        assert alive == set(ids)
        assert peel_to_min_degree(fig5, ids, 3) == set()

    @given(random_graphs())
    def test_peel_equals_kcore_on_full_graph(self, g):
        """Property: peeling the whole graph to min degree k gives H_k."""
        kmax = max(core_decomposition(g), default=0)
        for k in range(kmax + 2):
            assert peel_to_min_degree(g, g.vertices(), k) == k_core(g, k)

    @given(random_graphs())
    def test_peel_monotone_in_candidates(self, g):
        """Property: a larger candidate set never yields a smaller core."""
        n = g.vertex_count
        half = set(range(n // 2))
        small = peel_to_min_degree(g, half, 2)
        large = peel_to_min_degree(g, g.vertices(), 2)
        assert small <= large


class TestUnknownIds:
    """The kernels read adjacency unchecked, where a negative id would
    wrap around; they validate what they were handed up front."""

    @pytest.mark.parametrize("wrap", [lambda g: g, freeze])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_connected_k_core_rejects_unknown_query(self, wrap, bad):
        graph = wrap(_square())
        with pytest.raises(UnknownVertexError):
            connected_k_core(graph, bad, 1)

    @pytest.mark.parametrize("wrap", [lambda g: g, freeze])
    @pytest.mark.parametrize("bad", [-1, 4])
    def test_peel_rejects_unknown_candidates(self, wrap, bad):
        graph = wrap(_square())
        with pytest.raises(UnknownVertexError):
            peel_to_min_degree(graph, {0, 1, 2, bad}, 1)


def _square():
    graph = AttributedGraph()
    for i in range(4):
        graph.add_vertex("v{}".format(i))
    for i in range(4):
        graph.add_edge(i, (i + 1) % 4)
    return graph
