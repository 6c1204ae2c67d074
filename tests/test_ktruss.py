"""Tests for k-truss decomposition, with NetworkX as oracle."""

import networkx as nx
import pytest
from hypothesis import given

from repro.algorithms.truss_search import truss_community_search
from repro.core.ktruss import edge_support, k_truss, truss_decomposition

from conftest import build_graph, random_graphs


def _to_nx(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices())
    nxg.add_edges_from(g.edges())
    return nxg


def _triangle():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


class TestEdgeSupport:
    def test_triangle_support(self):
        assert edge_support(_triangle()) == {(0, 1): 1, (0, 2): 1,
                                             (1, 2): 1}

    def test_path_has_zero_support(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert edge_support(g) == {(0, 1): 0, (1, 2): 0}

    def test_subset_restriction(self):
        g = _triangle()
        support = edge_support(g, subset={0, 1})
        assert support == {(0, 1): 0}

    def test_k4_support(self):
        g = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert all(s == 2 for s in edge_support(g).values())


class TestTrussDecomposition:
    def test_empty(self):
        assert truss_decomposition(build_graph(3, [])) == {}

    def test_single_edge_truss_two(self):
        g = build_graph(2, [(0, 1)])
        assert truss_decomposition(g) == {(0, 1): 2}

    def test_triangle_truss_three(self):
        assert set(truss_decomposition(_triangle()).values()) == {3}

    def test_k4_truss_four(self):
        g = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert set(truss_decomposition(g).values()) == {4}

    def test_triangle_with_tail(self):
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        truss = truss_decomposition(g)
        assert truss[(2, 3)] == 2
        assert truss[(0, 1)] == 3

    @given(random_graphs(max_n=18, max_m=60))
    def test_matches_networkx_k_truss(self, g):
        """Property: for every k, our k-truss edge set equals the edge
        set of NetworkX's k_truss subgraph."""
        truss = truss_decomposition(g)
        kmax = max(truss.values()) if truss else 2
        nxg = _to_nx(g)
        for k in range(2, kmax + 2):
            ours = k_truss(g, k)
            theirs = nx.k_truss(nxg, k)
            theirs_edges = {(min(u, v), max(u, v))
                            for u, v in theirs.edges()}
            assert ours == theirs_edges

    @given(random_graphs(max_n=16, max_m=50))
    def test_truss_definition(self, g):
        """Property: inside the k-truss every edge closes >= k-2
        triangles with other k-truss edges."""
        truss = truss_decomposition(g)
        kmax = max(truss.values()) if truss else 2
        for k in range(2, kmax + 1):
            edges = k_truss(g, k)
            adj = {}
            for u, v in edges:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
            for u, v in edges:
                common = adj.get(u, set()) & adj.get(v, set())
                assert len(common) >= k - 2


class TestKTrussQueries:
    def test_k_truss_k_below_two(self):
        with pytest.raises(ValueError):
            k_truss(_triangle(), 1)

    def test_connected_k_truss(self):
        # Two triangles sharing no vertex: each query vertex's k-truss
        # community is its own triangle.
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5)])
        assert [c.vertices for c in truss_community_search(g, 0, 3)] == \
            [{0, 1, 2}]
        assert [c.vertices for c in truss_community_search(g, 4, 3)] == \
            [{3, 4, 5}]

    def test_connected_k_truss_absent(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert truss_community_search(g, 0, 3) == []
