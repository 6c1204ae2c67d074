"""Tests for Newman-Girvan detection and edge betweenness."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.algorithms.newman_girvan import (
    edge_betweenness,
    modularity,
    newman_girvan,
)

from conftest import build_graph, random_graphs
from support.karate import karate_factions


class TestEdgeBetweenness:
    def test_path_graph_middle_edge_highest(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        b = edge_betweenness(g)
        assert b[(1, 2)] > b[(0, 1)]
        assert b[(0, 1)] == b[(2, 3)]

    def test_bridge_dominates(self):
        # Two triangles joined by a bridge: the bridge carries all
        # cross traffic.
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5), (2, 3)])
        b = edge_betweenness(g)
        assert max(b, key=b.get) == (2, 3)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=14, max_m=40))
    def test_matches_networkx(self, g):
        """Property: agrees with NetworkX's edge_betweenness_centrality
        (un-normalised)."""
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices())
        nxg.add_edges_from(g.edges())
        theirs = nx.edge_betweenness_centrality(nxg, normalized=False)
        ours = edge_betweenness(g)
        assert set(ours) == {tuple(sorted(e)) for e in theirs}
        for e, score in theirs.items():
            key = tuple(sorted(e))
            assert ours[key] == pytest.approx(score)

    def test_members_restriction(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        b = edge_betweenness(g, members={0, 1, 2})
        assert (2, 3) not in b


class TestModularity:
    def test_single_community_zero(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert modularity(g, [{0, 1, 2}]) == pytest.approx(0.0)

    def test_two_cliques_partition_positive(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5), (2, 3)])
        good = modularity(g, [{0, 1, 2}, {3, 4, 5}])
        bad = modularity(g, [{0, 3}, {1, 4}, {2, 5}])
        assert good > 0.3
        assert good > bad

    def test_empty_graph(self):
        g = build_graph(2, [])
        assert modularity(g, [{0}, {1}]) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=12, max_m=30))
    def test_matches_networkx_modularity(self, g):
        if g.edge_count == 0:
            return
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices())
        nxg.add_edges_from(g.edges())
        partition = [set(c) for c in g.connected_components()]
        theirs = nx.algorithms.community.modularity(nxg, partition)
        assert modularity(g, partition) == pytest.approx(theirs)


class TestNewmanGirvan:
    def test_two_cliques(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5), (2, 3)])
        communities, q = newman_girvan(g)
        assert sorted(sorted(c.vertices) for c in communities) == \
            [[0, 1, 2], [3, 4, 5]]
        assert q > 0.3

    def test_karate_two_main_groups(self, karate):
        communities, q = newman_girvan(karate, max_removals=15)
        assert q > 0.2
        factions = karate_factions()
        big = sorted(communities, key=len, reverse=True)[:2]
        for c in big:
            overlaps = [len(c.vertices & members)
                        for members in factions.values()]
            assert max(overlaps) / len(c) >= 0.7

    def test_max_removals_bounds_work(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        communities, _ = newman_girvan(g, max_removals=1)
        covered = sorted(v for c in communities for v in c)
        assert covered == [0, 1, 2, 3]

    def test_target_clusters_stops_early(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5), (2, 3)])
        communities, _ = newman_girvan(g, target_clusters=2)
        assert len(communities) >= 2

    def test_edgeless_graph(self):
        g = build_graph(3, [])
        communities, _ = newman_girvan(g)
        assert len(communities) == 3
