"""Tests for whole-graph statistics (the dataset panel)."""

import networkx as nx
import pytest
from hypothesis import given, settings

from repro.analysis.graph_stats import (
    average_clustering,
    core_histogram,
    graph_summary,
    local_clustering,
)

from conftest import build_graph, random_graphs


class TestClustering:
    def test_triangle_is_one(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert local_clustering(g, 0) == 1.0
        assert average_clustering(g) == 1.0

    def test_path_is_zero(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert local_clustering(g, 1) == 0.0
        assert local_clustering(g, 0) == 0.0

    def test_half_closed(self):
        # 0 connected to 1,2,3; only 1-2 closed: C(0) = 1/3.
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert local_clustering(g, 0) == pytest.approx(1 / 3)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=16, max_m=50))
    def test_matches_networkx(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices())
        nxg.add_edges_from(g.edges())
        theirs = nx.average_clustering(nxg) if len(nxg) else 0.0
        assert average_clustering(g) == pytest.approx(theirs)

    def test_sampled_close_to_exact(self, dblp_small):
        exact = average_clustering(dblp_small)
        sampled = average_clustering(dblp_small, sample=200, seed=1)
        assert abs(exact - sampled) < 0.15


class TestCoreHistogram:
    def test_fig5(self, fig5):
        assert core_histogram(fig5) == {0: 1, 1: 4, 2: 1, 3: 4}


class TestGraphSummary:
    def test_fig5_summary(self, fig5):
        summary = graph_summary(fig5)
        assert summary["vertices"] == 10
        assert summary["edges"] == 11
        assert summary["isolated_vertices"] == 1
        assert summary["connected_components"] == 3
        assert summary["largest_component"] == 7
        assert summary["max_core"] == 3
        assert summary["core_histogram"] == {"0": 1, "1": 4, "2": 1,
                                             "3": 4}
        assert summary["keywords"] == 4

    def test_summary_is_json_ready(self, dblp_small):
        import json
        json.dumps(graph_summary(dblp_small))

    def test_empty_graph(self):
        summary = graph_summary(build_graph(0, []))
        assert summary["vertices"] == 0
        assert summary["average_degree"] == 0.0
