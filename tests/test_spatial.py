"""Tests for spatial-aware community search (SAC)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.spatial import (
    disk_community,
    register_spatial_algorithm,
    spatial_community_search,
)
from repro.datasets.spatial import euclidean, generate_spatial_graph
from repro.util.errors import QueryError

from conftest import build_graph


def _grid_case():
    """A tight triangle near q plus a far-away triangle."""
    g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                        (3, 4), (4, 5), (3, 5), (2, 3)])
    coords = {0: (0.1, 0.1), 1: (0.12, 0.1), 2: (0.1, 0.12),
              3: (0.9, 0.9), 4: (0.92, 0.9), 5: (0.9, 0.92)}
    return g, coords


class TestDiskCommunity:
    def test_small_radius_keeps_near_triangle(self):
        g, coords = _grid_case()
        members = disk_community(g, coords, 0, 2, 0.1)
        assert members == {0, 1, 2}

    def test_huge_radius_reaches_far_triangle(self):
        g, coords = _grid_case()
        members = disk_community(g, coords, 0, 2, 2.0)
        assert members == set(range(6))

    def test_infeasible_returns_none(self):
        g, coords = _grid_case()
        assert disk_community(g, coords, 0, 3, 2.0) is None


class TestSpatialSearch:
    def test_minimal_radius_excludes_far_cluster(self):
        g, coords = _grid_case()
        communities, radius = spatial_community_search(g, coords, 0, 2)
        assert communities[0].vertices == {0, 1, 2}
        assert radius < 0.1
        assert communities[0].method == "SAC"

    def test_radius_is_tight(self):
        g, coords = _grid_case()
        communities, radius = spatial_community_search(g, coords, 0, 2)
        far = max(euclidean(coords[v], coords[0])
                  for v in communities[0])
        assert radius == pytest.approx(far)

    def test_infeasible_query(self):
        g, coords = _grid_case()
        assert spatial_community_search(g, coords, 0, 5) == ([], None)

    def test_unknown_vertex(self):
        g, coords = _grid_case()
        with pytest.raises(QueryError):
            spatial_community_search(g, coords, 77, 2)

    def test_negative_k(self):
        g, coords = _grid_case()
        with pytest.raises(QueryError):
            spatial_community_search(g, coords, 0, -1)

    def test_minimality_against_linear_scan(self):
        """Binary search returns the same minimal feasible radius as a
        linear scan over all candidate radii."""
        graph, coords, _ = generate_spatial_graph(n=120, communities=4,
                                                  seed=3)
        q = 0
        k = 2
        communities, radius = spatial_community_search(graph, coords,
                                                       q, k)
        if not communities:
            pytest.skip("generator produced an infeasible q")
        distances = sorted({euclidean(coords[v], coords[q])
                            for v in graph.vertices()})
        feasible = [r for r in distances
                    if disk_community(graph, coords, q, k, r)
                    is not None]
        assert radius == pytest.approx(min(feasible))

    def test_community_is_geographically_local(self):
        """SAC communities stay inside their planted spatial cluster."""
        graph, coords, truth = generate_spatial_graph(
            n=240, communities=6, seed=5)
        q = 0
        communities, radius = spatial_community_search(graph, coords,
                                                       q, 2)
        if not communities:
            pytest.skip("infeasible q for this seed")
        home = next(members for members in truth.values()
                    if q in members)
        overlap = len(communities[0].vertices & home)
        assert overlap / len(communities[0]) > 0.7

    def test_tighter_than_the_structure_only_community(self):
        """SAC's headline shape (ref [3]): at the same degree
        constraint, its covering radius around q is far smaller than
        that of the plain connected k-core community."""
        from repro.algorithms.global_search import global_search
        graph, coords, _ = generate_spatial_graph(n=600, communities=8,
                                                  seed=21)
        q, k = 0, 2
        sac, radius = spatial_community_search(graph, coords, q, k)
        glob = global_search(graph, q, k)
        assert sac and glob
        global_radius = max(euclidean(coords[v], coords[q])
                            for v in glob[0])
        assert radius < 0.5 * global_radius
        assert len(sac[0]) < len(glob[0])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 50), st.integers(1, 3))
    def test_result_invariants(self, q_pick, k):
        graph, coords, _ = generate_spatial_graph(n=80, communities=4,
                                                  seed=9)
        q = q_pick % graph.vertex_count
        communities, radius = spatial_community_search(graph, coords,
                                                       q, k)
        if not communities:
            return
        community = communities[0]
        assert q in community
        assert community.minimum_internal_degree() >= k
        for v in community:
            assert euclidean(coords[v], coords[q]) <= radius + 1e-9


class TestRegistryIntegration:
    def test_register_and_search(self):
        g, coords = _grid_case()
        register_spatial_algorithm(coords, name="sac-test")
        from repro.algorithms.registry import get_cs_algorithm
        try:
            result = get_cs_algorithm("sac-test")(g, 0, 2)
            assert result[0].vertices == {0, 1, 2}
        finally:
            from repro.algorithms import registry
            registry._CS.pop("sac-test", None)


class TestSpatialGenerator:
    def test_shapes(self):
        graph, coords, truth = generate_spatial_graph(n=100,
                                                      communities=5,
                                                      seed=1)
        assert graph.vertex_count == 100
        assert len(coords) == 100
        assert all(0 <= x <= 1 and 0 <= y <= 1
                   for x, y in coords.values())
        covered = sorted(v for m in truth.values() for v in m)
        assert covered == list(graph.vertices())

    def test_deterministic(self):
        a = generate_spatial_graph(n=60, seed=4)[0]
        b = generate_spatial_graph(n=60, seed=4)[0]
        assert sorted(a.edges()) == sorted(b.edges())

    def test_edges_are_mostly_local(self):
        graph, coords, _ = generate_spatial_graph(n=200, communities=5,
                                                  seed=2)
        distances = [euclidean(coords[u], coords[v])
                     for u, v in graph.edges()]
        assert sum(d < 0.3 for d in distances) / len(distances) > 0.8

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_spatial_graph(n=2, communities=5)
