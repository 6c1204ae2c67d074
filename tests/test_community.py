"""Tests for the Community result type."""

import pytest

from repro.core.community import Community

from conftest import build_graph


@pytest.fixture
def triangle_community():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)],
                    {0: {"x", "y"}, 1: {"x"}, 2: {"x", "y"}, 3: {"z"}})
    return Community(g, {0, 1, 2}, method="test", query_vertices=(0,),
                     k=2, shared_keywords={"x"})


class TestBasics:
    def test_empty_community_rejected(self):
        g = build_graph(1, [])
        with pytest.raises(ValueError):
            Community(g, set())

    def test_len_iter_contains(self, triangle_community):
        c = triangle_community
        assert len(c) == 3
        assert sorted(c) == [0, 1, 2]
        assert 0 in c and 3 not in c

    def test_vertices_frozen(self, triangle_community):
        assert isinstance(triangle_community.vertices, frozenset)

    def test_equality_and_hash(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        a = Community(g, {0, 1}, shared_keywords={"x"})
        b = Community(g, {0, 1}, shared_keywords={"x"}, method="other")
        c = Community(g, {0, 1}, shared_keywords={"y"})
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a community"
        assert len({a, b, c}) == 2


class TestStatistics:
    def test_edge_count_is_induced(self, triangle_community):
        assert triangle_community.edge_count == 3  # (2,3) excluded

    def test_average_degree(self, triangle_community):
        assert triangle_community.average_degree == pytest.approx(2.0)

    def test_minimum_internal_degree(self, triangle_community):
        assert triangle_community.minimum_internal_degree() == 2

    def test_induced_edges(self, triangle_community):
        assert sorted(triangle_community.induced_edges()) == \
            [(0, 1), (0, 2), (1, 2)]


class TestPresentation:
    def test_member_names_sorted(self, triangle_community):
        assert triangle_community.member_names() == ["n0", "n1", "n2"]

    def test_theme_with_limit(self):
        g = build_graph(1, [])
        c = Community(g, {0}, shared_keywords={"c", "a", "b"})
        assert c.theme() == ["a", "b", "c"]
        assert c.theme(limit=2) == ["a", "b"]

    def test_to_dict_shape(self, triangle_community):
        doc = triangle_community.to_dict()
        assert doc["method"] == "test"
        assert doc["k"] == 2
        assert doc["vertex_count"] == 3
        assert doc["edge_count"] == 3
        assert doc["theme"] == ["x"]
        assert doc["query_vertices"] == ["n0"]
        assert doc["vertices"] == ["n0", "n1", "n2"]

    def test_repr(self, triangle_community):
        assert "n=3" in repr(triangle_community)
