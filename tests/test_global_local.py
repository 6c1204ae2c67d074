"""Tests for the Global and Local community-search baselines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.global_search import global_search
from repro.algorithms.local_search import local_search
from repro.core.kcore import connected_k_core, core_decomposition
from repro.util.errors import QueryError

from conftest import random_graphs


class TestGlobal:
    def test_fig5_k2(self, fig5):
        result = global_search(fig5, fig5.id_of("A"), 2)
        assert len(result) == 1
        assert {fig5.label(v) for v in result[0]} == \
            {"A", "B", "C", "D", "E"}
        assert result[0].method == "Global"

    def test_no_community_above_core_number(self, fig5):
        assert global_search(fig5, fig5.id_of("E"), 3) == []

    def test_unknown_vertex(self, fig5):
        with pytest.raises(QueryError):
            global_search(fig5, 999, 2)

    def test_negative_k(self, fig5):
        with pytest.raises(QueryError):
            global_search(fig5, 0, -2)

    def test_k0_gives_connected_component(self, fig5):
        result = global_search(fig5, fig5.id_of("H"), 0)
        assert {fig5.label(v) for v in result[0]} == {"H", "I"}

    @settings(max_examples=50, deadline=None)
    @given(random_graphs(), st.integers(0, 4))
    def test_matches_connected_k_core(self, g, k):
        """Property: Global == the connected k-core of q, everywhere."""
        for q in range(g.vertex_count):
            expected = connected_k_core(g, q, k)
            result = global_search(g, q, k)
            if expected is None:
                assert result == []
            else:
                assert result[0].vertices == frozenset(expected)

    def test_max_min_degree_variant(self, fig5):
        # The parameter-free Global (maximise the minimum degree) is
        # Global at k = core(q).
        q = fig5.id_of("A")
        k_star = core_decomposition(fig5)[q]
        assert k_star == 3
        community, = global_search(fig5, q, k_star)
        assert {fig5.label(v) for v in community} == {"A", "B", "C", "D"}

    @given(random_graphs())
    def test_max_min_degree_is_core_number(self, g):
        core = core_decomposition(g)
        for q in range(min(g.vertex_count, 6)):
            community, = global_search(g, q, core[q])
            assert community.minimum_internal_degree() >= core[q]
            assert global_search(g, q, core[q] + 1) == []


class TestLocal:
    def test_fig5_finds_k2_community(self, fig5):
        result = local_search(fig5, fig5.id_of("A"), 2)
        assert len(result) == 1
        community = result[0]
        assert fig5.id_of("A") in community
        assert community.minimum_internal_degree() >= 2
        assert community.method == "Local"

    def test_degree_too_small_early_exit(self, fig5):
        assert local_search(fig5, fig5.id_of("J"), 1) == []
        assert local_search(fig5, fig5.id_of("G"), 3) == []

    def test_unknown_vertex(self, fig5):
        with pytest.raises(QueryError):
            local_search(fig5, -3, 2)

    def test_negative_k(self, fig5):
        with pytest.raises(QueryError):
            local_search(fig5, 0, -1)

    def test_local_subset_of_global(self, dblp_small):
        """Local's community is contained in Global's k-core component."""
        q = dblp_small.id_of("Jim Gray")
        local = local_search(dblp_small, q, 3)
        global_ = global_search(dblp_small, q, 3)
        if local and global_:
            assert local[0].vertices <= global_[0].vertices
            assert len(local[0]) <= len(global_[0])

    def test_budget_limits_expansion(self, dblp_small):
        q = dblp_small.id_of("Jim Gray")
        result = local_search(dblp_small, q, 3, budget=30)
        if result:
            assert len(result[0]) <= 30

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(), st.integers(0, 3))
    def test_result_satisfies_constraints(self, g, k):
        """Property: any Local community contains q, is connected, and
        has min internal degree >= k."""
        for q in range(min(g.vertex_count, 5)):
            result = local_search(g, q, k)
            if not result:
                continue
            community = result[0]
            assert q in community
            assert community.minimum_internal_degree() >= k
            members = community.vertices
            seen = {q}
            stack = [q]
            while stack:
                u = stack.pop()
                for w in g.neighbors(u):
                    if w in members and w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == set(members)
