"""Tests for dynamic core maintenance under edge updates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kcore import core_decomposition
from repro.core.maintenance import CoreMaintainer

from conftest import build_graph


class TestInsertions:
    def test_insert_promotes_exactly_one_level(self):
        # Path 0-1-2; closing the triangle lifts all three to core 2.
        g = build_graph(3, [(0, 1), (1, 2)])
        m = CoreMaintainer(g)
        assert m.core_numbers() == [1, 1, 1]
        m.insert_edge(0, 2)
        assert m.core_numbers() == [2, 2, 2]
        assert m.verify()
        assert m.promotions == 3

    def test_insert_into_clique_fringe(self):
        # K4 plus pendant 4-0: pendant stays core 1.
        g = build_graph(5, [(i, j) for i in range(4) for j in range(i)])
        m = CoreMaintainer(g)
        m.insert_edge(0, 4)
        assert m.core_numbers()[4] == 1
        assert m.core_numbers()[0] == 3
        assert m.verify()

    def test_parallel_insert_is_noop(self):
        g = build_graph(2, [(0, 1)])
        m = CoreMaintainer(g)
        assert m.insert_edge(0, 1) is False
        assert m.updates == 0
        assert m.verify()

    def test_add_vertex_then_connect(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        m = CoreMaintainer(g)
        v = m.add_vertex("new")
        assert m.core_numbers()[v] == 0
        m.insert_edge(v, 0)
        assert m.core_numbers()[v] == 1
        assert m.verify()

    def test_insertion_cascade_through_shell(self):
        # Square 0-1-2-3 (all core 2 after diagonal? build a case where
        # the promotion region spans several vertices).
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0),
                            (3, 4), (4, 5), (5, 0)])
        m = CoreMaintainer(g)
        m.insert_edge(1, 4)
        assert m.verify()


class TestRemovals:
    def test_remove_triangle_edge(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        m = CoreMaintainer(g)
        m.remove_edge(0, 2)
        assert m.core_numbers() == [1, 1, 1]
        assert m.verify()
        assert m.demotions == 3

    def test_remove_pendant_edge(self):
        g = build_graph(5, [(i, j) for i in range(4) for j in range(i)]
                        + [(0, 4)])
        m = CoreMaintainer(g)
        m.remove_edge(0, 4)
        assert m.core_numbers()[4] == 0
        assert m.core_numbers()[0] == 3
        assert m.verify()

    def test_remove_bridge_between_cliques(self):
        edges = [(i, j) for i in range(3) for j in range(i)]
        edges += [(i + 3, j + 3) for i in range(3) for j in range(i)]
        edges += [(2, 3)]
        g = build_graph(6, edges)
        m = CoreMaintainer(g)
        m.remove_edge(2, 3)
        assert m.verify()

    def test_remove_missing_edge_raises(self):
        g = build_graph(2, [])
        m = CoreMaintainer(g)
        with pytest.raises(KeyError):
            m.remove_edge(0, 1)


class TestMixedWorkloads:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(4, 14),
           st.lists(st.tuples(st.booleans(), st.integers(0, 13),
                              st.integers(0, 13)), max_size=40))
    def test_matches_recompute_after_every_update(self, n, ops):
        """Property: after every single patch, the maintained core
        numbers equal a from-scratch decomposition."""
        g = build_graph(n, [])
        m = CoreMaintainer(g)
        for insert, a, b in ops:
            u, v = a % n, b % n
            if u == v:
                continue
            if insert:
                if not g.has_edge(u, v):
                    m.insert_edge(u, v)
            else:
                if g.has_edge(u, v):
                    m.remove_edge(u, v)
            assert m.core_numbers() == core_decomposition(g), \
                ("insert" if insert else "remove", u, v)

    def test_long_churn_on_dblp_sample(self, dblp_small):
        """Insert/remove a batch of edges on a realistic graph and stay
        exact throughout."""
        g = dblp_small.copy()
        m = CoreMaintainer(g)
        jim = g.id_of("Jim Gray")
        neighbours = sorted(g.neighbors(jim))[:10]
        removed = []
        for u in neighbours:
            m.remove_edge(jim, u)
            removed.append(u)
        assert m.verify()
        for u in removed:
            m.insert_edge(jim, u)
        assert m.verify()
        assert m.core_numbers() == core_decomposition(dblp_small)

    def test_counters(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        m = CoreMaintainer(g)
        m.insert_edge(0, 2)
        m.remove_edge(0, 2)
        assert m.updates == 2
        assert m.promotions == 3
        assert m.demotions == 3
