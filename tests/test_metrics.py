"""Tests for CPJ, CMF and the structural quality metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import (
    cmf,
    community_conductance,
    community_density,
    cpj,
    keyword_jaccard,
)
from repro.core.acq import acq_search
from repro.core.community import Community

from conftest import build_graph, random_graphs


def _community(kws, edges=None, query=(0,)):
    n = len(kws)
    g = build_graph(n, edges or [], dict(enumerate(kws)))
    return Community(g, set(range(n)), query_vertices=query)


class TestKeywordJaccard:
    def test_identical_sets(self):
        g = build_graph(2, [], {0: {"a", "b"}, 1: {"a", "b"}})
        assert keyword_jaccard(g, 0, 1) == 1.0

    def test_disjoint_sets(self):
        g = build_graph(2, [], {0: {"a"}, 1: {"b"}})
        assert keyword_jaccard(g, 0, 1) == 0.0

    def test_partial_overlap(self):
        g = build_graph(2, [], {0: {"a", "b"}, 1: {"b", "c"}})
        assert keyword_jaccard(g, 0, 1) == pytest.approx(1 / 3)

    def test_both_empty(self):
        g = build_graph(2, [])
        assert keyword_jaccard(g, 0, 1) == 0.0


class TestCpj:
    def test_hand_computed(self):
        c = _community([{"a", "b"}, {"a", "b"}, {"c"}])
        # pairs: (0,1)=1.0, (0,2)=0.0, (1,2)=0.0 -> 1/3
        assert cpj(c) == pytest.approx(1 / 3)

    def test_single_vertex_is_one(self):
        assert cpj(_community([{"a"}])) == 1.0

    def test_identical_community_scores_one(self):
        c = _community([{"a"}] * 5)
        assert cpj(c) == pytest.approx(1.0)

    def test_sampling_path_close_to_exact(self):
        kws = [{"a", "b"} if i % 2 == 0 else {"b", "c"} for i in range(40)]
        c = _community(kws)
        exact = cpj(c)
        sampled = cpj(c, max_pairs=300, seed=1)
        assert abs(exact - sampled) < 0.1

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=10, max_m=20, keywords=list("abc")))
    def test_bounds(self, g):
        c = Community(g, set(g.vertices()))
        assert 0.0 <= cpj(c) <= 1.0


class TestCmf:
    def test_hand_computed(self):
        # W(q) = {a, b}; members carry a+b, a, nothing -> (1+0.5+0)/3
        c = _community([{"a", "b"}, {"a"}, {"c"}])
        assert cmf(c) == pytest.approx((1.0 + 0.5 + 0.0) / 3)

    def test_requires_query_vertex(self):
        g = build_graph(2, [], {0: {"a"}, 1: {"a"}})
        c = Community(g, {0, 1})
        with pytest.raises(ValueError):
            cmf(c)
        assert cmf(c, query_vertex=0) == 1.0

    def test_empty_query_keywords(self):
        c = _community([set(), {"a"}])
        assert cmf(c) == 0.0

    def test_acq_scores_higher_than_structure_only(self, dblp_small):
        """The ACQ paper's claim behind the Figure 6 bars: keyword-aware
        communities beat structure-only ones on CPJ and CMF."""
        from repro.algorithms.global_search import global_search
        q = dblp_small.id_of("Jim Gray")
        acq = acq_search(dblp_small, q, 3)
        glo = global_search(dblp_small, q, 3)
        assert acq and glo
        assert cpj(acq[0]) > cpj(glo[0])
        assert cmf(acq[0]) > cmf(glo[0])

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=10, max_m=20, keywords=list("abc")))
    def test_bounds(self, g):
        c = Community(g, set(g.vertices()), query_vertices=(0,))
        assert 0.0 <= cmf(c) <= 1.0


class TestStructuralMetrics:
    def test_density_of_clique(self):
        g = build_graph(4, [(i, j) for i in range(4) for j in range(i)])
        assert community_density(Community(g, {0, 1, 2, 3})) == 1.0

    def test_density_single_vertex(self):
        g = build_graph(1, [])
        assert community_density(Community(g, {0})) == 1.0

    def test_conductance_isolated_community(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert community_conductance(Community(g, {0, 1})) == 0.0

    def test_conductance_cut_community(self):
        # 0-1 inside, 1-2 leaving: boundary 1, vol(C) = 3.
        g = build_graph(3, [(0, 1), (1, 2)])
        assert community_conductance(Community(g, {0, 1})) == \
            pytest.approx(1 / 1)  # min(vol) side is {2} with volume 1

    def test_conductance_whole_graph_zero(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert community_conductance(Community(g, {0, 1, 2})) == 0.0

