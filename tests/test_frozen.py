"""Tests for the CSR snapshot layer (repro.graph.frozen) and the CSR
kernel fast paths in repro.core.kcore / repro.core.cltree.

The load-bearing invariants:

* **representation equivalence** -- a :class:`FrozenGraph` answers the
  whole read API exactly like the mutable graph it snapshots
  (property-tested over random attributed graphs);
* **kernel equivalence** -- every kernel returns byte-identical
  results on a frozen snapshot and on the mutable graph: core numbers
  (the NumPy kernel and the Batagelj-Zaversnik loop alike), peels,
  connected k-cores, CL-tree community structure;
* **pickle round-trip** -- a frozen graph survives pickling (the
  process-backend transport) with all queries intact;
* **immutability** -- mutators raise, so derived structures can trust
  a snapshot for its lifetime.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cltree import build_cltree
from repro.core.kcore import (
    _core_bz,
    connected_k_core,
    core_decomposition,
    peel_to_min_degree,
)
from repro.graph.frozen import FrozenGraph, freeze
from repro.util.errors import GraphFormatError, UnknownVertexError

from conftest import build_graph, random_graphs


# ----------------------------------------------------------------------
# representation equivalence
# ----------------------------------------------------------------------
class TestFrozenGraph:
    def test_read_api_matches_mutable(self, karate):
        frozen = freeze(karate)
        assert frozen.vertex_count == karate.vertex_count
        assert frozen.edge_count == karate.edge_count
        assert len(frozen) == len(karate)
        for v in karate.vertices():
            assert list(frozen.neighbors(v)) == sorted(karate.neighbors(v))
            assert frozen.degree(v) == karate.degree(v)
            assert frozen.keywords(v) == karate.keywords(v)
            assert frozen.label(v) == karate.label(v)
            assert frozen.display_name(v) == karate.display_name(v)
        assert sorted(frozen.edges()) == sorted(karate.edges())
        assert frozen.labels() == karate.labels()
        assert frozen.keyword_vocabulary() == karate.keyword_vocabulary()

    def test_membership_and_lookup(self, fig5):
        frozen = freeze(fig5)
        assert 0 in frozen
        assert fig5.vertex_count not in frozen
        assert "x" not in frozen
        for u, v in fig5.edges():
            assert frozen.has_edge(u, v) and frozen.has_edge(v, u)
        assert not frozen.has_edge(0, 0)
        label = fig5.label(0)
        assert frozen.id_of(label) == 0
        assert frozen.has_label(label)
        with pytest.raises(UnknownVertexError):
            frozen.id_of("nobody")
        with pytest.raises(UnknownVertexError):
            frozen.neighbors(frozen.vertex_count)

    def test_connected_components_match(self, karate):
        frozen = freeze(karate)
        assert frozen.connected_component(0) == \
            karate.connected_component(0)
        ours = sorted(map(sorted, frozen.connected_components()))
        theirs = sorted(map(sorted, karate.connected_components()))
        assert ours == theirs

    def test_freeze_is_idempotent(self, fig5):
        frozen = freeze(fig5)
        assert freeze(frozen) is frozen
        assert FrozenGraph.from_graph(frozen) is frozen

    def test_mutators_raise(self, fig5):
        frozen = freeze(fig5)
        for call in (lambda: frozen.add_vertex("new"),
                     lambda: frozen.add_edge(0, 2),
                     lambda: frozen.remove_edge(0, 1),
                     lambda: frozen.set_keywords(0, {"x"}),
                     lambda: frozen.relabel(0, "y")):
            with pytest.raises(GraphFormatError):
                call()

    def test_pickle_round_trip(self, karate):
        frozen = freeze(karate)
        clone = pickle.loads(pickle.dumps(frozen))
        assert list(clone.indptr) == list(frozen.indptr)
        assert list(clone.indices) == list(frozen.indices)
        assert core_decomposition(clone) == core_decomposition(karate)
        assert clone.labels() == karate.labels()
        for v in karate.vertices():
            assert clone.keywords(v) == karate.keywords(v)

    def test_empty_graph(self):
        frozen = freeze(build_graph(0, []))
        assert frozen.vertex_count == 0
        assert frozen.edge_count == 0
        assert core_decomposition(frozen) == []

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(max_n=20, max_m=60, keywords=list("abc")))
    def test_snapshot_equivalence_property(self, graph):
        frozen = freeze(graph)
        assert frozen.vertex_count == graph.vertex_count
        assert frozen.edge_count == graph.edge_count
        for v in graph.vertices():
            assert list(frozen.neighbors(v)) == sorted(graph.neighbors(v))
            assert frozen.keywords(v) == graph.keywords(v)


# ----------------------------------------------------------------------
# kernel equivalence
# ----------------------------------------------------------------------
class TestCsrKernels:
    @settings(max_examples=50, deadline=None)
    @given(random_graphs(max_n=24, max_m=72))
    def test_core_decomposition_equivalence(self, graph):
        expected = core_decomposition(graph)
        frozen = freeze(graph)
        # The NumPy kernel the frozen graph dispatches to, and the
        # Batagelj-Zaversnik loop over the same snapshot with NumPy
        # bypassed, must agree with the loop over the mutable graph.
        assert core_decomposition(frozen) == expected
        assert _core_bz(frozen) == expected

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=20, max_m=60), st.integers(0, 4))
    def test_connected_k_core_equivalence(self, graph, k):
        frozen = freeze(graph)
        core = core_decomposition(graph)
        for q in range(graph.vertex_count):
            expected = connected_k_core(graph, q, k)
            assert connected_k_core(frozen, q, k) == expected
            # Precomputed-core reuse returns the same answer without
            # re-decomposing.
            assert connected_k_core(graph, q, k, core=core) == expected
            assert connected_k_core(frozen, q, k, core=core) == expected

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=20, max_m=60), st.integers(0, 4))
    def test_peel_equivalence(self, graph, k):
        frozen = freeze(graph)
        candidates = [v for v in graph.vertices() if v % 2 == 0]
        for protect in ((), candidates[:1]):
            expected = peel_to_min_degree(graph, candidates, k,
                                          protect=protect)
            assert peel_to_min_degree(frozen, candidates, k,
                                      protect=protect) == expected

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_n=16, max_m=48, keywords=list("ab")))
    def test_cltree_on_frozen_matches_mutable(self, graph):
        mutable_tree = build_cltree(graph)
        frozen_tree = build_cltree(freeze(graph))
        assert frozen_tree.core == mutable_tree.core
        for v in range(graph.vertex_count):
            k = mutable_tree.core[v]
            assert sorted(frozen_tree.component_root(v, k).vertices) == \
                sorted(mutable_tree.component_root(v, k).vertices)
            top = max(mutable_tree.core) if mutable_tree.core else 0
            for k in range(top + 2):
                assert frozen_tree.community_vertices(v, k) == \
                    mutable_tree.community_vertices(v, k)

    def test_cltree_keyword_index_on_frozen(self, karate):
        frozen = freeze(karate)
        tree = build_cltree(frozen)
        oracle = build_cltree(karate)
        keywords = sorted(karate.keyword_vocabulary())
        assert tree.keyword_vertex_sets(0, 2, keywords) == \
            oracle.keyword_vertex_sets(0, 2, keywords)


# ----------------------------------------------------------------------
# the precomputed-core satellite (the engine's Global path)
# ----------------------------------------------------------------------
class TestPrecomputedCore:
    def test_global_search_with_core(self, karate):
        from repro.algorithms.global_search import global_search
        core = core_decomposition(karate)
        for q in (0, 33):
            for k in (1, 2, 3, 99):
                assert global_search(karate, q, k, core=core) == \
                    global_search(karate, q, k)

    def test_engine_global_reuses_versioned_core(self, karate):
        from repro.explorer.cexplorer import CExplorer
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        baseline = explorer.search("global", 0, k=2, use_cache=False)
        # The versioned decomposition is cached after the first query;
        # later queries reuse it instead of re-decomposing.
        entry_core = explorer.indexes.core("k")
        assert entry_core == core_decomposition(karate)
        assert explorer.indexes.core("k") is entry_core
        assert explorer.search("global", 0, k=2,
                               use_cache=False) == baseline

    def test_engine_global_stays_fresh_under_maintenance(self, karate):
        from repro.explorer.cexplorer import CExplorer
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        explorer.search("global", 0, k=2)
        maintainer = explorer.maintainer()
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v))
        maintainer.insert_edge(u, v)
        got = explorer.search("global", 0, k=2, use_cache=False)
        from repro.algorithms.global_search import global_search
        assert got == global_search(karate, 0, 2)
