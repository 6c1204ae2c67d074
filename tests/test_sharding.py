"""Tests for sharded graph execution (repro.engine.sharding).

The load-bearing invariants:

* **equivalence** -- for any graph, query, and shard count, the
  sharded fan-out/merge path returns *exactly* the unsharded result
  (property-tested over random attributed graphs for shards in
  {2, 4}, both partitioners);
* **shards=1 is the old engine** -- no shard entries exist, plans
  never fan out, and results are identical to an unsharded explorer;
* **maintenance routing** -- an edge update bumps the owning shard's
  index version only; other shards keep their cached decompositions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kcore import core_decomposition
from repro.engine.backends import shard_candidates_job
from repro.engine.sharding import (
    GraphPartitioner,
    ShardMergeError,
    ShardedIndexManager,
    hash_shard,
    merge_shard_reports,
    parent_graph_name,
    shard_entry_name,
    verify_boundary,
)
from repro.engine.stats import EngineStats
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import CExplorerError

from conftest import build_graph, random_graphs


def _feasible_queries(graph, limit=4):
    """A few (q, k) pairs with a non-trivial answer, plus one
    infeasible pair (the empty-result path must agree too)."""
    core = core_decomposition(graph)
    pairs = []
    for v in graph.vertices():
        if core[v] >= 1 and len(pairs) < limit:
            pairs.append((v, min(core[v], 3)))
    if core:
        top = max(core)
        pairs.append((0, top + 1))      # infeasible: both sides say []
    return pairs


def _sharded_explorers(graph, configs):
    explorers = []
    for shards, method, workers in configs:
        ex = CExplorer(workers=workers)
        ex.add_graph("g", graph, shards=shards, partitioner=method)
        explorers.append(ex)
    return explorers


# ----------------------------------------------------------------------
# partitioner
# ----------------------------------------------------------------------
class TestGraphPartitioner:
    def test_hash_is_deterministic_and_total(self, karate):
        a = GraphPartitioner(4, "hash").partition(karate)
        b = GraphPartitioner(4, "hash").partition(karate)
        assert a.assignment == b.assignment
        assert len(a.assignment) == karate.vertex_count
        assert set(a.assignment) <= set(range(4))
        assert a.assignment[7] == hash_shard(7, 4)

    def test_greedy_is_balanced_and_cuts_less(self, dblp_small):
        hashed = GraphPartitioner(4, "hash").partition(dblp_small)
        greedy = GraphPartitioner(4, "greedy").partition(dblp_small)
        capacity = -(-dblp_small.vertex_count // 4)
        assert max(greedy.sizes()) <= capacity
        # On a community-structured graph the greedy balancer must
        # beat structure-oblivious hashing on edge cut.
        assert greedy.cut_edges < hashed.cut_edges

    def test_single_shard_owns_everything(self, fig5):
        part = GraphPartitioner(1).partition(fig5)
        assert set(part.assignment) == {0}
        assert part.cut_edges == 0

    def test_stats_shape(self, karate):
        doc = GraphPartitioner(2, "greedy").partition(karate).stats()
        assert set(doc) == {"shards", "method", "sizes", "cut_edges",
                            "balance"}
        assert sum(doc["sizes"]) == karate.vertex_count

    def test_late_vertices_get_hash_owner(self, fig5):
        part = GraphPartitioner(2).partition(fig5)
        n = fig5.vertex_count
        assert part.owner(n + 3) == hash_shard(n + 3, 2)
        part.assign(n + 1)
        assert len(part.assignment) == n + 2

    def test_invalid_arguments(self, fig5):
        with pytest.raises(CExplorerError):
            GraphPartitioner(0)
        with pytest.raises(CExplorerError):
            GraphPartitioner(2, "psychic")


# ----------------------------------------------------------------------
# sharded index manager
# ----------------------------------------------------------------------
class TestShardedIndexManager:
    def test_register_creates_shard_entries(self, karate):
        manager = ShardedIndexManager()
        manager.register("k", karate, shards=3)
        assert manager.shards("k") == 3
        names = manager.shard_names("k")
        assert names == [shard_entry_name("k", i) for i in range(3)]
        for entry in names:
            assert manager.version(entry) == 1
            assert parent_graph_name(entry) == "k"
        # Shard subgraph sizes match the partition.
        sizes = manager.partition("k").sizes()
        assert sum(sizes) == karate.vertex_count

    def test_unsharded_register_stays_plain(self, karate):
        manager = ShardedIndexManager()
        manager.register("k", karate)
        assert manager.shards("k") == 1
        assert manager.partition("k") is None
        assert manager.shard_names("k") == []
        assert manager.names() == ["k"]

    def test_reregister_replaces_shards(self, karate, fig5):
        manager = ShardedIndexManager()
        manager.register("g", karate, shards=4)
        manager.register("g", fig5, shards=2)
        assert manager.shards("g") == 2
        assert len(manager.names()) == 3     # g + 2 shard entries
        manager.unregister("g")
        assert manager.names() == []

    def test_shard_names_are_reserved(self, karate):
        manager = ShardedIndexManager()
        with pytest.raises(CExplorerError):
            manager.register(shard_entry_name("g", 0), karate)

    def test_rejected_name_leaves_no_phantom_graph(self, karate):
        explorer = CExplorer()
        with pytest.raises(CExplorerError):
            explorer.add_graph(shard_entry_name("g", 0), karate)
        assert explorer.graph_names() == []

    def test_shard_candidates_certify_soundly(self, karate):
        """Shard-local core >= k certifies global membership; every
        certified vertex must be in the true global k-core, every
        dropped one below degree k, and the three classes partition
        the shard."""
        manager = ShardedIndexManager()
        manager.register("k", karate, shards=2, partitioner="greedy")
        core = core_decomposition(karate)
        part = manager.partition("k")
        for k in (1, 2, 3):
            for shard in range(2):
                payload, _ = manager.shard_payload("k", shard)
                certified, uncertain, dropped = shard_candidates_job(
                    payload.key, payload.job_arg(shipped=False), k)
                assert all(core[v] >= k for v in certified)
                assert all(karate.degree(v) < k for v in dropped)
                assert all(karate.degree(v) == degree >= k
                           for v, degree in uncertain.items())
                assert sorted([*certified, *uncertain, *dropped]) \
                    == part.members(shard)

    def test_shard_stats_surface_partition(self, karate):
        manager = ShardedIndexManager()
        manager.register("k", karate, shards=2)
        doc = manager.shard_stats("k")
        assert doc["shards"] == 2
        assert len(doc["indexes"]) == 2
        assert manager.shard_stats("missing") is None


# ----------------------------------------------------------------------
# maintenance routing
# ----------------------------------------------------------------------
class TestMaintenanceRouting:
    def _versions(self, manager, name, shards):
        return [manager.version(shard_entry_name(name, i))
                for i in range(shards)]

    def test_intra_shard_update_bumps_owner_only(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        maintainer = explorer.maintainer()
        part = explorer.indexes.partition("k")
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v)
            and part.owner(u) == part.owner(v))
        owner = part.owner(u)
        before = self._versions(explorer.indexes, "k", 2)
        maintainer.insert_edge(u, v)
        after = self._versions(explorer.indexes, "k", 2)
        for shard in range(2):
            expected = before[shard] + (1 if shard == owner else 0)
            assert after[shard] == expected
        # The edge reached the owning shard's subgraph: its shard-local
        # core numbers keep lower-bounding the (new) global ones.
        core = core_decomposition(karate)
        payload, _ = explorer.indexes.shard_payload("k", owner)
        certified, _, _ = shard_candidates_job(
            payload.key, payload.job_arg(shipped=False), 2)
        assert all(core[w] >= 2 for w in certified)

    def test_cross_shard_update_bumps_both_owners(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        maintainer = explorer.maintainer()
        part = explorer.indexes.partition("k")
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v)
            and part.owner(u) != part.owner(v))
        before = self._versions(explorer.indexes, "k", 2)
        maintainer.insert_edge(u, v)
        after = self._versions(explorer.indexes, "k", 2)
        assert after == [b + 1 for b in before]

    def test_results_stay_equivalent_under_maintenance(self, karate):
        sharded = CExplorer()
        sharded.add_graph("k", karate.copy(), shards=2)
        plain = CExplorer()
        plain.add_graph("k", karate.copy())
        ms, mp = sharded.maintainer(), plain.maintainer()
        for u, v in ((0, 9), (4, 12), (33, 9)):
            if sharded.indexes.graph("k").has_edge(u, v):
                ms.remove_edge(u, v)
                mp.remove_edge(u, v)
            else:
                ms.insert_edge(u, v)
                mp.insert_edge(u, v)
            for q in (0, 33):
                for k in (2, 3):
                    assert sharded.search("global", q, k=k) == \
                        plain.search("global", q, k=k)
                    assert sharded.search("acq", q, k=k) == \
                        plain.search("acq", q, k=k)

    def test_reattach_maintainer_routes_once(self, karate):
        """Re-attaching (implicitly or with the same maintainer) must
        not stack listeners: one update = one version bump."""
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        maintainer = explorer.maintainer()
        assert explorer.maintainer() is maintainer
        explorer.indexes.attach_maintainer("k", maintainer)
        part = explorer.indexes.partition("k")
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v)
            and part.owner(u) == part.owner(v))
        name = shard_entry_name("k", part.owner(u))
        parent_before = explorer.indexes.version("k")
        shard_before = explorer.indexes.version(name)
        maintainer.insert_edge(u, v)
        assert explorer.indexes.version("k") == parent_before + 1
        assert explorer.indexes.version(name) == shard_before + 1

    def test_new_vertex_adopted_by_hash_shard(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        maintainer = explorer.maintainer()
        a = maintainer.add_vertex("appendix-a")
        maintainer.insert_edge(a, 0)
        part = explorer.indexes.partition("k")
        assert part.assignment[a] == hash_shard(a, 2)
        # The adopted vertex takes part in sharded queries.
        result = explorer.search("global", a, k=1)
        assert result and a in result[0]

    def test_adoption_invalidates_grown_shards(self, karate):
        """Shards that adopt a new vertex must drop their cached core
        decomposition, or every later query degrades to the serial
        fallback (stale short core list -> IndexError)."""
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=4)
        explorer.search("global", 0, k=2)    # warm per-shard cores
        maintainer = explorer.maintainer()
        a = maintainer.add_vertex("x1")
        b = maintainer.add_vertex("x2")
        maintainer.insert_edge(a, b)
        stats = explorer.engine.stats
        before = stats.snapshot()["sharding"]["k"]["fanouts"]
        fresh = explorer.search("global", 0, k=2, use_cache=False)
        assert set(fresh[0].vertices) == \
            set(explorer.search("global", 0, k=2, use_cache=False)[0]
                .vertices)
        # The fan-out actually ran (no silent serial fallback).
        assert stats.snapshot()["sharding"]["k"]["fanouts"] > before

    def test_failed_reregistration_keeps_old_graph(self, karate, fig5):
        """A rejected sharded re-registration must not leave the index
        manager holding a graph the explorer rolled back."""
        explorer = CExplorer()
        explorer.add_graph("g", karate)
        baseline = explorer.search("global", 0, k=2, use_cache=False)
        with pytest.raises(CExplorerError):
            explorer.add_graph("g", fig5, shards=2, partitioner="bogus")
        assert explorer.indexes.graph("g") is karate
        assert explorer.search("global", 0, k=2, use_cache=False) \
            == baseline


# ----------------------------------------------------------------------
# merge primitives
# ----------------------------------------------------------------------
class TestMergePrimitives:
    def test_merge_handles_unreported_vertices(self):
        graph = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        # No shard reported anything: every vertex is "extra".
        component = merge_shard_reports(graph, [], 0, 2,
                                        extra_vertices=range(4))
        assert component == {0, 1, 2}

    def test_verify_boundary_raises_on_bad_merge(self):
        graph = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        part = GraphPartitioner(2).partition(graph)
        with pytest.raises(ShardMergeError):
            # Vertex 3 has internal degree 1 < k=2: a correct merge
            # could never include it.
            verify_boundary(graph, part, {0, 1, 2, 3}, 2)

    def test_fanout_stats_record_skew(self):
        stats = EngineStats()
        stats.observe_fanout("g", [0.01, 0.03])
        doc = stats.snapshot()["sharding"]["g"]
        assert doc["fanouts"] == 1
        assert doc["shards"] == 2
        assert doc["last_skew"] == pytest.approx(1.5)
        stats.observe_fanout("g", [0.02, 0.02])
        doc = stats.snapshot()["sharding"]["g"]
        assert doc["fanouts"] == 2
        assert doc["max_skew"] == pytest.approx(1.5)


# ----------------------------------------------------------------------
# end-to-end equivalence
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    CONFIGS = ((2, "hash", 1), (4, "greedy", 2))

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(max_n=16, max_m=48, keywords=list("abc")),
           st.integers(0, 3))
    def test_sharded_equals_unsharded(self, graph, k):
        plain = CExplorer()
        plain.add_graph("g", graph)
        sharded = _sharded_explorers(graph, self.CONFIGS)
        for q, kk in _feasible_queries(graph) + [(0, k)]:
            for algorithm in ("global", "acq"):
                expected = plain.search(algorithm, q, k=kk,
                                        use_cache=False)
                for ex in sharded:
                    got = ex.search(algorithm, q, k=kk, use_cache=False)
                    assert got == expected, (algorithm, q, kk)
        for ex in sharded:
            # Every query took the true fan-out path: no merge ever
            # failed re-verification and fell back to serial.
            assert ex.engine.stats.get("shard_fallbacks") == 0

    def test_acq_variants_and_keywords(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        sharded = CExplorer(workers=4)
        sharded.add_graph("g", dblp_small, shards=4,
                          partitioner="greedy")
        jim = dblp_small.id_of("Jim Gray")
        keywords = set(sorted(dblp_small.keywords(jim))[:2])
        for algorithm in ("acq", "acq-inc-s", "acq-inc-t"):
            for kw in (None, keywords):
                assert sharded.search(algorithm, jim, k=3, keywords=kw) \
                    == plain.search(algorithm, jim, k=3, keywords=kw)

    def test_multi_vertex_query(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        sharded = CExplorer()
        sharded.add_graph("g", dblp_small, shards=2)
        expected = plain.search("acq", ["jim gray", 17], k=2)
        assert sharded.search("acq", ["jim gray", 17], k=2) == expected

    def test_single_worker_fanout_does_not_deadlock(self, dblp_small):
        """The regression the work-stealing design exists for: the
        pool's only worker coordinates a fan-out and must claim the
        per-shard subjobs itself."""
        explorer = CExplorer(workers=1)
        explorer.add_graph("g", dblp_small, shards=4)
        result = explorer.engine.search_sync("global", "jim gray", k=3,
                                             timeout=30)
        assert result
        snapshot = explorer.engine.snapshot()
        assert "g" in snapshot["sharding"]

    def test_merged_result_cached_under_same_key(self, dblp_small):
        explorer = CExplorer()
        explorer.add_graph("g", dblp_small, shards=2)
        first = explorer.search("acq", "jim gray", k=3)
        future = explorer.engine.search("acq", "jim gray", k=3)
        assert future.done()                 # cache fast path
        assert future.result(0) is first
        assert explorer.cache.entries_by_graph() == {"g": 1}

    def test_shards_one_is_the_old_engine(self, dblp_small):
        explorer = CExplorer()
        explorer.add_graph("g", dblp_small, shards=1)
        assert explorer.shards("g") == 1
        assert explorer.indexes.shard_names("g") == []
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        for algorithm in ("global", "acq", "local"):
            assert explorer.search(algorithm, "jim gray", k=3) == \
                plain.search(algorithm, "jim gray", k=3)
        # And nothing sharded ever ran.
        assert "sharding" not in explorer.engine.stats.snapshot()

    def test_non_shardable_algorithms_run_plain(self, dblp_small):
        explorer = CExplorer()
        explorer.add_graph("g", dblp_small, shards=2)
        assert explorer.search("local", "jim gray", k=3) is not None
        assert "sharding" not in explorer.engine.stats.snapshot()

    def test_truss_family_fans_out(self, dblp_small):
        """Since the truss maintenance subsystem, the triangle family
        shards too: the fan-out actually runs and agrees with the
        serial path."""
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        explorer = CExplorer()
        explorer.add_graph("g", dblp_small, shards=2)
        for algorithm in ("k-truss", "atc"):
            assert explorer.search(algorithm, "jim gray", k=3) == \
                plain.search(algorithm, "jim gray", k=3)
        assert "sharding" in explorer.engine.stats.snapshot()
        assert explorer.engine.stats.get("shard_fallbacks") == 0
