"""Tests for the execution-backend abstraction (repro.engine.backends).

The load-bearing invariants:

* **equivalence** -- the process backend returns results identical to
  the thread backend (and therefore to unsharded execution: the
  sharding suite proves that leg) for every shardable algorithm,
  shards in {2, 4}, keywords or not, property-tested over random
  graphs;
* **payload lifecycle** -- shard snapshots are serialised once per
  (graph, version, shard) and invalidated exactly when maintenance
  bumps the shard version, so process results track mutations;
* **index builds** -- eager/background CL-tree builds route through
  the process pool and install snapshots equivalent to local builds;
* **fallback** -- a thread-backend engine runs the same jobs
  inline, and pool failures degrade to in-process execution instead
  of failing the query.

The dispatch contract both substrates share is
``test_job_pipeline.py``'s.
"""

import pytest
from hypothesis import given, settings

from repro.engine import backends
from repro.engine.backends import (
    BACKENDS,
    ProcessBackend,
    build_index_job,
    shard_candidates_job,
    validate_backend,
)
from repro.core.kcore import core_decomposition
from repro.explorer.cexplorer import CExplorer
from repro.graph.frozen import freeze
from repro.util.errors import EngineError

from conftest import random_graphs


def _equivalent(plain, other, queries, algorithms=("global", "acq")):
    for q, k in queries:
        for algorithm in algorithms:
            expected = plain.search(algorithm, q, k=k, use_cache=False)
            got = other.search(algorithm, q, k=k, use_cache=False)
            assert got == expected, (algorithm, q, k)


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
class TestBackendConfig:
    def test_backend_names(self):
        assert validate_backend("thread") == "thread"
        assert validate_backend("process") == "process"
        with pytest.raises(EngineError):
            validate_backend("greenlet")
        assert set(BACKENDS) == {"thread", "process"}

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(EngineError):
            CExplorer(backend="fibers")

    def test_snapshot_reports_backend(self, dblp_small):
        explorer = CExplorer()
        assert explorer.engine.snapshot()["backend"] == "thread"
        proc = CExplorer(backend="process")
        assert proc.engine.snapshot()["backend"] == "process"
        proc.engine.shutdown()

    def test_configure_switches_backend(self):
        explorer = CExplorer()
        explorer.engine.configure(backend="process")
        assert explorer.engine.backend == "process"
        assert explorer.indexes.build_executor is not None
        explorer.engine.configure(backend="thread")
        assert explorer.engine.backend == "thread"
        assert explorer.indexes.build_executor is None


# ----------------------------------------------------------------------
# job functions (in-process: they are plain picklable functions)
# ----------------------------------------------------------------------
class TestJobFunctions:
    def test_shard_candidates_job_same_on_every_handle(self, karate):
        """One resolver: the in-process payload object, the pickled
        blob and the shared-memory ref all resolve to the same shard
        scan, and its certificates are sound against the whole
        graph's core numbers."""
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2, partitioner="greedy")
        indexes = explorer.indexes
        core = core_decomposition(karate)
        for k in (1, 2, 3):
            for shard in range(2):
                payload, _ = indexes.shard_payload("k", shard)
                in_process = shard_candidates_job(
                    payload.key, payload.job_arg(shipped=False), k)
                certified, uncertain, dropped = in_process
                assert all(core[v] >= k for v in certified)
                assert all(karate.degree(v) < k for v in dropped)
                assert all(karate.degree(v) == degree
                           for v, degree in uncertain.items())
                for handle in (payload.blob, payload.job_arg()):
                    # Each handle must be resolved, not served from
                    # the entry the previous one cached.
                    backends._WORKER_CACHE.pop(payload.key[:3])
                    assert shard_candidates_job(
                        payload.key, handle, k) == in_process
        explorer.engine.shutdown()

    def test_build_index_job_matches_local_build(self, karate):
        from repro.core.cltree import build_cltree
        frozen = freeze(karate)
        core, tree = build_index_job(frozen)
        assert core == core_decomposition(karate)
        oracle = build_cltree(karate)
        for v in karate.vertices():
            for k in range(max(core) + 2):
                assert tree.community_vertices(v, k) == \
                    oracle.community_vertices(v, k)


# ----------------------------------------------------------------------
# payload lifecycle
# ----------------------------------------------------------------------
class TestShardPayloads:
    def test_payload_cached_per_version(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        indexes = explorer.indexes
        payload, fresh = indexes.shard_payload("k", 0)
        assert fresh
        again, fresh = indexes.shard_payload("k", 0)
        assert not fresh
        assert again is payload

    def test_maintenance_invalidates_owner_payload_only(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        indexes = explorer.indexes
        maintainer = explorer.maintainer()
        part = indexes.partition("k")
        for shard in range(2):
            indexes.shard_payload("k", shard)
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v)
            and part.owner(u) == part.owner(v))
        owner = part.owner(u)
        maintainer.insert_edge(u, v)
        _, fresh_owner = indexes.shard_payload("k", owner)
        _, fresh_other = indexes.shard_payload("k", 1 - owner)
        assert fresh_owner            # version bumped: rebuilt
        assert not fresh_other        # untouched shard: cache hit

    def test_unregister_drops_payloads(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate, shards=2)
        explorer.indexes.shard_payload("k", 0)
        explorer.indexes.unregister("k")
        assert explorer.indexes._payloads == {}


# ----------------------------------------------------------------------
# end-to-end equivalence
# ----------------------------------------------------------------------
class TestProcessBackendEquivalence:
    def test_sharded_process_equals_thread(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        jim = dblp_small.id_of("Jim Gray")
        queries = [(jim, 2), (jim, 3), (17, 2), (0, 99)]
        for shards in (2, 4):
            proc = CExplorer(workers=2, backend="process")
            proc.add_graph("g", dblp_small, shards=shards,
                           partitioner="greedy")
            _equivalent(plain, proc, queries)
            # The fan-out really ran in the pool: no fallbacks, and
            # per-shard stats were recorded.
            assert proc.engine.stats.get("process_fallbacks") == 0
            assert proc.engine.stats.get("shard_fallbacks") == 0
            assert "g" in proc.engine.stats.snapshot()["sharding"]
            proc.engine.shutdown()

    def test_keywords_and_variants(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small, shards=4, partitioner="greedy")
        jim = dblp_small.id_of("Jim Gray")
        keywords = set(sorted(dblp_small.keywords(jim))[:2])
        for algorithm in ("acq", "acq-inc-s", "acq-inc-t"):
            for kw in (None, keywords):
                assert proc.search(algorithm, jim, k=3, keywords=kw) \
                    == plain.search(algorithm, jim, k=3, keywords=kw)
        proc.engine.shutdown()

    @settings(max_examples=8, deadline=None)
    @given(random_graphs(max_n=14, max_m=40, keywords=list("ab")))
    def test_process_equals_unsharded_property(self, graph):
        plain = CExplorer()
        plain.add_graph("g", graph)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", graph, shards=2)
        try:
            core = core_decomposition(graph)
            queries = [(v, min(core[v], 2)) for v in
                       list(graph.vertices())[:3]]
            _equivalent(plain, proc, queries)
            assert proc.engine.stats.get("shard_fallbacks") == 0
        finally:
            proc.engine.shutdown()

    def test_results_track_maintenance(self, karate):
        plain = CExplorer()
        plain.add_graph("k", karate.copy())
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate.copy(), shards=2)
        mp_, mt = plain.maintainer(), proc.maintainer()
        for u, v in ((0, 9), (4, 12), (33, 9)):
            if proc.indexes.graph("k").has_edge(u, v):
                mt.remove_edge(u, v)
                mp_.remove_edge(u, v)
            else:
                mt.insert_edge(u, v)
                mp_.insert_edge(u, v)
            _equivalent(plain, proc, [(0, 2), (33, 3)])
        proc.engine.shutdown()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_eager_build_builds_one_cltree(self, karate,
                                                   backend):
        """``build=`` is the parent entry's policy: nothing reads a
        shard entry's CL-tree, so none is ever built."""
        explorer = CExplorer(workers=2, backend=backend)
        try:
            explorer.add_graph("k", karate, build="eager", shards=2)
            indexes = explorer.indexes
            assert indexes.stats("k")["builds"] == 1
            assert explorer.search("acq", 0, k=2)
            for entry in indexes.shard_names("k"):
                assert indexes.stats(entry)["builds"] == 0
                assert not indexes.stats(entry)["building"]
        finally:
            explorer.engine.shutdown()

    def test_process_index_builds(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small, build="eager")
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small, build="eager", shards=2)
        assert proc.indexes.built("g")
        jim = dblp_small.id_of("Jim Gray")
        assert proc.search("acq", jim, k=3) == \
            plain.search("acq", jim, k=3)
        ops = proc.engine.snapshot()["latency"]
        assert "index_build_ipc" in ops
        proc.engine.shutdown()


# ----------------------------------------------------------------------
# fallback paths
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_thread_engine_runs_jobs_inline(self, karate):
        explorer = CExplorer()           # thread backend
        explorer.add_graph("k", karate, shards=2)
        indexes = explorer.indexes
        payload, _ = indexes.shard_payload("k", 0)
        results = explorer.engine.run_jobs(
            [(shard_candidates_job, (payload.key, payload.blob, 2))])
        certified, uncertain, dropped = results[0]
        core = core_decomposition(karate)
        assert certified and all(core[v] >= 2 for v in certified)
        assert sorted([*certified, *uncertain, *dropped]) \
            == indexes.partition("k").members(0)

    def test_broken_pool_falls_back_inline(self, karate):
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate, shards=2)
        # Sabotage the pool: close it so the next fan-out breaks and
        # the engine degrades to inline execution.
        proc.engine._process.close()
        proc.engine._process._pool = None

        class _Exploding:
            def submit(self, *a, **kw):
                raise RuntimeError("boom")

            def shutdown(self, *a, **kw):
                pass

        proc.engine._process._pool = _Exploding()
        result = proc.search("global", 0, k=2, use_cache=False)
        plain = CExplorer()
        plain.add_graph("k", karate)
        assert result == plain.search("global", 0, k=2)
        assert proc.engine.stats.get("process_fallbacks") >= 1
        proc.engine.shutdown()

    def test_broken_build_executor_counts_and_builds_locally(
            self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)

        def exploding_build(graph, core=None):
            raise RuntimeError("boom")

        explorer.indexes.build_executor = exploding_build
        snap = explorer.indexes.snapshot("k")     # local fallback
        assert snap.cltree is not None
        assert explorer.indexes.build_fallbacks == 1
        assert explorer.engine.snapshot()["index_build_fallbacks"] == 1

    def test_shutdown_detaches_process_pool(self, karate):
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate)
        proc.engine.shutdown()
        assert proc.engine._process is None
        assert proc.indexes.build_executor is None
        # A post-shutdown build runs locally instead of resurrecting
        # a pool nothing would ever close.
        assert proc.indexes.snapshot("k").cltree is not None
        assert proc.indexes.build_fallbacks == 0

    def test_pool_recovers_after_break(self, karate):
        backend = ProcessBackend(workers=1)
        try:
            for _ in range(2):
                future = backend.submit_job(core_decomposition,
                                            (freeze(karate),))
                child, spans, result = backend.job_result(future, 30.0)
                assert result == core_decomposition(karate)
                assert child > 0
                backend._break()
        finally:
            backend.close()
