"""Tests for the query execution engine (repro.engine)."""

import threading
import time

import pytest

from repro.engine.cache import ResultCache, SubproblemMemo, query_key
from repro.engine.executor import EngineFuture, QueryEngine
from repro.engine.index_manager import IndexManager
from repro.engine.plans import plan_search
from repro.engine.stats import EngineStats, LatencyHistogram
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    QueryCancelledError,
    QueryTimeoutError,
)

from conftest import build_graph


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestQueryKey:
    def test_multi_vertex_order_insensitive(self):
        assert query_key("g", "acq", [3, 1], 4) == \
            query_key("g", "acq", [1, 3], 4)

    def test_keyword_order_insensitive(self):
        assert query_key("g", "acq", 1, 4, keywords=["db", "ml"]) == \
            query_key("g", "acq", 1, 4, keywords={"ml", "db"})

    def test_params_normalised(self):
        a = query_key("g", "acq", 1, 4, params={"b": 2, "a": [1, 2]})
        b = query_key("g", "acq", 1, 4, params={"a": [1, 2], "b": 2})
        assert a == b

    def test_distinct_queries_distinct_keys(self):
        assert query_key("g", "acq", 1, 4) != query_key("g", "acq", 1, 5)
        assert query_key("g", "acq", 1, 4) != query_key("h", "acq", 1, 4)


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=2)
        k1, k2, k3 = (query_key("g", "acq", v, 4) for v in (1, 2, 3))
        cache.put(k1, "one")
        cache.put(k2, "two")
        assert cache.get(k1) == "one"       # refreshes k1's recency
        cache.put(k3, "three")              # evicts k2, the LRU entry
        assert cache.get(k2) is None
        assert cache.get(k1) == "one"
        assert cache.get(k3) == "three"
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1
        assert stats["entries"] == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_invalidate_whole_graph(self):
        cache = ResultCache()
        cache.put(query_key("g", "acq", 1, 4), "x")
        cache.put(query_key("h", "acq", 1, 4), "y")
        assert cache.invalidate("g") == 1
        assert len(cache) == 1
        assert cache.get(query_key("h", "acq", 1, 4)) == "y"

    def test_selective_invalidation_spares_disjoint_footprints(self):
        cache = ResultCache()
        touched = query_key("g", "acq", 1, 4)
        spared = query_key("g", "acq", 9, 4)
        cache.put(touched, "a", vertices={1, 2, 3})
        cache.put(spared, "b", vertices={8, 9})
        assert cache.invalidate("g", affected={2, 5}) == 1
        assert cache.get(touched) is None
        assert cache.get(spared) == "b"

    def test_selective_invalidation_drops_unsafe_algorithms(self):
        cache = ResultCache()
        # k-truss support cascades are not tracked by the core
        # maintainer, so its entries never survive an update ...
        truss = query_key("g", "k-truss", 9, 4)
        cache.put(truss, "t", vertices={8, 9})
        # ... and neither does any entry without a footprint.
        blind = query_key("g", "acq", 7, 4)
        cache.put(blind, "u")
        assert cache.invalidate("g", affected={2, 5}) == 2
        assert len(cache) == 0

    def test_selective_invalidation_drops_empty_footprints(self):
        """A cached 'no community' answer has an empty footprint; it
        must not survive updates (the update may create the answer)."""
        cache = ResultCache()
        negative = query_key("g", "acq", 5, 4)
        cache.put(negative, [], vertices=set())
        assert cache.invalidate("g", affected={99}) == 1
        assert cache.get(negative) is None

    def test_peek_does_not_count_misses(self):
        cache = ResultCache()
        assert cache.get(query_key("g", "acq", 1, 4),
                         record_miss=False) is None
        assert cache.stats()["misses"] == 0


class TestSubproblemMemo:
    def test_memoizes_per_version(self):
        memo = SubproblemMemo()
        calls = []

        def compute():
            calls.append(1)
            return "core"

        assert memo.get_or_compute("g", 1, "core", None, compute) == "core"
        assert memo.get_or_compute("g", 1, "core", None, compute) == "core"
        assert len(calls) == 1
        # A version bump is a different key: recompute.
        memo.get_or_compute("g", 2, "core", None, compute)
        assert len(calls) == 2
        assert memo.stats()["hits"] == 1

    def test_invalidate_by_graph(self):
        memo = SubproblemMemo()
        memo.get_or_compute("g", 1, "core", None, lambda: 1)
        memo.get_or_compute("h", 1, "core", None, lambda: 2)
        memo.invalidate("g")
        assert len(memo) == 1


# ----------------------------------------------------------------------
# index lifecycle
# ----------------------------------------------------------------------
@pytest.fixture
def triangle_plus_tail():
    """Triangle 0-1-2 (the 2-core) with vertex 3 hanging off 0."""
    return build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])


class TestIndexManager:
    def test_register_and_version(self, fig5):
        manager = IndexManager()
        assert manager.register("g", fig5) == 1
        assert manager.version("g") == 1
        # Replacing bumps the version.
        assert manager.register("g", fig5) == 2

    def test_snapshot_cached_until_invalidated(self, fig5):
        manager = IndexManager()
        manager.register("g", fig5)
        snap = manager.snapshot("g")
        assert manager.snapshot("g") is snap
        assert manager.built("g")
        manager.invalidate("g")
        assert not manager.built("g")
        fresh = manager.snapshot("g")
        assert fresh is not snap
        assert fresh.version == snap.version + 1

    def test_background_build(self, fig5):
        manager = IndexManager()
        manager.register("g", fig5, build="background")
        manager.wait("g", timeout=10)
        assert manager.built("g")

    def test_eager_build(self, fig5):
        manager = IndexManager()
        manager.register("g", fig5, build="eager")
        assert manager.built("g")

    def test_unknown_build_mode(self, fig5):
        manager = IndexManager()
        with pytest.raises(CExplorerError):
            manager.register("g", fig5, build="psychic")

    def test_unknown_graph(self):
        manager = IndexManager()
        with pytest.raises(CExplorerError):
            manager.snapshot("ghost")

    def test_subscribers_see_bumps(self, fig5):
        manager = IndexManager()
        events = []
        manager.subscribe(lambda *args: events.append(args))
        manager.register("g", fig5)
        manager.invalidate("g", affected={1, 2})
        # Subscribers see (name, version, affected, truss_affected);
        # without a truss maintainer the truss region is unknown.
        assert events[0] == ("g", 1, None, None)
        assert events[1] == ("g", 2, {1, 2}, None)

    def test_maintainer_bumps_version_and_reports_region(
            self, triangle_plus_tail):
        manager = IndexManager()
        manager.register("g", triangle_plus_tail)
        events = []
        manager.subscribe(lambda *args: events.append(args))
        maintainer = manager.attach_maintainer("g")
        before = manager.version("g")
        maintainer.insert_edge(3, 1)
        assert manager.version("g") == before + 1
        name, _, affected, _ = events[-1]
        assert name == "g"
        # Vertex 3 was promoted into the 2-core; the affected region
        # covers the edge, the promotion, and its neighbourhood.
        assert {1, 3} <= affected
        # The next core read reuses the maintainer's patched numbers.
        assert manager.core("g") == maintainer.core_numbers()
        assert manager.core("g")[3] == 2


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
class TestQueryEnginePool:
    def test_execute_runs_on_worker(self):
        engine = QueryEngine(workers=1)
        try:
            assert engine.execute(lambda a, b: a + b, 20, 22) == 42
            assert engine.stats.get("completed") == 1
        finally:
            engine.shutdown()

    def test_queue_rejection_under_load(self):
        engine = QueryEngine(workers=1, max_queue=1)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(10)
            return "done"

        try:
            running = engine.submit(blocker)
            assert started.wait(10)          # worker busy
            queued = engine.submit(lambda: "queued")  # fills the queue
            with pytest.raises(EngineBusyError):
                engine.submit(lambda: "rejected")
            assert engine.stats.get("rejected") == 1
            release.set()
            assert running.result(10) == "done"
            assert queued.result(10) == "queued"
        finally:
            release.set()
            engine.shutdown()

    def test_timeout_while_waiting(self):
        engine = QueryEngine(workers=1)
        release = threading.Event()
        try:
            engine.submit(lambda: release.wait(10))
            with pytest.raises(QueryTimeoutError):
                engine.execute(lambda: "starved", timeout=0.05)
            assert engine.stats.get("timeouts") >= 1
        finally:
            release.set()
            engine.shutdown()

    def test_expired_deadline_skips_execution(self):
        engine = QueryEngine(workers=1)
        release = threading.Event()
        ran = []
        try:
            engine.submit(lambda: release.wait(10))
            stale = engine.submit(lambda: ran.append(1), timeout=0.01)
            time.sleep(0.05)
            release.set()
            with pytest.raises(QueryTimeoutError):
                stale.result(10)
            assert not ran
        finally:
            release.set()
            engine.shutdown()

    def test_cancellation_before_start(self):
        engine = QueryEngine(workers=1)
        release = threading.Event()
        ran = []
        try:
            engine.submit(lambda: release.wait(10))
            queued = engine.submit(lambda: ran.append(1))
            assert queued.cancel()
            release.set()
            with pytest.raises(QueryCancelledError):
                queued.result(10)
            assert not ran
        finally:
            release.set()
            engine.shutdown()

    def test_worker_exception_propagates(self):
        engine = QueryEngine(workers=1)

        def boom():
            raise ValueError("kaboom")

        try:
            with pytest.raises(ValueError, match="kaboom"):
                engine.execute(boom)
            assert engine.stats.get("errors") == 1
        finally:
            engine.shutdown()

    def test_run_batch_preserves_order(self):
        engine = QueryEngine(workers=4)
        try:
            calls = [(lambda i=i: i * i, (), {}) for i in range(20)]
            assert engine.run_batch(calls) == [i * i for i in range(20)]
        finally:
            engine.shutdown()

    def test_resolved_future(self):
        future = EngineFuture.resolved(7)
        assert future.done()
        assert future.result(0) == 7

    def test_configure_after_start_refused(self):
        engine = QueryEngine(workers=1)
        try:
            engine.execute(lambda: None)
            with pytest.raises(RuntimeError):
                engine.configure(workers=8)
        finally:
            engine.shutdown()

    def test_snapshot_shape(self):
        engine = QueryEngine(workers=2)
        try:
            engine.execute(lambda: None, op="search")
            doc = engine.snapshot()
            assert doc["workers"] == 2
            assert doc["queue_depth"] == 0
            assert doc["counters"]["completed"] == 1
            assert doc["latency"]["search"]["count"] == 1
            assert "cache" in doc and "memo" in doc
        finally:
            engine.shutdown()


# ----------------------------------------------------------------------
# end-to-end: explorer + engine + maintenance
# ----------------------------------------------------------------------
class TestExplorerEngineIntegration:
    def test_cache_hit_resolves_without_queueing(self, dblp_small):
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        first = explorer.search("acq", "jim gray", k=3)
        future = explorer.engine.search("acq", "jim gray", k=3)
        assert future.done()                 # fast path, no queue trip
        assert future.result(0) is first

    def test_auto_plan_small_graph_runs_acq(self, dblp_small):
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        communities = explorer.search("auto", "jim gray", k=3)
        assert communities
        assert explorer.graph.id_of("Jim Gray") in communities[0]

    def test_maintenance_invalidates_stale_read(
            self, triangle_plus_tail):
        explorer = CExplorer()
        explorer.add_graph("g", triangle_plus_tail)
        stale = explorer.search("global", 0, k=2)
        assert set(stale[0].vertices) == {0, 1, 2}
        assert explorer.search("global", 0, k=2) is stale  # cached
        # Edge {3, 1} promotes vertex 3 into the 2-core; the cached
        # answer is now wrong and must not be served.
        explorer.maintainer().insert_edge(3, 1)
        fresh = explorer.search("global", 0, k=2)
        assert fresh is not stale
        assert set(fresh[0].vertices) == {0, 1, 2, 3}

    def test_stale_negative_result_invalidated(self, triangle_plus_tail):
        """A cached empty answer is re-evaluated after the update that
        makes the query answerable."""
        explorer = CExplorer()
        explorer.add_graph("g", triangle_plus_tail)
        assert explorer.search("global", 3, k=2) == []   # core(3) == 1
        explorer.maintainer().insert_edge(3, 1)          # 3 joins 2-core
        fresh = explorer.search("global", 3, k=2)
        assert fresh and set(fresh[0].vertices) == {0, 1, 2, 3}

    def test_algorithm_name_case_insensitive(self, dblp_small):
        """'ACQ' and 'acq' are the same algorithm (the registry lowers
        names): one cache entry, one plan, fast path included."""
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        plan = plan_search("ACQ", dblp_small, index_ready=True)
        assert plan.algorithm == "acq"
        assert plan.use_index
        first = explorer.search("ACQ", "jim gray", k=3)
        assert explorer.search("acq", "jim gray", k=3) is first
        future = explorer.engine.search("Acq", "jim gray", k=3)
        assert future.done()
        assert future.result(0) is first

    def test_maintenance_spares_disjoint_cached_results(self, karate):
        explorer = CExplorer()
        explorer.add_graph("karate", karate)
        maintainer = explorer.maintainer()
        explorer.search("global", 0, k=2)
        entries_before = len(explorer.cache)
        assert entries_before >= 1
        # An isolated two-vertex appendix far from the cached result.
        a = maintainer.add_vertex("appendix-a")
        b = maintainer.add_vertex("appendix-b")
        maintainer.insert_edge(a, b)
        assert len(explorer.cache) == entries_before  # spared
        hits_before = explorer.cache.stats()["hits"]
        explorer.search("global", 0, k=2)
        assert explorer.cache.stats()["hits"] == hits_before + 1

    def test_added_vertex_is_versioned_and_queryable(self, karate):
        """A vertex added through the maintainer bumps the version like
        an edge update, so no index built without it (core array,
        CL-tree, inverted lists) answers for it: these three calls
        raised ``IndexError`` while ``add_vertex`` notified nobody."""
        import json
        import urllib.request

        from repro.server.app import make_server

        explorer = CExplorer()
        explorer.add_graph("karate", karate, build="eager")
        explorer.index()
        version = explorer.indexes.version("karate")
        v = explorer.maintainer().add_vertex("new author",
                                             ["data", "graph"])
        assert explorer.indexes.version("karate") == version + 1
        assert len(explorer.indexes.core("karate")) == v + 1
        assert explorer.search("acq", v, k=1) == []
        assert explorer.search("global", v, k=1) == []
        alone, = explorer.search("global", v, k=0)
        assert sorted(alone.vertices) == [v]
        alone, = explorer.search("acq", v, k=0)
        assert sorted(alone.vertices) == [v]
        assert alone.shared_keywords == {"data", "graph"}

        server = make_server(explorer, port=0)
        threading.Thread(target=server.serve_forever, daemon=True,
                         kwargs={"poll_interval": 0.01}).start()
        try:
            for body in ({"vertex": "new author", "k": 1},
                         {"vertex": "new author", "k": 0,
                          "algorithm": "global"}):
                request = urllib.request.Request(
                    "http://127.0.0.1:{}/v1/search".format(
                        server.server_address[1]),
                    data=json.dumps(body).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as resp:
                    assert resp.status == 200
                    assert json.loads(resp.read())["ok"]
        finally:
            server.shutdown()
            server.server_close()

    def test_keyword_candidates_memoized(self, fig5):
        explorer = CExplorer()
        explorer.add_graph("fig5", fig5)
        keyword = sorted(fig5.keywords(0))[0]
        first = explorer.keyword_candidates(0, 1, keyword)
        assert explorer.keyword_candidates(0, 1, keyword) is first
        assert explorer.engine.memo.stats()["hits"] >= 1

    def test_concurrent_hammer_no_lost_or_duplicated_results(
            self, dblp_small):
        explorer = CExplorer(workers=4, max_queue=256)
        explorer.add_graph("dblp", dblp_small)
        expected = explorer.search("acq", "jim gray", k=3)
        results = []
        errors = []
        lock = threading.Lock()

        def hammer():
            for _ in range(25):
                try:
                    value = explorer.engine.search_sync(
                        "acq", "jim gray", k=3, timeout=30)
                except Exception as exc:  # pragma: no cover
                    with lock:
                        errors.append(exc)
                else:
                    with lock:
                        results.append(value)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8 * 25        # nothing lost
        assert all(r == expected for r in results)  # nothing mangled
        snapshot = explorer.engine.snapshot()
        assert snapshot["cache"]["hits"] >= 1


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
class TestPlans:
    def test_auto_prefers_acq_with_keywords(self, dblp_small):
        plan = plan_search("auto", dblp_small, index_ready=False,
                           keywords={"db"})
        assert plan.algorithm == "acq"
        assert plan.use_index

    def test_auto_uses_index_when_ready(self, dblp_small):
        plan = plan_search("auto", dblp_small, index_ready=True)
        assert plan.algorithm == "acq"
        assert plan.use_index

    def test_auto_falls_back_to_local_on_large_unindexed(
            self, dblp_medium):
        plan = plan_search("auto", dblp_medium, index_ready=False)
        assert plan.algorithm == "local"
        assert not plan.use_index

    def test_explicit_acq_keeps_name(self, dblp_small):
        plan = plan_search("acq-inc-t", dblp_small, index_ready=True)
        assert plan.algorithm == "acq-inc-t"
        assert plan.use_index

    def test_non_acq_passthrough(self, dblp_small):
        plan = plan_search("k-truss", dblp_small, index_ready=True)
        assert plan.algorithm == "k-truss"
        assert not plan.use_index

    def test_explain_is_json_friendly(self, dblp_small):
        doc = plan_search("auto", dblp_small).explain()
        assert set(doc) == {"algorithm", "use_index", "reason",
                            "worker_full_query"}
        assert doc["worker_full_query"] is False


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
class TestStats:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.record(ms / 1000.0)
        assert hist.count == 100
        assert 0.045 <= hist.percentile(50) <= 0.055
        assert 0.090 <= hist.percentile(95) <= 0.100
        doc = hist.snapshot()
        assert doc["count"] == 100
        assert doc["max_ms"] == 100.0

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(50) == 0.0
        assert hist.snapshot()["count"] == 0

    def test_engine_stats_snapshot(self):
        stats = EngineStats()
        stats.count("submitted", 3)
        stats.observe("search", 0.01)
        doc = stats.snapshot()
        assert doc["counters"]["submitted"] == 3
        assert doc["latency"]["search"]["count"] == 1
        assert doc["throughput_per_second"] > 0
