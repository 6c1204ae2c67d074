"""Tests for the query execution engine (repro.engine)."""

import asyncio
import concurrent.futures
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acq import acq_search
from repro.core.cltree import build_cltree
from repro.engine.cache import query_key
from repro.engine.index_manager import IndexManager
from repro.engine.plans import plan_search
from repro.engine.stats import EngineStats, LatencyHistogram
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    QueryError,
    QueryTimeoutError,
)
from repro.server.async_app import await_future

from conftest import build_graph, random_graphs


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


def _answers(capacity=256):
    """The answer cache of a manager serving graphs ``g`` and ``h``."""
    manager = IndexManager(cache_size=capacity)
    for name in ("g", "h"):
        manager.register(name, build_graph(2, [(0, 1)]))
    return manager.cache


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = _answers(capacity=2)
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
            IndexManager(cache_size=0)

    def test_invalidate_whole_graph(self):
        cache = _answers()
        cache.put(query_key("g", "acq", 1, 4), "x")
        cache.put(query_key("h", "acq", 1, 4), "y")
        assert cache.invalidate("g") == 1
        assert len(cache) == 1
        assert cache.get(query_key("h", "acq", 1, 4)) == "y"

    def test_selective_invalidation_spares_disjoint_footprints(self):
        cache = _answers()
        touched = query_key("g", "acq", 1, 4)
        spared = query_key("g", "acq", 9, 4)
        cache.put(touched, "a", vertices={1, 2, 3})
        cache.put(spared, "b", vertices={8, 9})
        assert cache.invalidate("g", affected={2, 5}) == 1
        assert cache.get(touched) is None
        assert cache.get(spared) == "b"

    def test_selective_invalidation_drops_unsafe_algorithms(self):
        cache = _answers()
        # No region is tracked for the triangle families, so their
        # entries never survive an update, footprint or not ...
        for algorithm in ("k-truss", "atc"):
            cache.put(query_key("g", algorithm, 9, 4), "t",
                      vertices={8, 9})
        # ... and neither does any entry without a footprint.
        blind = query_key("g", "acq", 7, 4)
        cache.put(blind, "u")
        assert cache.invalidate("g", affected={2, 5}) == 3
        assert len(cache) == 0
        assert cache.stats()["invalidations_by_reason"] == {
            "core-cascade": 1, "evict-all": 2}

    def test_selective_invalidation_drops_empty_footprints(self):
        """A cached 'no community' answer has an empty footprint; it
        must not survive updates (the update may create the answer)."""
        cache = _answers()
        negative = query_key("g", "acq", 5, 4)
        cache.put(negative, [], vertices=set())
        assert cache.invalidate("g", affected={99}) == 1
        assert cache.get(negative) is None
        assert cache.stats()["invalidations_by_reason"] == {
            "core-cascade": 1, "evict-all": 0}

    def test_peek_does_not_count_misses(self):
        cache = _answers()
        assert cache.get(query_key("g", "acq", 1, 4),
                         record_miss=False) is None
        assert cache.stats()["misses"] == 0


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
        assert manager.record("g").version == 1
        # Replacing bumps the version.
        assert manager.register("g", fig5) == 2

    def test_snapshot_cached_until_invalidated(self, fig5):
        manager = IndexManager()
        manager.register("g", fig5)
        snap = manager.snapshot("g")
        assert manager.snapshot("g") is snap
        assert manager.record("g").cltree is not None
        manager.invalidate("g")
        assert manager.record("g").cltree is None
        fresh = manager.snapshot("g")
        assert fresh is not snap
        assert fresh.version == snap.version + 1

    def test_concurrent_first_readers_share_one_build(
            self, dblp_small, monkeypatch):
        """Eight threads ask a cold graph for its snapshot at once: one
        of them builds, the rest wait for it and get the same
        snapshot."""
        from repro.engine import index_manager

        builds = []
        original = index_manager.build_cltree

        def slow_build(graph, core=None):
            builds.append(graph)
            time.sleep(0.05)        # every reader arrives mid-build
            return original(graph, core=core)
        monkeypatch.setattr(index_manager, "build_cltree", slow_build)
        manager = IndexManager()
        manager.register("g", dblp_small)
        barrier = threading.Barrier(8, timeout=10)
        snapshots = [None] * 8

        def reader(i):
            barrier.wait()
            snapshots[i] = manager.snapshot("g")
        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(builds) == 1
        assert manager.stats("g")["builds"] == 1
        assert manager.stats("g")["building"] is False
        assert all(snap is snapshots[0] for snap in snapshots)

    def test_structure_straddling_a_bump_stays_on_its_record(
            self, fig5, monkeypatch):
        """A decomposition that an update overtakes is stored on the
        record it was read from; the new version's first reader
        computes its own."""
        from repro.engine import index_manager

        manager = IndexManager()
        manager.register("g", fig5)
        stale = manager.snapshot("g")
        calls = []
        original = index_manager.truss_decomposition

        def overtaken(graph):
            calls.append(graph)
            if len(calls) == 1:
                manager.invalidate("g")     # lands mid-decomposition
            return original(graph)
        monkeypatch.setattr(index_manager, "truss_decomposition",
                            overtaken)
        first = manager.truss("g")
        assert stale.truss is first and stale.version == 1
        assert manager.truss("g") is not first
        assert len(calls) == 2
        assert manager.snapshot("g").version == 2

    def test_unknown_graph(self):
        manager = IndexManager()
        with pytest.raises(CExplorerError):
            manager.snapshot("ghost")

    def test_bumps_carry_answers_by_region(self, fig5):
        manager = IndexManager()
        cache = manager.cache
        assert manager.register("g", fig5) == 1
        touched = query_key("g", "acq", 1, 4)
        spared = query_key("g", "acq", 9, 4)
        truss = query_key("g", "k-truss", 9, 4)
        cache.put(touched, "a", vertices={1, 2, 3})
        cache.put(spared, "b", vertices={8, 9})
        cache.put(truss, "t", vertices={8, 9})
        superseded = manager.record("g")
        # The bump tests the core families against ``affected``; no
        # region is tracked for the triangle family, so it is dropped.
        assert manager.invalidate("g", affected={1, 2}) == 2
        record = manager.record("g")
        assert record.version == 2
        assert list(record.answers) == [spared]
        assert len(superseded.answers) == 0
        assert cache.stats()["invalidations_by_reason"] == {
            "core-cascade": 1, "evict-all": 1}
        # Re-registering carries nothing.
        assert manager.register("g", fig5) == 3
        assert len(manager.record("g").answers) == 0
        assert cache.stats()["invalidations_by_reason"]["evict-all"] == 2

    def test_truss_map_cached_per_version(self, karate):
        manager = IndexManager()
        manager.register("k", karate)
        first = manager.truss("k")
        assert manager.truss("k") is first       # cached
        manager.invalidate("k")
        assert manager.truss("k") is not first   # rebuilt
        assert manager.truss("k") == first
        assert manager.stats("k")["truss"] == {"built": True}

    def test_maintainer_bumps_version_and_reports_region(
            self, triangle_plus_tail):
        manager = IndexManager()
        manager.register("g", triangle_plus_tail)
        cache = manager.cache
        maintainer = manager.attach_maintainer("g")
        before = manager.record("g").version
        for v in (1, 2, 3):
            cache.put(query_key("g", "acq", v, 1), v, vertices={v})
        maintainer.insert_edge(3, 1)
        assert manager.record("g").version == before + 1
        # Vertex 3 was promoted into the 2-core; the affected region
        # covers the edge, the promotion, and its neighbourhood (0 and
        # 1), so only the answer around vertex 2 is carried.
        assert [cache.get(query_key("g", "acq", v, 1))
                for v in (1, 2, 3)] == [None, 2, None]
        # The next core read reuses the maintainer's patched numbers.
        assert manager.core("g") == maintainer.core_numbers()
        assert manager.core("g")[3] == 2


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
def _pool(**options):
    """A graphless explorer's engine, driven through submit() alone."""
    return CExplorer(**options).engine


class TestQueryEnginePool:
    def test_execute_runs_on_worker(self):
        engine = _pool(workers=1)
        try:
            assert engine.wait(engine.submit(lambda a, b: a + b,
                                             20, 22)) == 42
            assert engine.stats.get("completed") == 1
        finally:
            engine.shutdown()

    def test_queue_rejection_under_load(self):
        engine = _pool(workers=1, max_queue=1)
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
        engine = _pool(workers=1)
        release = threading.Event()
        try:
            engine.submit(lambda: release.wait(10))
            with pytest.raises(QueryTimeoutError,
                               match="did not finish within 0.050s"):
                engine.wait(engine.submit(lambda: "starved",
                                          timeout=0.05), 0.05)
            assert engine.stats.get("timeouts") == 1
        finally:
            release.set()
            engine.shutdown()

    @pytest.mark.parametrize("front", ["sync", "async"])
    def test_timed_out_query_counts_once(self, front):
        # The worker is busy past the job's 0.05 s deadline but frees
        # up inside the caller's 1 s budget: the worker drops the
        # expired job and counts it, and the wait -- the engine's, or
        # the asyncio front-end's poll bridge -- re-raises that error
        # without counting it again.
        engine = _pool(workers=1)
        release = threading.Event()
        started = threading.Event()
        try:
            engine.submit(lambda: (started.set(), release.wait(10)))
            assert started.wait(10)
            late = engine.submit(lambda: "late", timeout=0.05)
            timer = threading.Timer(0.2, release.set)
            timer.start()
            with pytest.raises(QueryTimeoutError,
                               match="waiting in the queue"):
                if front == "sync":
                    engine.wait(late, 1.0)
                else:
                    asyncio.run(await_future(engine, late, 1.0))
            timer.join()
            assert engine.stats.get("timeouts") == 1
        finally:
            release.set()
            engine.shutdown()

    def test_expired_deadline_skips_execution(self):
        engine = _pool(workers=1)
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
        engine = _pool(workers=1)
        release = threading.Event()
        ran = []
        try:
            engine.submit(lambda: release.wait(10))
            queued = engine.submit(lambda: ran.append(1))
            assert queued.cancel()
            release.set()
            with pytest.raises(concurrent.futures.CancelledError):
                queued.result(10)
            assert not ran
        finally:
            release.set()
            engine.shutdown()

    def test_worker_exception_propagates(self):
        engine = _pool(workers=1)

        def boom():
            raise ValueError("kaboom")

        try:
            with pytest.raises(ValueError, match="kaboom"):
                engine.wait(engine.submit(boom))
            assert engine.stats.get("errors") == 1
        finally:
            engine.shutdown()

    def test_job_failing_before_it_runs_keeps_workers(self, dblp_small):
        # A malformed trace raises in the worker before the job's own
        # try block.  Its future must still resolve with the error, and
        # neither worker may die with it.
        explorer = CExplorer(workers=2)
        explorer.add_graph("dblp", dblp_small)
        engine = explorer.engine
        try:
            futures = [engine.submit(lambda: None, trace=7)
                       for _ in range(2)]
            for future in futures:
                with pytest.raises(AttributeError):
                    future.result(5)
            assert engine.stats.get("errors") == 2
            assert all(thread.is_alive() for thread in engine._threads)
            answer = engine.wait(engine.search(
                "acq", dblp_small.label(10), k=4, timeout=5), 5)
            assert answer == explorer.search("acq", dblp_small.label(10),
                                             k=4, use_cache=False)
        finally:
            engine.shutdown()

    def test_resolved_future(self, dblp_small):
        # A cache hit's future is a stdlib Future resolved before it is
        # returned: the engine's wait takes it even with a zero budget.
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        first = explorer.search("acq", "jim gray", k=3)
        engine = explorer.engine
        try:
            future = engine.search("acq", "jim gray", k=3)
            assert isinstance(future, concurrent.futures.Future)
            assert future.trace is None
            assert engine.wait(future, 0) is first
            assert engine.stats.get("timeouts") == 0
        finally:
            engine.shutdown()

    def test_snapshot_shape(self):
        engine = _pool(workers=2)
        try:
            engine.wait(engine.submit(lambda: None, op="search"))
            doc = engine.snapshot()
            assert doc["workers"] == 2
            assert doc["queue_depth"] == 0
            assert doc["counters"]["completed"] == 1
            assert doc["latency"]["search"]["count"] == 1
            assert "memo" not in doc and "cache" not in doc
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

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_n=12, max_m=30, keywords=list("ab")),
           st.lists(st.tuples(st.booleans(), st.integers(0, 11),
                              st.integers(0, 11)), min_size=1,
                    max_size=6))
    def test_carried_answers_match_recompute(self, graph, ops):
        """Property: after any insert/delete sequence through the
        gateway, every ACQ/``global`` answer the current version still
        holds equals a fresh recomputation on the mutated graph."""
        explorer = CExplorer()
        explorer.add_graph("g", graph.copy())
        live = explorer.indexes.graph("g")
        gateway = explorer.maintainer()
        n = live.vertex_count
        queries = [(algorithm, q, k) for algorithm in ("acq", "global")
                   for q in range(min(n, 4)) for k in (2, 3)]
        for algorithm, q, k in queries:
            try:
                explorer.search(algorithm, q, k=k)
            except QueryError:
                pass    # nothing cached
        for insert, a, b in ops:
            u, v = a % n, b % n
            if u == v:
                continue
            if insert and not live.has_edge(u, v):
                gateway.insert_edge(u, v)
            elif not insert and live.has_edge(u, v):
                gateway.remove_edge(u, v)
        for algorithm, q, k in queries:
            key = explorer.cache.key("g", algorithm, q, k, None)
            cached = explorer.cache.get(key, record_miss=False)
            if cached is not None:
                assert cached == explorer.search(
                    algorithm, q, k=k, use_cache=False), (algorithm, q, k)

    def test_added_vertex_is_versioned_and_queryable(self, karate):
        """A vertex added through the maintainer bumps the version like
        an edge update, so no index built without it (core array,
        CL-tree, inverted lists) answers for it: these three calls
        raised ``IndexError`` while ``add_vertex`` notified nobody."""
        import json
        import urllib.request

        from repro.server.app import make_server

        explorer = CExplorer()
        explorer.add_graph("karate", karate)
        explorer.index()
        version = explorer.indexes.record("karate").version
        v = explorer.maintainer().add_vertex("new author",
                                             ["data", "graph"])
        assert explorer.indexes.record("karate").version == version + 1
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
                    value = explorer.engine.wait(explorer.engine.search(
                        "acq", "jim gray", k=3, timeout=30), 30)
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
        assert explorer.engine.cache.stats()["hits"] >= 1


# ----------------------------------------------------------------------
# ACQ's singleton communities on the version record
# ----------------------------------------------------------------------
SINGLETONS = ("acq-singletons", ())


def _members(communities):
    return [(sorted(c.vertices), sorted(c.shared_keywords))
            for c in communities]


@pytest.fixture
def themed_cycle():
    """The ``x``-carrying 6-cycle 0..5 (each vertex's ``x`` community
    at k = 2) on an untagged triangle 6-7-8 joined to it at 0 and 3."""
    edges = [(v, (v + 1) % 6) for v in range(6)]
    edges += [(6, 7), (7, 8), (6, 8), (0, 6), (3, 7)]
    return build_graph(9, edges, {v: "x" for v in range(6)})


class TestAcqSingletons:
    def test_a_bump_drops_the_stored_communities(self, themed_cycle):
        """Removing cycle edge 1-2 breaks ``x``'s community: vertex 3's
        first search after the bump must not read the one vertex 0's
        search stored, and must equal a lookup-free Dec over a fresh
        CL-tree of the mutated graph."""
        explorer = CExplorer()
        explorer.add_graph("g", themed_cycle)
        first = explorer.search("acq", 0, k=2)
        assert _members(first) == [(list(range(6)), ["x"])]
        assert explorer.indexes.record("g").derived[SINGLETONS] == \
            {(2, "x"): [set(range(6))]}
        explorer.maintainer().remove_edge(1, 2)
        live = explorer.indexes.graph("g")
        expected = acq_search(live, 3, 2, index=build_cltree(live))
        assert _members(expected) == [([0, 3, 4, 5, 6, 7, 8], [])]
        assert explorer.search("acq", 3, k=2) == expected

    def test_pass_reset_drops_the_lookup(self, themed_cycle):
        explorer = CExplorer()
        explorer.add_graph("g", themed_cycle)
        explorer.search("acq", 0, k=2)
        assert SINGLETONS in explorer.indexes.record("g").derived
        explorer.engine.memo.invalidate()
        assert SINGLETONS not in explorer.indexes.record("g").derived

    def test_concurrent_members_match_serial_answers(self, dblp_small):
        """Two threads released together search two members of one
        community through one fresh lookup, round after round."""
        serial = CExplorer()
        serial.add_graph("dblp", dblp_small)
        q = dblp_small.id_of("Jim Gray")
        community = serial.search("acq", q, k=3)[0]
        other = min(community.vertices - {q})
        expected = [serial.search("acq", v, k=3) for v in (q, other)]
        assert all(expected)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                explorer = CExplorer()
                explorer.add_graph("dblp", dblp_small)
                explorer.index()
                barrier = threading.Barrier(2, timeout=30)
                got = [None, None]

                def search(i, v):
                    barrier.wait()
                    got[i] = explorer.search("acq", v, k=3)
                threads = [threading.Thread(target=search, args=(i, v))
                           for i, v in enumerate((q, other))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                    assert not t.is_alive()
                assert got == expected
        finally:
            sys.setswitchinterval(switch)


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


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
class TestStats:
    def test_histogram_percentiles(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.record(ms / 1000.0)
        assert hist.count == 100
        doc = hist.snapshot()
        assert 45 <= doc["p50_ms"] <= 55
        assert 90 <= doc["p95_ms"] <= 100
        assert doc["count"] == 100
        assert doc["max_ms"] == 100.0

    def test_empty_histogram(self):
        doc = LatencyHistogram().snapshot()
        assert doc["p50_ms"] == 0.0
        assert doc["count"] == 0

    def test_engine_stats_snapshot(self):
        stats = EngineStats()
        stats.count("submitted", 3)
        stats.observe("search", 0.01, completion=True)
        doc = stats.snapshot()
        assert doc["counters"]["submitted"] == 3
        assert doc["latency"]["search"]["count"] == 1
        assert doc["throughput_per_second"] > 0
