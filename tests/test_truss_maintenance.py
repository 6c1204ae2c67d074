"""Tests for the truss maintenance subsystem.

The load-bearing invariants:

* **exactness** -- after every single edge update through a
  :class:`TrussMaintainer`, the maintained supports and truss numbers
  equal a from-scratch recomputation (property-tested over random
  insert/delete sequences);
* **selective invalidation** -- with a truss maintainer attached,
  cached k-truss/ATC results survive updates whose support cascade is
  disjoint from their footprint, and every surviving entry is
  byte-identical to recomputation;
* **backend equivalence** -- the truss family returns the same result
  on both execution backends;
* **observability** -- invalidation reasons and cascade sizes surface
  through ``/v1/metrics``, and the evict-all counter stays at zero
  for maintained updates.
"""

import json
import threading
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.attributed_truss import attributed_truss_search
from repro.algorithms.truss_search import truss_community_search
from repro.core.ktruss import edge_support, truss_decomposition
from repro.core.truss_maintenance import (
    TrussMaintainer,
    truss_affected_vertices,
)
from repro.engine.cache import ResultCache
from repro.engine.faults import FaultPlan
from repro.explorer.cexplorer import CExplorer
from repro.server.app import make_server
from repro.util.errors import QueryError

from conftest import build_graph, random_graphs


def _triangle_graph():
    return build_graph(3, [(0, 1), (1, 2)])


# ----------------------------------------------------------------------
# the maintainer
# ----------------------------------------------------------------------
class TestTrussMaintainer:
    def test_closing_a_triangle_promotes_all_edges(self):
        g = _triangle_graph()
        m = TrussMaintainer(g)
        assert m.truss(0, 1) == 2
        m.add_edge(0, 2)
        assert m.truss(0, 1) == m.truss(1, 2) == m.truss(0, 2) == 3
        assert m.support(0, 1) == 1
        assert m.verify()
        assert m.promotions == 2        # two pre-existing edges rose

    def test_removing_a_triangle_edge_demotes(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        m = TrussMaintainer(g)
        m.remove_edge(0, 2)
        assert m.truss(0, 1) == m.truss(1, 2) == 2
        assert m.verify()
        assert m.demotions == 2

    def test_parallel_insert_is_noop(self):
        g = build_graph(2, [(0, 1)])
        m = TrussMaintainer(g)
        assert m.add_edge(0, 1) is False
        assert m.updates == 0

    def test_remove_missing_edge_raises(self):
        g = build_graph(2, [])
        m = TrussMaintainer(g)
        with pytest.raises(KeyError):
            m.remove_edge(0, 1)

    def test_k4_then_peel(self):
        edges = [(i, j) for i in range(4) for j in range(i)]
        g = build_graph(4, edges)
        m = TrussMaintainer(g)
        assert all(t == 4 for t in m.truss_numbers().values())
        m.remove_edge(0, 1)
        assert m.verify()
        assert max(m.truss_numbers().values()) == 3

    def test_add_vertex_then_connect(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        m = TrussMaintainer(g)
        v = m.add_vertex("new")
        m.add_edge(v, 0)
        m.add_edge(v, 1)
        assert m.truss(v, 0) == 3      # closes a triangle with (0, 1)
        assert m.verify()

    def test_listeners_see_cascade(self):
        g = _triangle_graph()
        m = TrussMaintainer(g)
        events = []
        m.add_listener(events.append)
        m.add_edge(0, 2)
        (event,) = events
        assert event["kind"] == "insert"
        assert event["edge"] == (0, 2)
        assert event["changed"] == {(0, 1), (1, 2)}
        assert {(0, 1), (1, 2), (0, 2)} <= event["support_changed"]
        affected = truss_affected_vertices(g, event)
        assert {0, 1, 2} <= affected
        assert m.last_cascade_size == 2
        assert m.max_cascade_size == 2

    @settings(max_examples=50, deadline=None)
    @given(st.integers(4, 14),
           st.lists(st.tuples(st.booleans(), st.integers(0, 13),
                              st.integers(0, 13)), max_size=40))
    def test_matches_recompute_after_every_update(self, n, ops):
        """Property: after every single patch, the maintained supports
        and truss numbers equal a from-scratch decomposition."""
        g = build_graph(n, [])
        m = TrussMaintainer(g)
        for insert, a, b in ops:
            u, v = a % n, b % n
            if u == v:
                continue
            if insert:
                if not g.has_edge(u, v):
                    m.add_edge(u, v)
            else:
                if g.has_edge(u, v):
                    m.remove_edge(u, v)
            assert m.truss_numbers() == truss_decomposition(g), \
                ("insert" if insert else "remove", u, v)
            assert m.supports() == edge_support(g)

    def test_long_churn_on_dblp_sample(self, dblp_small):
        g = dblp_small.copy()
        m = TrussMaintainer(g)
        jim = g.id_of("Jim Gray")
        neighbours = sorted(g.neighbors(jim))[:8]
        for u in neighbours:
            m.remove_edge(jim, u)
        assert m.verify()
        for u in neighbours:
            m.add_edge(jim, u)
        assert m.verify()
        assert m.truss_numbers() == truss_decomposition(dblp_small)


# ----------------------------------------------------------------------
# index manager wiring
# ----------------------------------------------------------------------
class TestIndexWiring:
    def test_attach_is_idempotent(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        tm = explorer.indexes.attach_truss_maintainer("k")
        assert explorer.indexes.attach_truss_maintainer("k") is tm

    def test_gateway_updates_patch_truss_index(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        gateway = explorer.truss_maintainer()
        before = explorer.indexes.truss_version("k")
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v))
        gateway.insert_edge(u, v)
        assert explorer.indexes.truss_version("k") == before + 1
        assert explorer.indexes.truss("k") == truss_decomposition(karate)
        gateway.remove_edge(u, v)
        assert explorer.indexes.truss("k") == truss_decomposition(karate)

    def test_truss_index_cached_per_version_without_maintainer(
            self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        first = explorer.indexes.truss("k")
        assert explorer.indexes.truss("k") is first       # cached
        explorer.indexes.invalidate("k")
        assert explorer.indexes.truss("k") is not first   # rebuilt

    def test_stats_report_truss_lifecycle(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        doc = explorer.indexes.stats("k")
        assert doc["truss"]["maintained"] is False
        explorer.truss_maintainer()
        gateway = explorer.maintainer()
        gateway.insert_edge(0, 9) if not karate.has_edge(0, 9) else None
        doc = explorer.indexes.stats("k")
        assert doc["truss"]["maintained"] is True
        assert "cascades" in doc["truss"]
        agg = explorer.indexes.truss_stats()
        assert agg["maintained_graphs"] == 1

    def test_unmaintained_update_still_evicts_truss_entries(self, karate):
        """Without a truss maintainer the old conservative behaviour
        is preserved: any maintenance update drops truss entries."""
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        explorer.search("k-truss", 0, k=3)
        assert len(explorer.cache) == 1
        explorer.maintainer().insert_edge(
            *next((u, v) for u in karate.vertices()
                  for v in karate.vertices()
                  if u < v and not karate.has_edge(u, v)))
        assert len(explorer.cache) == 0
        reasons = explorer.cache.stats()["invalidations_by_reason"]
        assert reasons["evict-all"] == 1
        assert reasons["truss-cascade"] == 0


# ----------------------------------------------------------------------
# selective cache invalidation
# ----------------------------------------------------------------------
class TestSelectiveInvalidation:
    def _two_community_graph(self):
        """Two K4 cliques joined by a long path: truss communities at
        k=3 are the cliques, far apart."""
        edges = [(i, j) for i in range(4) for j in range(i)]
        edges += [(i + 10, j + 10) for i in range(4) for j in range(i)]
        edges += [(3, 4), (4, 5), (5, 6), (6, 10)]
        return build_graph(14, edges)

    def test_disjoint_update_keeps_truss_entries(self):
        g = self._two_community_graph()
        explorer = CExplorer()
        explorer.add_graph("g", g)
        gateway = explorer.truss_maintainer()
        far = explorer.search("k-truss", 10, k=3)
        near = explorer.search("k-truss", 0, k=3)
        assert len(explorer.cache) == 2
        # Update inside the first clique's neighbourhood: only the
        # entry whose footprint intersects the cascade is evicted.
        gateway.remove_edge(0, 1)
        assert explorer.cache.get(
            explorer.cache.key("g", "k-truss", 10, 3, None)) == far
        assert explorer.cache.get(
            explorer.cache.key("g", "k-truss", 0, 3, None),
            record_miss=False) is None
        reasons = explorer.cache.stats()["invalidations_by_reason"]
        assert reasons["truss-cascade"] == 1
        assert reasons["evict-all"] == 0
        # The surviving entry is byte-identical to recomputation.
        fresh = CExplorer()
        fresh.add_graph("g", explorer.graph)
        assert far == fresh.search("k-truss", 10, k=3, use_cache=False)
        assert near is not None

    @settings(max_examples=20, deadline=None)
    @given(random_graphs(max_n=12, max_m=30, keywords=list("ab")),
           st.lists(st.tuples(st.booleans(), st.integers(0, 11),
                              st.integers(0, 11)), min_size=1,
                    max_size=6))
    def test_surviving_entries_match_recompute(self, graph, ops):
        """Property: after any insert/delete sequence, every cached
        truss result that survived selective invalidation equals a
        fresh recomputation on the mutated graph."""
        explorer = CExplorer()
        explorer.add_graph("g", graph.copy())
        gateway = explorer.truss_maintainer()
        live = explorer.indexes.graph("g")
        n = live.vertex_count
        queries = [(q, k) for q in range(min(n, 4)) for k in (2, 3)]
        for q, k in queries:
            explorer.search("k-truss", q, k=k)
            try:
                explorer.search("atc", q, k=k, keywords={"a"})
            except QueryError:
                pass    # q does not carry keyword "a": nothing cached
        for insert, a, b in ops:
            u, v = a % n, b % n
            if u == v:
                continue
            if insert and not live.has_edge(u, v):
                gateway.insert_edge(u, v)
            elif not insert and live.has_edge(u, v):
                gateway.remove_edge(u, v)
        for q, k in queries:
            for algorithm, kw in (("k-truss", None), ("atc", {"a"})):
                key = explorer.cache.key("g", algorithm, q, k, kw)
                cached = explorer.cache.get(key, record_miss=False)
                if cached is None:
                    continue
                if algorithm == "k-truss":
                    expected = truss_community_search(live, q, k)
                else:
                    expected = attributed_truss_search(live, q, k,
                                                       keywords={"a"})
                assert cached == expected, (algorithm, q, k)

    def test_maintenance_drip_keeps_warm_hits_evict_all_loses(
            self, dblp_small):
        """Under a drip of edge inserts among the quietest vertices, a
        warm k-truss pool re-queried after every insert keeps strictly
        more cache hits with the truss maintainer attached than
        without it (where every update evicts all truss entries); with
        both maintainers attached no eviction is an evict-all."""
        from repro.analysis.batch import pick_query_vertices
        pool = pick_query_vertices(dblp_small, 4, 6, seed=31)

        def requery_hits(truss_aware):
            explorer = CExplorer(workers=1)
            explorer.add_graph("d", dblp_small.copy())
            gateway = (explorer.truss_maintainer() if truss_aware
                       else explorer.maintainer())
            live = explorer.indexes.graph("d")
            quiet = sorted(live.vertices(),
                           key=lambda v: (live.degree(v), v))[:80]
            drip = [(u, v) for u in quiet for v in quiet
                    if u < v and not live.has_edge(u, v)][:4]
            for q in pool:
                explorer.search("k-truss", q, k=4)
            warm = explorer.cache.stats()["hits"]
            for u, v in drip:
                gateway.insert_edge(u, v)
                for q in pool:
                    explorer.search("k-truss", q, k=4)
            stats = explorer.cache.stats()
            explorer.engine.shutdown()
            return stats["hits"] - warm, stats["invalidations_by_reason"]

        selective, selective_reasons = requery_hits(True)
        evict_all, evict_all_reasons = requery_hits(False)
        assert selective > evict_all == 0
        assert selective_reasons["evict-all"] == 0
        assert selective_reasons["truss-cascade"] > 0
        assert evict_all_reasons["truss-cascade"] == 0
        assert evict_all_reasons["evict-all"] > 0

    def test_core_only_entries_unaffected_by_truss_wiring(self, karate):
        """ACQ/global entries keep their core-cascade selectivity when
        a truss maintainer is attached."""
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        gateway = explorer.truss_maintainer()
        explorer.search("global", 0, k=2)
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v))
        gateway.insert_edge(u, v)
        reasons = explorer.cache.stats()["invalidations_by_reason"]
        assert reasons["evict-all"] == 0


# ----------------------------------------------------------------------
# backend equivalence
# ----------------------------------------------------------------------
class TestTrussBackendEquivalence:
    def test_process_backend_matches_thread(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        proc = CExplorer(workers=2, backend="process",
                         faults=FaultPlan())
        proc.add_graph("g", dblp_small)
        try:
            jim = dblp_small.id_of("Jim Gray")
            for algorithm in ("k-truss", "atc"):
                assert proc.search(algorithm, jim, k=3) == \
                    plain.search(algorithm, jim, k=3)
            assert proc.engine.stats.get("job_inline_fallbacks") == 0
        finally:
            proc.engine.shutdown()

    def test_invalid_k_matches_serial_error(self, karate):
        from repro.util.errors import QueryError
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        for algorithm in ("k-truss", "atc"):
            with pytest.raises(QueryError):
                explorer.search(algorithm, 0, k=1)


# ----------------------------------------------------------------------
# cache unit behaviour
# ----------------------------------------------------------------------
class TestCacheReasons:
    def test_truss_entries_use_truss_region(self):
        cache = ResultCache(8)
        cache.put(cache.key("g", "k-truss", 1, 3, None), "far",
                  vertices={10, 11})
        cache.put(cache.key("g", "acq", 1, 3, None), "core",
                  vertices={10, 11})
        # Core region hits the footprint, truss region does not: the
        # truss entry survives, the acq entry goes.
        evicted = cache.invalidate("g", affected={10},
                                   truss_affected={99})
        assert evicted == 1
        assert cache.get(cache.key("g", "k-truss", 1, 3, None)) == "far"
        reasons = cache.stats()["invalidations_by_reason"]
        assert reasons == {"core-cascade": 1, "truss-cascade": 0,
                           "evict-all": 0}

    def test_missing_truss_region_falls_back_to_evict_all(self):
        cache = ResultCache(8)
        cache.put(cache.key("g", "atc", 1, 3, None), "x",
                  vertices={10})
        cache.invalidate("g", affected={99})
        assert len(cache) == 0
        assert cache.stats()["invalidations_by_reason"]["evict-all"] == 1

    def test_empty_footprint_never_survives(self):
        cache = ResultCache(8)
        cache.put(cache.key("g", "k-truss", 1, 3, None), [],
                  vertices=set())
        cache.invalidate("g", affected={5}, truss_affected={5})
        assert len(cache) == 0


# ----------------------------------------------------------------------
# metrics surface
# ----------------------------------------------------------------------
class TestMetricsSurface:
    def test_api_metrics_reports_truss_counters(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        gateway = explorer.truss_maintainer()
        explorer.search("k-truss", 0, k=3)
        u, v = next(
            (u, v) for u in karate.vertices() for v in karate.vertices()
            if u < v and not karate.has_edge(u, v))
        gateway.insert_edge(u, v)
        srv = make_server(explorer, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            url = "http://127.0.0.1:{}/v1/metrics".format(
                srv.server_address[1])
            with urllib.request.urlopen(url) as resp:
                doc = json.loads(resp.read())["data"]
        finally:
            srv.shutdown()
        assert "truss_invalidations" in doc
        assert doc["truss_cascade_size"]["updates"] == 1
        assert "invalidations_by_reason" in doc["cache"]
        assert doc["cache"]["invalidations_by_reason"]["evict-all"] == 0
        assert doc["engine"]["truss"]["maintained_graphs"] == 1
