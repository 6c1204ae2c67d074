"""Tests for how truss-based answers and the truss map follow updates.

Each graph version decomposes its truss numbers once, on first use, and
no region is tracked for the triangle families (k-truss, ATC):

* **index wiring** -- after an update through the maintenance gateway
  the truss map equals a decomposition of the mutated graph, and every
  update drops the cached k-truss/ATC answers, counted ``evict-all``;
* **cache reasons** -- a triangle-family entry never survives an
  invalidation, whatever its footprint;
* **backend equivalence** -- the truss family returns the same result
  on both execution backends.
"""

from repro.core.ktruss import truss_decomposition
from repro.engine.faults import FaultPlan
from repro.engine.index_manager import IndexManager
from repro.explorer.cexplorer import CExplorer

from conftest import build_graph


def _missing_edge(graph):
    return next((u, v) for u in graph.vertices() for v in graph.vertices()
                if u < v and not graph.has_edge(u, v))


# ----------------------------------------------------------------------
# index wiring
# ----------------------------------------------------------------------
class TestIndexWiring:
    def test_gateway_updates_patch_truss_index(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        gateway = explorer.maintainer()
        before = explorer.indexes.record("k").version
        assert explorer.indexes.truss("k") == truss_decomposition(karate)
        u, v = _missing_edge(karate)
        gateway.insert_edge(u, v)
        assert explorer.indexes.record("k").version == before + 1
        assert explorer.indexes.truss("k") == truss_decomposition(karate)
        gateway.remove_edge(u, v)
        assert explorer.indexes.record("k").version == before + 2
        assert explorer.indexes.truss("k") == truss_decomposition(karate)

    def test_unmaintained_update_still_evicts_truss_entries(self, karate):
        """Any maintenance update drops the triangle-family answers."""
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        explorer.search("k-truss", 0, k=3)
        explorer.search("atc", 0, k=3)
        assert len(explorer.cache) == 2
        explorer.maintainer().insert_edge(*_missing_edge(karate))
        assert len(explorer.cache) == 0
        reasons = explorer.cache.stats()["invalidations_by_reason"]
        assert reasons == {"core-cascade": 0, "evict-all": 2}


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


# ----------------------------------------------------------------------
# cache unit behaviour
# ----------------------------------------------------------------------
def _answers():
    """The answer cache of a manager serving one graph, ``g``."""
    manager = IndexManager(cache_size=8)
    manager.register("g", build_graph(2, [(0, 1)]))
    return manager.cache


class TestCacheReasons:
    def test_missing_truss_region_falls_back_to_evict_all(self):
        cache = _answers()
        cache.put(cache.key("g", "atc", 1, 3, None), "x",
                  vertices={10})
        cache.invalidate("g", affected={99})
        assert len(cache) == 0
        assert cache.stats()["invalidations_by_reason"]["evict-all"] == 1

    def test_empty_footprint_never_survives(self):
        cache = _answers()
        cache.put(cache.key("g", "k-truss", 1, 3, None), [],
                  vertices=set())
        cache.invalidate("g", affected={5})
        assert len(cache) == 0
