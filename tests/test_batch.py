"""Tests for the batch evaluation harness."""

import pytest

from repro.analysis.batch import (
    batch_evaluate,
    format_batch_table,
    pick_query_vertices,
)
from repro.core.kcore import core_decomposition


class TestPickQueryVertices:
    def test_respects_core_threshold(self, dblp_small):
        core = core_decomposition(dblp_small)
        queries = pick_query_vertices(dblp_small, 3, 10, seed=1)
        assert len(queries) == 10
        assert all(core[q] >= 3 for q in queries)

    def test_deterministic(self, dblp_small):
        a = pick_query_vertices(dblp_small, 3, 10, seed=1)
        b = pick_query_vertices(dblp_small, 3, 10, seed=1)
        assert a == b

    def test_all_when_pool_small(self, fig5):
        queries = pick_query_vertices(fig5, 3, 100)
        assert sorted(fig5.label(q) for q in queries) == \
            ["A", "B", "C", "D"]

    def test_empty_when_infeasible(self, fig5):
        assert pick_query_vertices(fig5, 9, 5) == []


class TestBatchEvaluate:
    def test_report_shape(self, dblp_small):
        results = batch_evaluate(dblp_small, ("global", "acq"), k=3,
                                 n_queries=6, seed=2)
        assert set(results) == {"global", "acq"}
        for row in results.values():
            assert row["queries"] == 6
            assert 0 <= row["answered"] <= 6
            assert row["avg_seconds"] >= 0

    def test_all_queries_answered_for_feasible_pool(self, dblp_small):
        """Exact methods answer every feasible query; Local is a
        budgeted heuristic and may abandon a rare hard instance, but
        not most of them (it answers 25 of 25 here)."""
        from repro.core.cltree import build_cltree
        results = batch_evaluate(
            dblp_small, ("global", "local", "acq"), k=4, n_queries=25,
            seed=17,
            method_params={"acq": {"index": build_cltree(dblp_small)}})
        assert results["global"]["answered"] == 25
        assert results["acq"]["answered"] == 25
        assert results["local"]["answered"] >= 22

    def test_acq_beats_global_on_quality_in_aggregate(self, dblp_small):
        """The ACQ paper's aggregate claim over a query pool."""
        from repro.core.cltree import build_cltree
        index = build_cltree(dblp_small)
        results = batch_evaluate(
            dblp_small, ("global", "acq"), k=3, n_queries=10, seed=3,
            method_params={"acq": {"index": index}})
        assert results["acq"]["avg_cpj"] > results["global"]["avg_cpj"]
        assert results["acq"]["avg_cmf"] > results["global"]["avg_cmf"]

    def test_explicit_queries_used(self, fig5):
        a = fig5.id_of("A")
        results = batch_evaluate(fig5, ("global",), k=2, queries=[a])
        assert results["global"]["queries"] == 1
        assert results["global"]["answered"] == 1

    def test_failing_method_counts_zero(self, fig5):
        results = batch_evaluate(fig5, ("k-truss",), k=1,
                                 queries=[fig5.id_of("A")])
        assert results["k-truss"]["answered"] == 0

    def test_engine_parallelism_matches_serial(self, dblp_small):
        """Fanning the pool out over the engine's workers must not
        change any aggregate (only wall-clock)."""
        from repro.engine.executor import QueryEngine
        engine = QueryEngine(workers=4, max_queue=256)
        try:
            serial = batch_evaluate(dblp_small, ("global",), k=3,
                                    n_queries=8, seed=5)
            parallel = batch_evaluate(dblp_small, ("global",), k=3,
                                      n_queries=8, seed=5,
                                      engine=engine)
        finally:
            engine.shutdown()
        for field in ("queries", "answered", "avg_vertices",
                      "avg_edges", "avg_degree", "avg_cpj", "avg_cmf"):
            assert serial["global"][field] == parallel["global"][field]
        assert parallel["global"]["wall_seconds"] >= 0

    def test_explorer_routing_matches_raw_algorithms(self, dblp_small):
        """Routing queries through an explorer facade -- the
        production path -- must not change any aggregate either."""
        from repro.explorer.cexplorer import CExplorer
        explorer = CExplorer(workers=2)
        explorer.add_graph("dblp", dblp_small)
        raw = batch_evaluate(dblp_small, ("global",), k=3,
                             n_queries=8, seed=5)
        routed = batch_evaluate(dblp_small, ("global",), k=3,
                                n_queries=8, seed=5, explorer=explorer)
        for field in ("queries", "answered", "avg_vertices",
                      "avg_edges", "avg_degree", "avg_cpj", "avg_cmf"):
            assert raw["global"][field] == routed["global"][field]
        # The queries really went through the facade's result cache.
        assert explorer.cache.stats()["misses"] > 0

    def test_explorer_graph_mismatch_rejected(self, dblp_small, fig5):
        from repro.explorer.cexplorer import CExplorer
        from repro.util.errors import CExplorerError
        explorer = CExplorer()
        explorer.add_graph("fig5", fig5)
        with pytest.raises(CExplorerError):
            batch_evaluate(dblp_small, ("global",), explorer=explorer)


class TestFormatBatchTable:
    def test_renders(self, dblp_small):
        results = batch_evaluate(dblp_small, ("global",), k=3,
                                 n_queries=4, seed=1)
        table = format_batch_table(results)
        assert "method" in table.splitlines()[0]
        assert "global" in table
