"""The cross-query batching layer: identity, grouping, dedup.

The load-bearing property: batched execution is **byte-identical** to
serial execution -- the admission window, single-flight dedup, QIG
grouping and the shared ``batch_full_query_job`` substrate change
where work runs and how often shared state is rebuilt, never a
result.  Property-tested across both execution backends.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine.batching import (
    QueryBatcher,
    QueryIntersectionGraph,
    signature_family,
)
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import CExplorerError, EngineBusyError

VERTICES = ("jim gray", "michael stonebraker", "michael l. brodie",
            "bruce g. lindsay", "gerhard weikum")


_GRAPH = None


def _graph():
    # One shared immutable graph: generation dominates per-test cost,
    # and nothing in the search path mutates it.
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = generate_dblp_graph(
            DblpConfig(n_authors=300, n_communities=6, seed=7))
    return _GRAPH


def _explorer(backend="thread", **kwargs):
    explorer = CExplorer(backend=backend, **kwargs)
    explorer.add_graph("dblp", _graph())
    return explorer


def _canon(communities):
    return json.dumps([c.to_dict() for c in communities],
                      sort_keys=True)


def _run_batched(explorer, queries, window=0.02):
    batcher = QueryBatcher(explorer, window=window)
    try:
        futures = [batcher.submit(algorithm, vertex, k=k)
                   for algorithm, vertex, k in queries]
        return [_canon(f.result(60.0)) for f in futures]
    finally:
        batcher.close()


class TestBatchedEqualsSerial:
    """The identity property, across substrates."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_mixed_batch_identical(self, backend):
        queries = [("acq", "jim gray", 3),
                   ("acq", "jim gray", 3),          # dedup pair
                   ("acq", "michael stonebraker", 3),
                   ("k-truss", "jim gray", 3),
                   ("global", "gerhard weikum", 4)]
        serial = _explorer(backend=backend)
        expected = [_canon(serial.search(a, v, k=k))
                    for a, v, k in queries]
        batched = _explorer(backend=backend)
        assert _run_batched(batched, queries) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(("acq", "global", "k-truss")),
                  st.sampled_from(VERTICES),
                  st.integers(min_value=3, max_value=5)),
        min_size=1, max_size=8))
    def test_property_identical(self, queries):
        serial = _explorer()
        expected = [_canon(serial.search(a, v, k=k))
                    for a, v, k in queries]
        batched = _explorer()
        assert _run_batched(batched, queries) == expected

    def test_window_zero_still_correct(self):
        queries = [("acq", v, 3) for v in VERTICES]
        serial = _explorer()
        expected = [_canon(serial.search(a, v, k=k))
                    for a, v, k in queries]
        batched = _explorer()
        assert _run_batched(batched, queries, window=0.0) == expected


class _Sig:
    """A stand-in request carrying only a signature."""

    def __init__(self, graph="g", version=1, family="acq", k=4,
                 keywords=None):
        self.signature = (graph, version, family, k,
                          frozenset(keywords) if keywords else None)


class TestQueryIntersectionGraph:
    def test_same_signature_one_group(self):
        groups = QueryIntersectionGraph(
            [_Sig(), _Sig(), _Sig()]).groups()
        assert [len(g) for g in groups] == [3]

    def test_differing_k_splits(self):
        groups = QueryIntersectionGraph(
            [_Sig(k=3), _Sig(k=4), _Sig(k=3)]).groups()
        assert sorted(len(g) for g in groups) == [1, 2]

    def test_version_splits(self):
        groups = QueryIntersectionGraph(
            [_Sig(version=1), _Sig(version=2)]).groups()
        assert len(groups) == 2

    def test_keyword_compatibility(self):
        # Unconstrained matches anything; constrained sides need a
        # non-empty intersection.
        a = _Sig(keywords=None)
        b = _Sig(keywords={"data", "web"})
        c = _Sig(keywords={"web", "query"})
        d = _Sig(keywords={"logic"})
        assert [len(g) for g in
                QueryIntersectionGraph([a, b, c]).groups()] == [3]
        groups = QueryIntersectionGraph([b, d]).groups()
        assert len(groups) == 2

    def test_max_size_caps_groups(self):
        groups = QueryIntersectionGraph(
            [_Sig() for _ in range(5)]).groups(max_size=2)
        assert [len(g) for g in groups] == [2, 2, 1]

    def test_families(self):
        assert signature_family("acq") == "acq"
        assert signature_family("acq-inc-s") == "acq"
        assert signature_family("k-truss") == "truss"
        assert signature_family("atc") == "truss"
        assert signature_family("global") == "global"


class TestBatcherBehaviour:
    def test_duplicate_queries_share_one_execution(self):
        explorer = _explorer()
        batcher = QueryBatcher(explorer, window=0.02)
        try:
            futures = [batcher.submit("acq", "jim gray", k=3)
                       for _ in range(5)]
            results = {_canon(f.result(30.0)) for f in futures}
            assert len(results) == 1
            stats = batcher.stats()
            assert stats["shared_answers"] == 4
            assert stats["batched_queries"] == 5
            # One execution: the cache saw exactly one store for
            # this key.
            assert explorer.cache.stats()["entries"] == 1
        finally:
            batcher.close()

    def test_cache_hit_resolves_without_window(self):
        explorer = _explorer()
        explorer.search("acq", "jim gray", k=3)
        batcher = QueryBatcher(explorer, window=5.0)
        try:
            future = batcher.submit("acq", "jim gray", k=3)
            # A 5s window must not delay a cache hit.
            assert future.done()
            assert future.result(0.1)
        finally:
            batcher.close()

    def test_bad_query_fails_alone(self):
        """One bad vertex in a batch fails only its own future."""
        explorer = _explorer()
        batcher = QueryBatcher(explorer, window=0.02)
        try:
            good = batcher.submit("acq", "jim gray", k=3)
            bad = batcher.submit("acq", "nobody at all", k=3)
            unknown = batcher.submit("nope", "jim gray", k=3)
            assert good.result(30.0)
            with pytest.raises(CExplorerError):
                bad.result(30.0)
            with pytest.raises(CExplorerError):
                unknown.result(30.0)
        finally:
            batcher.close()

    def test_saturated_engine_fails_fast(self):
        """A full queue rejects the group; member futures resolve
        with EngineBusyError instead of hanging."""
        explorer = _explorer(workers=1, max_queue=1)
        release = threading.Event()
        explorer.engine.submit(release.wait, 30.0, op="wedge")
        import time
        deadline = time.perf_counter() + 5.0
        while explorer.engine.snapshot()["in_flight"] < 1 \
                and time.perf_counter() < deadline:
            time.sleep(0.005)
        explorer.engine.submit(lambda: None, op="filler")
        batcher = QueryBatcher(explorer, window=0.01)
        try:
            future = batcher.submit("acq", "jim gray", k=3)
            with pytest.raises(EngineBusyError):
                future.result(5.0)
            assert explorer.engine.stats.get("batch_rejected") >= 1
        finally:
            release.set()
            batcher.close()

    def test_closed_batcher_degrades_to_engine(self):
        explorer = _explorer()
        batcher = QueryBatcher(explorer, window=0.02)
        batcher.close()
        future = batcher.submit("acq", "jim gray", k=3)
        assert future.result(30.0)

    def test_full_query_batch_rides_one_worker_job(self):
        """An all-eligible group ships one full_query_batch job (the
        shared-payload substrate), not one job per query."""
        explorer = _explorer(backend="process")
        explorer.index()
        before = explorer.engine.stats.get("worker_full_query")
        queries = [("k-truss", v, 3) for v in VERTICES[:3]]
        serial = _explorer()
        expected = [_canon(serial.search(a, v, k=k))
                    for a, v, k in queries]
        assert _run_batched(explorer, queries) == expected
        stats = explorer.engine.stats
        assert stats.get("worker_full_query") - before >= 3
        assert stats.get("batch_groups") >= 1
        assert explorer.engine.stats.get("batches") == 1

    def test_stats_document(self):
        explorer = _explorer()
        batcher = QueryBatcher(explorer, window=0.01)
        try:
            futures = [batcher.submit("acq", v, k=3)
                       for v in VERTICES[:3]]
            for f in futures:
                f.result(30.0)
            doc = batcher.stats()
            assert doc["window_seconds"] == 0.01
            assert doc["last_batch_size"] >= 1
            assert doc["max_batch_size"] >= doc["last_batch_size"]
            assert doc["batches"] >= 1
            assert doc["pending"] == 0
        finally:
            batcher.close()

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            QueryBatcher(_explorer(), window=-1)
