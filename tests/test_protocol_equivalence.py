"""The graph read protocol and its load-bearing equivalences.

The whole-query worker pipeline stands on one invariant: **a
registered algorithm accepts a FrozenGraph and returns results
byte-identical to the AttributedGraph path**.  This suite proves it
for every CS/CD algorithm -- property-tested over random graphs and
checked on the DBLP/LFR workloads -- and then proves the execution
layers built on top of it:

* whole-query worker execution (process backend) equal to inline
  execution for the ACQ family, the only searches the pool runs; every
  other search and every detection stays off the pool, with equal
  answers;
* the payload cache behind the pipeline.
"""

import pytest
from hypothesis import given, settings

from repro.algorithms.registry import (
    get_cd_algorithm,
    get_cs_algorithm,
    list_cd_algorithms,
    list_cs_algorithms,
)
from repro.core.community import Community
from repro.core.kcore import core_decomposition
from repro.datasets import generate_planted_partition
from repro.engine.faults import FaultPlan
from repro.engine.plans import ACQ_FAMILY
from repro.explorer.cexplorer import CExplorer
from repro.graph.attributed import AttributedGraph
from repro.graph.frozen import freeze
from repro.graph.protocol import (
    missing_protocol_methods,
    require_read_protocol,
    supports_read_protocol,
    thaw,
)
from repro.util.errors import GraphFormatError

from conftest import random_graphs

# Per-algorithm query parameters: the triangle family needs k >= 2,
# codicil ignores k, everything else is happy with small k.
CS_K = {"k-truss": 3, "atc": 3}
# The CD algorithms compared end to end at DBLP/LFR scale.  Newman-
# Girvan's betweenness loop takes seconds there; its scale check is
# test_newman_girvan_inputs_agree.
CD_AT_SCALE = [name for name in list_cd_algorithms()
               if name != "newman-girvan"]


@pytest.fixture(scope="module")
def lfr():
    graph, _ = generate_planted_partition(n=300, communities=6,
                                          avg_degree=8, seed=5)
    return graph


def _cs_queries(graph, count=3):
    """A few interesting query vertices: highest-core first."""
    core = core_decomposition(graph)
    order = sorted(graph.vertices(), key=lambda v: (-core[v], v))
    return order[:count]


# ----------------------------------------------------------------------
# the protocol itself
# ----------------------------------------------------------------------
class TestProtocol:
    def test_both_representations_conform(self, karate):
        assert supports_read_protocol(karate)
        assert supports_read_protocol(freeze(karate))
        assert missing_protocol_methods(freeze(karate)) == []

    def test_require_names_missing_attributes(self):
        with pytest.raises(GraphFormatError) as err:
            require_read_protocol(object())
        assert "neighbors" in str(err.value)

    def test_thaw_is_canonical_and_mutable(self, karate):
        a = thaw(karate)
        b = thaw(freeze(karate))
        assert sorted(a.edges()) == sorted(b.edges())
        assert [a.label(v) for v in a.vertices()] == \
            [b.label(v) for v in b.vertices()]
        # Identical insertion history => identical iteration order.
        for v in a.vertices():
            assert list(a.neighbors(v)) == list(b.neighbors(v))
        b.add_vertex("fresh")          # a thawed graph is mutable

    def test_frozen_copy_is_mutable(self, karate):
        copy = freeze(karate).copy()
        assert isinstance(copy, AttributedGraph)
        assert sorted(copy.edges()) == sorted(karate.edges())

    def test_frozen_induced_subgraph_matches_mutable(self, karate):
        members = sorted(karate.connected_component(0))[:20]
        mutable_sub, mutable_map = karate.induced_subgraph(members)
        frozen_sub, frozen_map = freeze(karate).induced_subgraph(members)
        assert frozen_map == mutable_map
        assert sorted(frozen_sub.edges()) == sorted(mutable_sub.edges())
        assert [frozen_sub.keywords(v) for v in frozen_sub.vertices()] \
            == [mutable_sub.keywords(v) for v in mutable_sub.vertices()]

    def test_community_wire_roundtrip(self, karate):
        community = Community(karate, {0, 1, 2}, method="X",
                              query_vertices=(0,), k=2,
                              shared_keywords={"a"})
        back = Community.from_wire(karate, community.to_wire())
        assert back == community
        assert back.method == "X" and back.k == 2
        assert back.query_vertices == (0,)


# ----------------------------------------------------------------------
# frozen == mutable, per registered algorithm
# ----------------------------------------------------------------------
class TestFrozenEquivalence:
    @pytest.mark.parametrize("name", list_cs_algorithms())
    def test_cs_on_dblp(self, name, dblp_small):
        algo = get_cs_algorithm(name)
        frozen = freeze(dblp_small)
        k = CS_K.get(name, 2)
        for q in _cs_queries(dblp_small):
            assert algo(frozen, q, k) == algo(dblp_small, q, k), (name, q)

    @pytest.mark.parametrize("name", list_cs_algorithms())
    def test_cs_on_lfr(self, name, lfr):
        algo = get_cs_algorithm(name)
        frozen = freeze(lfr)
        k = CS_K.get(name, 2)
        for q in _cs_queries(lfr, count=2):
            assert algo(frozen, q, k) == algo(lfr, q, k), (name, q)

    @pytest.mark.parametrize("name", CD_AT_SCALE)
    def test_cd_on_dblp(self, name, dblp_small):
        algo = get_cd_algorithm(name)
        assert algo(freeze(dblp_small), seed=7) == \
            algo(dblp_small, seed=7)

    @pytest.mark.parametrize("name", CD_AT_SCALE)
    def test_cd_on_lfr(self, name, lfr):
        algo = get_cd_algorithm(name)
        assert algo(freeze(lfr), seed=11) == algo(lfr, seed=11)

    @pytest.mark.parametrize("workload", ["dblp_small", "lfr"])
    def test_newman_girvan_inputs_agree(self, workload, request):
        """Newman-Girvan reads only its thawed working copy and the
        input's degrees and edge count, so at scale it is enough that
        those agree between a frozen and a mutable input; the
        end-to-end comparison runs in :meth:`test_cd_property`."""
        graph = request.getfixturevalue(workload)
        frozen = freeze(graph)
        assert frozen.edge_count == graph.edge_count
        mutable_copy, frozen_copy = thaw(graph), thaw(frozen)
        for v in graph.vertices():
            assert frozen.degree(v) == graph.degree(v)
            assert list(frozen_copy.neighbors(v)) == \
                list(mutable_copy.neighbors(v)), v

    @settings(max_examples=10, deadline=None)
    @given(random_graphs(max_n=16, max_m=44, keywords=list("abc")))
    def test_cs_property(self, graph):
        frozen = freeze(graph)
        for name in list_cs_algorithms():
            algo = get_cs_algorithm(name)
            k = CS_K.get(name, 1)
            assert algo(frozen, 0, k) == algo(graph, 0, k), name

    @settings(max_examples=10, deadline=None)
    @given(random_graphs(max_n=16, max_m=44, keywords=list("ab")))
    def test_cd_property(self, graph):
        frozen = freeze(graph)
        for name in list_cd_algorithms():
            algo = get_cd_algorithm(name)
            assert algo(frozen) == algo(graph), name


# ----------------------------------------------------------------------
# whole-query worker execution == inline execution
# ----------------------------------------------------------------------
class TestWholeQueryWorkers:
    @pytest.fixture()
    def plain(self, dblp_small):
        explorer = CExplorer()
        explorer.add_graph("g", dblp_small)
        return explorer

    def test_process_backend_runs_whole_queries(self, plain,
                                                dblp_small):
        proc = CExplorer(workers=2, backend="process",
                         faults=FaultPlan())
        proc.add_graph("g", dblp_small)
        try:
            queries = _cs_queries(dblp_small)
            for name in list_cs_algorithms():
                k = CS_K.get(name, 2)
                for q in queries[:2]:
                    assert proc.search(name, q, k=k, use_cache=False) \
                        == plain.search(name, q, k=k, use_cache=False), \
                        (name, q)
            # Only the ACQ family ran in the pool.
            snapshot = proc.engine.snapshot()
            assert snapshot["worker_full_query"] == 2 * len(ACQ_FAMILY)
            assert proc.engine.stats.get("job_inline_fallbacks") == 0
        finally:
            proc.engine.shutdown()

    def test_keywords_survive_worker_execution(self, plain,
                                               dblp_small):
        jim = dblp_small.id_of("Jim Gray")
        keywords = set(sorted(dblp_small.keywords(jim))[:2])
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        try:
            for name in ACQ_FAMILY:
                k = CS_K.get(name, 3)
                assert proc.search(name, jim, k=k, keywords=keywords) \
                    == plain.search(name, jim, k=k, keywords=keywords)
        finally:
            proc.engine.shutdown()

    @settings(max_examples=6, deadline=None)
    @given(random_graphs(max_n=14, max_m=40, keywords=list("ab")))
    def test_worker_pipeline_property(self, graph):
        plain = CExplorer()
        plain.add_graph("g", graph)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", graph)
        try:
            for name in ACQ_FAMILY:
                k = CS_K.get(name, 1)
                assert proc.search(name, 0, k=k, use_cache=False) == \
                    plain.search(name, 0, k=k, use_cache=False), name
        finally:
            proc.engine.shutdown()

    def test_process_global_shares_component_bodies(self, karate):
        """``global`` stays on the live graph under the process
        backend, so two vertices of one component share one body."""
        proc = CExplorer(workers=2, backend="process",
                         faults=FaultPlan())
        proc.add_graph("k", karate)
        try:
            first, = proc.search("global", 0, k=2)
            second, = proc.search("global", 1, k=2)
            assert first.body is second.body
            assert proc.engine.stats.get("worker_full_query") == 0
        finally:
            proc.engine.shutdown()

    def test_process_codicil_partitions_once(self, karate, monkeypatch):
        """``codicil`` stays on the live graph under the process
        backend: distinct query vertices share one partition per
        version instead of each worker miss recomputing it."""
        info = get_cd_algorithm("codicil")
        calls = []
        real = info.func

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(info, "func", counted)
        plain = CExplorer()
        plain.add_graph("k", karate)
        expected = [plain.search("codicil", q, k=2) for q in range(4)]
        calls.clear()
        proc = CExplorer(workers=2, backend="process",
                         faults=FaultPlan())
        proc.add_graph("k", karate)
        try:
            assert [proc.search("codicil", q, k=2)
                    for q in range(4)] == expected
            assert len(calls) == 1
            assert proc.engine.stats.get("worker_full_query") == 0
        finally:
            proc.engine.shutdown()


# ----------------------------------------------------------------------
# detections: the same answer under either backend, off the pool
# ----------------------------------------------------------------------
class TestEngineDetect:
    CD_PARAMS = {"codicil": {"seed": 3},
                 "label-propagation": {"seed": 3}}

    def test_process_detect_equals_inline(self, dblp_small):
        """A detection runs on the calling thread under the process
        backend too: equal answers, and no job reaches the pool."""
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        try:
            for name in ("label-propagation", "codicil"):
                params = self.CD_PARAMS[name]
                assert proc.detect(name, **params) == \
                    plain.detect(name, **params), name
            latency = proc.engine.snapshot()["latency"]
            assert "detect" not in latency
            assert "full_query" not in latency
        finally:
            proc.engine.shutdown()


# ----------------------------------------------------------------------
# the caches behind the pipeline
# ----------------------------------------------------------------------
class TestPayloadAndMemo:
    def test_full_payload_cached_per_version(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        payload, fresh = explorer.indexes.full_payload("k")
        assert fresh
        again, fresh = explorer.indexes.full_payload("k")
        assert not fresh and again is payload
        maintainer = explorer.maintainer()
        u, v = next((u, v) for u in karate.vertices()
                    for v in karate.vertices()
                    if u < v and not karate.has_edge(u, v))
        maintainer.insert_edge(u, v)
        rebuilt, fresh = explorer.indexes.full_payload("k")
        assert fresh and rebuilt.version != payload.version

    def test_thread_backend_stays_on_live_graph_with_stored_payload(
            self, karate):
        # With a frozen payload stored in the index manager's payload
        # cache, the thread backend must not start answering from
        # that copy.
        explorer = CExplorer(workers=2)
        explorer.add_graph("k", karate)
        payload, _ = explorer.indexes.full_payload("k")
        assert explorer.indexes.full_payload("k")[0] is payload
        assert not explorer.engine.full_query_capable()
        plain = CExplorer()
        plain.add_graph("k", karate)
        for q in (0, 1):
            assert explorer.search("global", q, k=2) == \
                plain.search("global", q, k=2)
        # The second vertex's miss is answered from the first one's
        # shared body, which only the live-graph path has.
        trace = explorer.engine.tracer.traces(limit=1)[0]
        assert trace.to_dict()["tags"]["shared_body"] is True
        assert explorer.engine.stats.get("worker_full_query") == 0
