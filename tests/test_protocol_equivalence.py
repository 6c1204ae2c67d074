"""The graph read protocol and its load-bearing equivalences.

The whole-query worker pipeline stands on one invariant: **every
registered CS/CD algorithm accepts a FrozenGraph and returns results
byte-identical to the AttributedGraph path**.  This suite proves it --
per algorithm, property-tested over random graphs and checked on the
DBLP/LFR workloads -- and then proves the execution layers built on
top of it:

* whole-query worker execution (process backend) equal to inline
  execution for every CS algorithm;
* engine detections (whole-graph and per-component) identical between
  inline and worker execution;
* the payload and memo caches behind the pipeline.
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

    def test_keyword_postings(self, dblp_small):
        frozen = freeze(dblp_small)
        postings = frozen.keyword_postings()
        for keyword, vertices in list(postings.items())[:25]:
            assert vertices == {v for v in dblp_small.vertices()
                                if keyword in dblp_small.keywords(v)}
        assert frozen.vertices_with_keyword("no-such-kw") == frozenset()

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

    @pytest.mark.parametrize("name", list_cd_algorithms())
    def test_cd_on_dblp(self, name, dblp_small):
        algo = get_cd_algorithm(name)
        params = {"max_removals": 12} if name == "newman-girvan" \
            else {"seed": 7}
        assert algo(freeze(dblp_small), **params) == \
            algo(dblp_small, **params)

    @pytest.mark.parametrize("name", list_cd_algorithms())
    def test_cd_on_lfr(self, name, lfr):
        algo = get_cd_algorithm(name)
        params = {"max_removals": 8} if name == "newman-girvan" \
            else {"seed": 11}
        assert algo(freeze(lfr), **params) == algo(lfr, **params)

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
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        try:
            queries = _cs_queries(dblp_small)
            for name in list_cs_algorithms():
                k = CS_K.get(name, 2)
                for q in queries[:2]:
                    assert proc.search(name, q, k=k, use_cache=False) \
                        == plain.search(name, q, k=k, use_cache=False), \
                        (name, q)
            snapshot = proc.engine.snapshot()
            assert snapshot["worker_full_query"] > 0
            assert proc.engine.stats.get("full_query_fallbacks") == 0
            assert proc.engine.stats.get("process_fallbacks") == 0
        finally:
            proc.engine.shutdown()

    def test_keywords_survive_worker_execution(self, plain,
                                               dblp_small):
        jim = dblp_small.id_of("Jim Gray")
        keywords = set(sorted(dblp_small.keywords(jim))[:2])
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        try:
            for name in ("acq", "acq-inc-s", "acq-inc-t", "atc"):
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
            for name in ("acq", "global", "k-truss"):
                k = CS_K.get(name, 1)
                assert proc.search(name, 0, k=k, use_cache=False) == \
                    plain.search(name, 0, k=k, use_cache=False), name
        finally:
            proc.engine.shutdown()


# ----------------------------------------------------------------------
# engine detections: inline == worker, whole-graph and per-component
# ----------------------------------------------------------------------
def _disconnected_graph(copies=3):
    from repro.datasets import karate_club_graph

    graph = AttributedGraph()
    base = karate_club_graph()
    for c in range(copies):
        offset = c * base.vertex_count
        for v in base.vertices():
            graph.add_vertex("c{}-{}".format(c, v), base.keywords(v))
        for u, v in base.edges():
            graph.add_edge(u + offset, v + offset)
    return graph


class TestEngineDetect:
    CD_PARAMS = {"newman-girvan": {"max_removals": 10},
                 "codicil": {"seed": 3},
                 "label-propagation": {"seed": 3}}

    def test_process_detect_equals_inline(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        try:
            for name in ("label-propagation", "codicil"):
                params = self.CD_PARAMS[name]
                assert proc.detect(name, **params) == \
                    plain.detect(name, **params), name
            doc = proc.engine.snapshot()["detect_parallelism"]
            assert doc["runs"] == 2 and doc["jobs"] == 2
        finally:
            proc.engine.shutdown()

    @pytest.mark.parametrize("name", list_cd_algorithms())
    def test_per_component_inline_equals_worker(self, name):
        graph = _disconnected_graph()
        inline = CExplorer(workers=2)
        inline.add_graph("g", graph)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", graph)
        try:
            params = self.CD_PARAMS[name]
            a = inline.detect(name, per_component=True, **params)
            b = proc.detect(name, per_component=True, **params)
            assert a == b
            assert proc.engine.snapshot()["detect_parallelism"][
                "last_jobs"] == 3
        finally:
            proc.engine.shutdown()

    def test_per_component_on_connected_graph_is_whole_graph(
            self, karate):
        explorer = CExplorer(workers=2)
        explorer.add_graph("k", karate)
        direct = get_cd_algorithm("label-propagation")(karate, seed=2)
        assert explorer.detect("label-propagation", per_component=True,
                               seed=2) == direct
        assert explorer.engine.snapshot()["detect_parallelism"][
            "last_jobs"] == 1


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
        assert explorer.indexes.full_payload_ready("k")
        maintainer = explorer.maintainer()
        u, v = next((u, v) for u in karate.vertices()
                    for v in karate.vertices()
                    if u < v and not karate.has_edge(u, v))
        maintainer.insert_edge(u, v)
        assert not explorer.indexes.full_payload_ready("k")
        rebuilt, fresh = explorer.indexes.full_payload("k")
        assert fresh and rebuilt.version != payload.version

    def test_thread_backend_uses_payload_once_cached(self, karate):
        explorer = CExplorer(workers=2)
        explorer.add_graph("k", karate)
        assert not explorer.engine.full_query_capable("k")
        explorer.indexes.full_payload("k")
        assert explorer.engine.full_query_capable("k")
        plain = CExplorer()
        plain.add_graph("k", karate)
        assert explorer.search("global", 0, k=2, use_cache=False) == \
            plain.search("global", 0, k=2, use_cache=False)
        assert explorer.engine.stats.get("worker_full_query") == 1

    def test_memo_invalidation_is_version_aware(self):
        from repro.engine.cache import SubproblemMemo
        memo = SubproblemMemo()
        memo.get_or_compute("g", 3, "cltree-keyword", (0,), lambda: "a")
        memo.get_or_compute("g", 4, "global-bodies", 2, lambda: "b")
        memo.get_or_compute("h", 3, "global-bodies", 2, lambda: "c")
        # g moved to version 4: only g's current-version entry
        # survives, and other graphs are untouched.
        memo.invalidate("g", version=4)
        assert memo.get_or_compute("g", 4, "global-bodies", 2,
                                   lambda: "FRESH") == "b"
        assert memo.get_or_compute("g", 3, "cltree-keyword", (0,),
                                   lambda: "FRESH") == "FRESH"
        assert memo.get_or_compute("h", 3, "global-bodies", 2,
                                   lambda: "FRESH") == "c"
        # Unknown versions drop everything for the graph.
        memo.invalidate("g")
        assert len(memo) == 1
