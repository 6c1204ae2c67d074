"""Communities as shared, pre-encoded values.

* ``Community.to_json()`` is an encoding cache of ``to_dict()``: the
  two agree byte for byte, on hostile labels too, and ``/v1/search``
  (both front-ends) writes exactly the bytes
  ``json.dumps`` of the rebuilt envelope would;
* every ``global`` query inside one connected k-core component gets
  the same :class:`~repro.core.community.CommunityBody`, and a
  maintenance update retires it;
* the work is done once: a deterministic call-count guard, not a
  timing.
"""

import json
import threading
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.global_search import global_search
from repro.algorithms.registry import get_cs_algorithm
from repro.analysis import statistics
from repro.core.community import Community
from repro.explorer.cexplorer import CExplorer
from repro.graph.attributed import AttributedGraph
from repro.server.app import make_server
from repro.server.async_app import make_async_server
from repro.viz.charts import render_quality_charts

from conftest import build_graph

HOSTILE = 'Zoë "Q" \\ O\'Neil  \x07\t</script>'


# ----------------------------------------------------------------------
# the encoding cache equals its definition
# ----------------------------------------------------------------------

@st.composite
def labelled_communities(draw):
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.one_of(st.none(), st.text(max_size=6)),
                           min_size=n, max_size=n))
    graph = AttributedGraph()
    seen = set()
    for label in labels:
        if label in seen:
            label = None        # labels are unique; None = "v<id>"
        seen.add(label)
        graph.add_vertex(label, draw(st.sets(st.text(max_size=3),
                                             max_size=3)))
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=16)):
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    members = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return Community(
        graph, members,
        method=draw(st.text(max_size=5)),
        query_vertices=draw(st.lists(st.integers(0, n - 1),
                                     max_size=3)),
        k=draw(st.one_of(st.none(), st.integers(0, 5))),
        shared_keywords=draw(st.sets(st.text(max_size=4), max_size=3)))


class TestEncoding:
    @settings(max_examples=150, deadline=None)
    @given(labelled_communities())
    def test_to_json_is_dumps_of_to_dict(self, community):
        assert community.to_json() == json.dumps(community.to_dict())
        # ... and again from the cached text.
        assert community.to_json() == json.dumps(community.to_dict())

    def test_every_builtin_method(self, dblp_small):
        graph = dblp_small
        q = graph.id_of("Jim Gray")
        for name in ("acq", "acq-inc-s", "acq-inc-t", "global", "local",
                     "k-truss", "codicil", "steiner", "atc"):
            for c in get_cs_algorithm(name)(graph, q, 3):
                assert c.to_json() == json.dumps(c.to_dict()), name

    def test_edge_count_is_computed_once(self):
        graph = _CountingGraph.ring(6)
        community = Community(graph, range(6))
        doc = community.to_dict()
        assert doc["edge_count"] == 6 and doc["average_degree"] == 2.0
        assert graph.neighbor_calls == 6
        community.to_dict(), community.to_json(), community.edge_count
        assert graph.neighbor_calls == 6

    def test_wire_form_carries_no_memo(self, dblp_small):
        c = global_search(dblp_small, 0, 3)[0]
        c.to_json()
        wire = c.to_wire()
        assert [type(x) for x in wire] == [tuple, str, tuple, int,
                                           tuple]
        back = Community.from_wire(dblp_small, wire)
        assert back == c and back.body is not c.body
        assert back.to_json() == c.to_json()


# ----------------------------------------------------------------------
# over HTTP: the bytes on the wire
# ----------------------------------------------------------------------

def _served_explorer():
    from repro.datasets import DblpConfig, generate_dblp_graph
    graph = generate_dblp_graph(
        DblpConfig(n_authors=400, n_communities=8, seed=13))
    q = graph.id_of("Jim Gray")
    member = min(global_search(graph, q, 3)[0].vertices - {q})
    graph.relabel(member, HOSTILE)
    explorer = CExplorer()
    explorer.add_graph("dblp", graph)
    return explorer


@pytest.fixture(scope="module", params=["sync", "async"])
def server(request):
    explorer = _served_explorer()
    if request.param == "sync":
        srv = make_server(explorer, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
    else:
        srv = make_async_server(explorer, port=0).start_background()
    yield srv
    srv.shutdown()


def _post_raw(server, path, doc):
    request = urllib.request.Request(
        "http://127.0.0.1:{}{}".format(server.server_address[1], path),
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        return resp.read()


def _rebuilt(server, body):
    """``body`` re-encoded with its communities taken from
    ``to_dict()`` of the engine's (cached) answer."""
    doc = json.loads(body)
    data = doc["data"]
    query = data["query"]
    communities = server.state.explorer.search(
        query["algorithm"], query["vertex"], k=query["k"],
        keywords=query["keywords"])
    data["communities"] = [c.to_dict() for c in communities]
    return doc, json.dumps(doc).encode("utf-8")


class TestSearchBytes:
    @pytest.mark.parametrize("algorithm",
                             ["acq", "global", "local", "k-truss"])
    def test_miss_then_hit(self, server, algorithm):
        request = {"vertex": "jim gray", "k": 3, "algorithm": algorithm}
        miss = _post_raw(server, "/v1/search", request)
        hit = _post_raw(server, "/v1/search", request)
        miss_doc, miss_bytes = _rebuilt(server, miss)
        hit_doc, hit_bytes = _rebuilt(server, hit)
        assert miss == miss_bytes and hit == hit_bytes
        assert miss_doc["data"]["communities"]
        # The hit differs by its session id and the absent trace.
        assert miss_doc["trace"] == miss_doc["data"]["query"]["trace"]
        assert "trace" not in hit_doc
        assert "trace" not in hit_doc["data"]["query"]
        assert hit_doc["data"]["communities"] == \
            miss_doc["data"]["communities"]
        if algorithm == "global":
            assert HOSTILE in hit_doc["data"]["communities"][0][
                "vertices"]

    def test_empty_result_encodes_an_empty_list(self, server):
        body = _post_raw(server, "/v1/search",
                         {"vertex": "jim gray", "k": 60,
                          "algorithm": "global"})
        assert b'"communities": []}' in body
        assert body == _rebuilt(server, body)[1]
        assert json.loads(body)["data"]["communities"] == []


# ----------------------------------------------------------------------
# sharing and staleness
# ----------------------------------------------------------------------

def _two_cliques():
    """Two 4-cliques {0..3} and {4..7} plus a pendant vertex 8 on 0."""
    edges = [(a, b) for base in (0, 4)
             for a in range(base, base + 4)
             for b in range(a + 1, base + 4)]
    return build_graph(9, edges + [(0, 8)])


def _assert_matches_scratch(community, graph, q, k):
    scratch = global_search(graph, q, k)[0]
    assert community.vertices == scratch.vertices
    assert community.edge_count == scratch.edge_count
    assert community.body.encoded == scratch.body.encoded
    assert community.to_json() == json.dumps(scratch.to_dict())


class TestSharing:
    def test_one_body_per_component_k_and_graph(self):
        explorer = CExplorer()
        explorer.add_graph("g", _two_cliques())
        a = explorer.search("global", 0, k=3)[0]
        b = explorer.search("global", 2, k=3)[0]
        assert a.vertices is b.vertices and a.body is b.body
        assert a.query_vertices == (0,) and b.query_vertices == (2,)
        assert a.to_dict()["query_vertices"] == ["n0"]
        assert b.to_dict()["query_vertices"] == ["n2"]
        # Another component, another k, another graph: their own.
        c = explorer.search("global", 5, k=3)[0]
        assert c.vertices == {4, 5, 6, 7} and c.body is not a.body
        d = explorer.search("global", 0, k=2)[0]
        assert d.vertices == a.vertices and d.body is not a.body
        explorer.add_graph("other", _two_cliques())
        e = explorer.search("global", 0, k=3)[0]
        assert e.vertices == a.vertices and e.body is not a.body
        assert e.graph is not a.graph

    def test_result_cache_stays_keyed_by_query_vertex(self):
        explorer = CExplorer()
        explorer.add_graph("g", _two_cliques())
        explorer.search("global", 0, k=3)
        before = explorer.cache.stats()
        first = explorer.search("global", 1, k=3)
        mid = explorer.cache.stats()
        assert mid["misses"] == before["misses"] + 1
        assert explorer.search("global", 1, k=3) is first
        assert explorer.cache.stats()["hits"] == mid["hits"] + 1

    def test_not_in_the_k_core_and_extra_params(self):
        explorer = CExplorer()
        explorer.add_graph("g", _two_cliques())
        assert explorer.search("global", 8, k=3) == []
        shared = explorer.search("global", 0, k=3)[0]
        core = explorer.core_numbers()
        private = explorer.search("global", 1, k=3, core=core)[0]
        assert private == shared and private.body is not shared.body

    def test_trace_says_which_path_answered(self):
        explorer = CExplorer()
        explorer.add_graph("g", _two_cliques())
        for q, expected in ((0, False), (1, True), (5, False)):
            explorer.search("global", q, k=3)
            trace = explorer.engine.tracer.traces(limit=1)[0]
            assert trace.to_dict()["tags"]["shared_body"] is expected
        explorer.search("local", 0, k=3)
        trace = explorer.engine.tracer.traces(limit=1)[0]
        assert "shared_body" not in trace.to_dict()["tags"]

    def test_updates_retire_the_body(self):
        explorer = CExplorer()
        graph = _two_cliques()
        explorer.add_graph("g", graph)
        maintainer = explorer.maintainer()
        old = explorer.search("global", 0, k=3)[0]
        assert (len(old), old.edge_count) == (4, 6)

        # An isolated new vertex: same answer, new version, new body.
        maintainer.add_vertex("late")
        fresh = explorer.search("global", 1, k=3)[0]
        assert fresh.body is not old.body
        _assert_matches_scratch(fresh, graph, 1, 3)

        # An edge leaving the component and one that merges the two
        # components at k=3 once each side clears the bar.
        maintainer.insert_edge(0, 4)
        assert len(explorer.search("global", 0, k=3)[0]) == 8
        merged = explorer.search("global", 6, k=3)[0]
        assert merged.body is explorer.search("global", 0, k=3)[0].body
        _assert_matches_scratch(merged, graph, 6, 3)
        assert merged.edge_count == 13

        # An edge between two members: membership unchanged, one more
        # edge -- the cached statistics must not survive it.
        maintainer.insert_edge(1, 5)
        denser = explorer.search("global", 6, k=3)[0]
        assert denser.vertices == merged.vertices
        assert denser.body is not merged.body
        assert denser.edge_count == 14
        _assert_matches_scratch(denser, graph, 6, 3)

        # Removing both bridges splits the component again.
        maintainer.remove_edge(1, 5)
        maintainer.remove_edge(0, 4)
        split = explorer.search("global", 6, k=3)[0]
        assert split.vertices == {4, 5, 6, 7}
        _assert_matches_scratch(split, graph, 6, 3)
        _assert_matches_scratch(explorer.search("global", 0, k=3)[0],
                                graph, 0, 3)

    def test_racing_first_queries(self):
        graph = build_graph(
            60, [(a, b) for a in range(60) for b in range(a + 1, 60)
                 if (a + b) % 3])
        expected = global_search(graph, 0, 5)[0]
        explorer = CExplorer()
        explorer.add_graph("g", graph)
        barrier = threading.Barrier(8)
        answers = [None] * 8

        def run(i):
            barrier.wait(timeout=10)
            answers[i] = explorer.search("global", i, k=5)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        for i, answer in enumerate(answers):
            assert len(answer) == 1 and answer[0] == expected
            assert answer[0].query_vertices == (i,)
            assert answer[0].to_json() == json.dumps(
                answer[0].to_dict())
        # Whoever lost the race, later queries share one body.
        late = explorer.search("global", 20, k=5)[0]
        assert late.body is explorer.search("global", 21, k=5)[0].body


# ----------------------------------------------------------------------
# the work guard
# ----------------------------------------------------------------------

class _CountingGraph(AttributedGraph):
    """Counts the calls whose number the sharing is meant to bound."""

    def __init__(self):
        super().__init__()
        self.neighbor_calls = 0
        self.name_calls = 0

    @classmethod
    def ring(cls, n, chords=()):
        graph = cls()
        for i in range(n):
            graph.add_vertex("r{}".format(i))
        for i in range(n):
            graph.add_edge(i, (i + 1) % n)
        for u, v in chords:
            graph.add_edge(u, v)
        return graph

    def neighbors(self, v):
        self.neighbor_calls += 1
        return super().neighbors(v)

    def display_name(self, v):
        self.name_calls += 1
        return super().display_name(v)


class TestWorkGuard:
    def test_queries_in_one_component_share_the_work(self):
        n = 300
        graph = _CountingGraph.ring(n)
        explorer = CExplorer()
        explorer.add_graph("ring", graph)
        explorer.core_numbers()
        graph.neighbor_calls = graph.name_calls = 0
        texts = {explorer.search("global", q, k=2)[0].to_json()
                 for q in range(0, n, 3)}
        assert len(texts) == n // 3         # one per query vertex
        # One BFS plus one edge count over the component -- not one
        # of each per query -- and one name per member plus one per
        # query vertex.
        assert graph.neighbor_calls <= 2 * n + 2
        assert graph.name_calls <= n + n // 3

    def test_a_search_hit_rederives_nothing(self):
        graph = _CountingGraph.ring(40)
        explorer = CExplorer()
        explorer.add_graph("ring", graph)
        server = make_server(explorer, port=0)
        threading.Thread(target=server.serve_forever,
                         daemon=True).start()
        try:
            request = {"vertex": "r7", "k": 2, "algorithm": "global"}
            miss = json.loads(_post_raw(server, "/v1/search", request))
            graph.neighbor_calls = graph.name_calls = 0
            hit = json.loads(_post_raw(server, "/v1/search", request))
        finally:
            server.shutdown()
        assert "trace" in miss and "trace" not in hit
        assert hit["data"]["communities"] == miss["data"]["communities"]
        assert (graph.neighbor_calls, graph.name_calls) == (0, 0)

    def test_compare_evaluates_cpj_once_per_community(self, dblp_small,
                                                      monkeypatch):
        calls = []
        real = statistics.cpj

        def counting(community, *args, **kwargs):
            calls.append(community)
            return real(community, *args, **kwargs)

        monkeypatch.setattr(statistics, "cpj", counting)
        explorer = CExplorer()
        explorer.add_graph("dblp", dblp_small)
        report = explorer.compare("Jim Gray", k=3,
                                  methods=("global", "local", "acq"))
        doc = report.to_dict()
        render_quality_charts(report)
        report.render_text()
        communities = sum(len(cs) for cs in report.results.values())
        assert communities >= 3 and len(calls) == communities
        assert doc["quality"] == report.quality_bars() == {
            row["method"]: {"cpj": row["cpj"], "cmf": row["cmf"]}
            for row in doc["table"]}
