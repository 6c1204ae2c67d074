"""HTTP round-trip tests for the browser-server substrate."""

import http.client
import json
import re
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.tracing import METRICS, metric_value
from repro.explorer.cexplorer import CExplorer
from repro.server.app import make_server
from repro.server.html import INDEX_HTML
from repro.server.routes import v1_routes

from support.edge_list import write_edge_list


@pytest.fixture(scope="module")
def server(request):
    from repro.datasets import DblpConfig, generate_dblp_graph
    explorer = CExplorer()
    explorer.add_graph("dblp", generate_dblp_graph(
        DblpConfig(n_authors=400, n_communities=8, seed=13)))
    srv = make_server(explorer, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()


def _url(server, path):
    return "http://127.0.0.1:{}{}".format(server.server_address[1], path)


def _unwrap(status, doc):
    """``(status, data)`` on success, ``(status, error object)`` on
    failure: the envelope's payload either way."""
    return status, doc["data"] if doc["ok"] else doc["error"]


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as resp:
        return _unwrap(resp.status, json.loads(resp.read()))


def _post_envelope(server, path, doc):
    """``(status, whole envelope)`` of a JSON POST."""
    req = urllib.request.Request(
        _url(server, path), data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(server, path, doc):
    return _unwrap(*_post_envelope(server, path, doc))


class TestStaticEndpoints:
    def test_index_page(self, server):
        with urllib.request.urlopen(_url(server, "/")) as resp:
            body = resp.read().decode("utf-8")
            assert resp.headers["Content-Type"].startswith("text/html")
        assert "C-Explorer" in body
        assert "Search" in body

    def test_algorithms(self, server):
        status, doc = _get(server, "/v1/algorithms")
        assert status == 200
        assert "acq" in doc["cs"]
        assert "codicil" in doc["cd"]

    def test_graphs_listing(self, server):
        status, doc = _get(server, "/v1/graphs")
        assert status == 200
        assert doc["graphs"][0]["name"] == "dblp"
        assert doc["graphs"][0]["vertices"] == 400

    def test_unknown_endpoint_404(self, server):
        status, doc = _post(server, "/v1/nope", {})
        assert status == 404
        assert doc["code"] == "not_found"

    def test_page_calls_only_v1_routes(self):
        called = set(re.findall(r"(?:fetch|api)\('([^']+)'",
                                INDEX_HTML))
        assert len(called) == 5
        assert called <= {route.template for route in v1_routes()}


class TestDetectParams:
    @pytest.fixture(scope="class")
    def detect_server(self):
        # Its own two-worker server with a short deadline, so a worker
        # lost to one case shows up as a timed-out search, not as a
        # failure of some unrelated test.
        from repro.datasets import DblpConfig, generate_dblp_graph
        explorer = CExplorer(workers=2)
        explorer.add_graph("dblp", generate_dblp_graph(
            DblpConfig(n_authors=400, n_communities=8, seed=13)))
        srv = make_server(explorer, port=0, query_timeout=5.0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        yield srv
        srv.shutdown()
        explorer.engine.shutdown()

    @pytest.mark.parametrize("i, body", list(enumerate([
        {"params": {"trace": 7}},
        {"params": {"trace": 7}},
        {"params": {"timeout": 1}},
        {"params": {"op": "x"}},
        {"params": [1]},
        {"params": "seed"},
        {"params": {"foo": 1}},
        {"algorithm": "newman-girvan", "params": {"foo": 1}},
        {"algorithm": "label-propagation",
         "params": {"per_component": True}},
    ])))
    def test_detect_rejects_params_the_algorithm_does_not_take(
            self, detect_server, i, body):
        # Client params reach only the CD function: none of them can
        # set the engine's own submit keywords, and every key the
        # function does not take is a 400 before anything is queued.
        status, doc = _post(detect_server, "/v1/detect", body)
        assert status == 400
        assert doc["code"] == "invalid_parameter"
        # The engine's workers are all still serving: a cache miss
        # that has to go through the queue answers.
        label = detect_server.state.explorer.graph.label(100 + i)
        status, doc = _post(detect_server, "/v1/search",
                            {"vertex": label, "k": 1,
                             "algorithm": "global"})
        assert status == 200
        assert doc["communities"]


class TestQueryEndpoints:
    def test_options(self, server):
        status, doc = _post(server, "/v1/options",
                            {"vertex": "jim gray"})
        assert status == 200
        assert doc["name"] == "Jim Gray"
        assert doc["keywords"]

    def test_search(self, server):
        status, doc = _post(server, "/v1/search",
                            {"vertex": "jim gray", "k": 3,
                             "algorithm": "acq"})
        assert status == 200
        assert doc["query"]["k"] == 3
        assert doc["communities"]
        community = doc["communities"][0]
        assert "Jim Gray" in community["vertices"]
        assert community["theme"]

    def test_search_with_keyword_subset(self, server):
        _, options = _post(server, "/v1/options",
                           {"vertex": "jim gray"})
        subset = options["keywords"][:5]
        status, doc = _post(server, "/v1/search",
                            {"vertex": "jim gray", "k": 3,
                             "keywords": subset})
        assert status == 200

    def test_search_unknown_vertex_400(self, server):
        status, doc = _post(server, "/v1/search",
                            {"vertex": "nobody at all"})
        assert status == 400
        assert doc["code"] == "invalid_query"

    def test_search_missing_vertex_400(self, server):
        status, doc = _post(server, "/v1/search", {"k": 3})
        assert status == 400
        assert "vertex" in doc["message"]

    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            _url(server, "/v1/search"), data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 400

    def test_detect(self, server):
        status, doc = _post(server, "/v1/detect",
                            {"algorithm": "label-propagation",
                             "params": {"seed": 1}})
        assert status == 200
        assert doc["count"] >= 1
        assert len(doc["communities"]) <= 50

    def test_display(self, server):
        status, doc = _post(server, "/v1/display",
                            {"vertex": "jim gray", "k": 3,
                             "community": 0})
        assert status == 200
        assert doc["svg"].startswith("<svg")
        assert doc["positions"]

    def test_display_bad_index(self, server):
        status, doc = _post(server, "/v1/display",
                            {"vertex": "jim gray", "k": 3,
                             "community": 99})
        assert status == 400
        assert "out of range" in doc["message"]

    def test_profile(self, server):
        status, doc = _post(server, "/v1/profile",
                            {"vertex": "Michael Stonebraker"})
        assert status == 200
        assert "Berkeley" in doc["institute"]

    def test_compare(self, server):
        status, doc = _post(server, "/v1/compare",
                            {"vertex": "jim gray", "k": 3,
                             "methods": ["global", "acq"]})
        assert status == 200
        assert {row["method"] for row in doc["table"]} == \
            {"global", "acq"}
        assert "acq" in doc["quality"]
        # The Figure 6(a) bar graphs come along as SVG.
        assert doc["charts"]["cpj"].startswith("<svg")
        assert doc["charts"]["cmf"].startswith("<svg")

    def test_compare_charts_opt_out(self, server):
        status, doc = _post(server, "/v1/compare",
                            {"vertex": "jim gray", "k": 3,
                             "methods": ["acq"], "charts": False})
        assert status == 200
        assert "charts" not in doc

    def test_upload(self, server, fig5, tmp_path):
        path = str(tmp_path / "fig5.txt")
        write_edge_list(fig5, path)
        status, doc = _post(server, "/v1/upload", {"path": path,
                                                    "name": "fig5"})
        assert status == 200
        assert doc == {"name": "fig5", "vertices": 10, "edges": 11}
        # Restore the dblp graph as active for other tests.
        explorer = server.state.explorer
        explorer.add_graph("dblp", explorer.indexes.graph("dblp"))

    def test_upload_missing_path(self, server):
        status, doc = _post(server, "/v1/upload", {})
        assert status == 400

    def test_suggest(self, server):
        status, doc = _post(server, "/v1/suggest", {"prefix": "jim"})
        assert status == 200
        assert "Jim Gray" in doc["names"]

    def test_suggest_empty_prefix(self, server):
        status, doc = _post(server, "/v1/suggest",
                            {"prefix": "", "limit": 3})
        assert status == 200
        assert len(doc["names"]) == 3

    def test_stats_endpoint(self, server):
        status, doc = _get(server, "/v1/stats")
        assert status == 200
        assert doc["vertices"] == server.state.explorer.graph.vertex_count
        assert "core_histogram" in doc

    def test_session_threading_and_history(self, server):
        status, doc = _post(server, "/v1/search",
                            {"vertex": "jim gray", "k": 3})
        assert status == 200
        session_id = doc["session"]
        assert session_id
        # Second query under the same session.
        status, doc = _post(server, "/v1/search",
                            {"vertex": "jim gray", "k": 2,
                             "session": session_id})
        assert doc["session"] == session_id
        status, doc = _post(server, "/v1/history",
                            {"session": session_id})
        assert status == 200
        assert len(doc["history"]) == 2
        assert doc["history"][0]["k"] == 2  # most recent first

    def test_metrics_endpoint(self, server):
        _post(server, "/v1/search", {"vertex": "jim gray", "k": 3})
        status, doc = _get(server, "/v1/metrics")
        assert status == 200
        assert doc["uptime_seconds"] >= 0
        assert doc["requests"].get("/v1/search", 0) >= 1
        assert "cache" in doc
        assert doc["cache"]["capacity"] > 0

    def test_every_metric_row_resolves(self, server):
        """Each /metrics family reads a key the live /v1/metrics
        document has: a renamed key fails here instead of rendering 0
        forever."""
        _post(server, "/v1/search", {"vertex": "jim gray", "k": 3})
        doc = server.state.metrics()
        for metric in METRICS:
            value = metric_value(doc, metric.path)
            assert value is not None, metric
            assert isinstance(value, dict) == (metric.label is not None), \
                metric

    def test_metrics_engine_block(self, server):
        """/v1/metrics surfaces the query engine: pool shape, queue
        depth, cache hit rate, and latency percentiles."""
        # One repeated search guarantees at least one miss and one hit.
        _post(server, "/v1/search", {"vertex": "jim gray", "k": 4})
        _post(server, "/v1/search", {"vertex": "jim gray", "k": 4})
        status, doc = _get(server, "/v1/metrics")
        assert status == 200
        engine = doc["engine"]
        assert engine["workers"] >= 1
        assert engine["queue_depth"] >= 0
        assert engine["max_queue"] >= 1
        assert "cache" not in engine      # stated once, at top level
        assert doc["cache"]["hits"] >= 1
        assert 0.0 <= doc["cache"]["hit_rate"] <= 1.0
        latency = engine["latency"]["search"]
        assert latency["count"] >= 1
        assert latency["p50_ms"] >= 0
        assert latency["p95_ms"] >= latency["p50_ms"]
        assert engine["counters"]["completed"] >= 1
        assert engine["indexes"]["dblp"]["version"] >= 1

    def test_search_runs_on_engine_workers(self, server):
        """A search increments the engine's completed counter (the
        work left the handler thread)."""
        before = _get(server, "/v1/metrics")[1]["engine"]["counters"]
        _post(server, "/v1/search",
              {"vertex": "michael stonebraker", "k": 5})
        after = _get(server, "/v1/metrics")[1]["engine"]["counters"]
        assert after["completed"] >= before.get("completed", 0)
        assert after["submitted"] > before.get("submitted", 0)

    def test_metrics_counts_errors(self, server):
        before = _get(server, "/v1/metrics")[1]["errors"]
        _post(server, "/v1/search", {"vertex": "nobody here"})
        after = _get(server, "/v1/metrics")[1]["errors"]
        assert after == before + 1

    def test_display_includes_inferred_theme(self, server):
        status, doc = _post(server, "/v1/display",
                            {"vertex": "jim gray", "k": 3,
                             "algorithm": "global", "community": 0})
        assert status == 200
        assert doc["theme"], "structural community gets inferred theme"

    def test_history_unknown_session(self, server):
        status, doc = _post(server, "/v1/history", {"session": "nope"})
        assert status == 404
        assert doc["code"] == "session_not_found"
        assert "unknown session" in doc["message"]

    def test_concurrent_queries(self, server):
        """The threaded server must answer parallel searches correctly."""
        results = []
        errors = []

        def worker():
            try:
                results.append(_post(server, "/v1/search",
                                     {"vertex": "jim gray", "k": 3}))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 8
        first = results[0][1]["communities"]
        assert all(r[1]["communities"] == first for r in results)


class TestCompareEndpoint:
    @pytest.mark.parametrize("path, field, value", [
        ("/v1/compare", "methods", "acq"),
        ("/v1/compare", "methods", [1]),
        ("/v1/compare", "methods", []),
        ("/v1/compare", "keywords", "data"),
        ("/v1/search", "keywords", "data"),
        ("/v1/search", "keywords", ["data", 2]),
        ("/v1/display", "keywords", "data"),
    ])
    def test_list_fields_take_only_lists_of_strings(self, server, path,
                                                    field, value):
        status, doc = _post(server, path, {"vertex": "jim gray", "k": 3,
                                           field: value})
        assert status == 400
        assert doc["code"] == "invalid_parameter"
        assert repr(field) in doc["message"]

    @pytest.mark.parametrize("path", ["/v1/compare", "/v1/search"])
    def test_negative_k_is_invalid_query(self, server, path):
        status, doc = _post(server, path, {"vertex": "jim gray", "k": -1,
                                           "methods": ["global", "acq"]})
        assert (status, doc["code"]) == (400, "invalid_query")

    def test_unexpected_method_failure_is_internal(self, server,
                                                   monkeypatch):
        from repro.algorithms.registry import get_cs_algorithm

        def broken(graph, q, k, keywords=None, **params):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(get_cs_algorithm("local"), "func", broken)
        status, doc = _post(server, "/v1/compare",
                            {"vertex": "michael stonebraker", "k": 2,
                             "methods": ["local"], "charts": False})
        assert (status, doc["code"]) == (500, "internal")
        assert "kernel bug" in doc["message"]

    def test_compare_after_search_hits_the_cache(self, server):
        query = {"vertex": "michael stonebraker", "k": 3}
        assert _post(server, "/v1/search", query)[0] == 200
        hits = _get(server, "/v1/metrics")[1]["cache"]["hits"]
        status, envelope = _post_envelope(
            server, "/v1/compare",
            dict(query, methods=["acq", "local"], charts=False))
        assert status == 200
        assert _get(server, "/v1/metrics")[1]["cache"]["hits"] > hits
        status, trace = _get(server,
                             "/v1/traces/" + envelope["trace"])
        assert status == 200 and trace["op"] == "compare"
        assert "algorithm" not in trace["tags"]
        methods = [s["tags"]["algorithm"] for s in trace["spans"]
                   if s["name"] == "search"]
        assert methods == ["acq", "local"]


class TestNumericFields:
    """One rule for every integer request field: ``null`` is absent
    (the default applies), an integer or an integer string is taken,
    and a bool or a float is a 400 rather than a truncated value."""

    BASE = {"vertex": "jim gray", "methods": ["local", "acq"],
            "charts": False}

    @pytest.mark.parametrize("path", ["/v1/search", "/v1/display",
                                      "/v1/compare"])
    def test_null_k_means_the_default(self, server, path):
        status, doc = _post(server, path, dict(self.BASE, k=None))
        assert status == 200
        echoed = doc["k"] if path == "/v1/compare" else doc["query"]["k"]
        assert echoed == 4

    def test_null_community_means_the_first(self, server):
        status, doc = _post(server, "/v1/display",
                            dict(self.BASE, k=3, community=None))
        first = _post(server, "/v1/display", dict(self.BASE, k=3))[1]
        assert status == 200
        assert doc["community"] == first["community"]

    def test_null_suggest_limit_means_the_default(self, server):
        status, doc = _post(server, "/v1/suggest",
                            {"prefix": "", "limit": None})
        assert status == 200
        assert len(doc["names"]) == 10

    @pytest.mark.parametrize("path", ["/v1/search", "/v1/display",
                                      "/v1/compare"])
    @pytest.mark.parametrize("k", [3.9, 3.0, True, False, "3.9", [3]])
    def test_k_that_is_not_an_integer_is_invalid(self, server, path, k):
        status, doc = _post(server, path, dict(self.BASE, k=k))
        assert (status, doc["code"]) == (400, "invalid_parameter")
        assert "'k'" in doc["message"]

    @pytest.mark.parametrize("path, field, value", [
        ("/v1/display", "community", 0.5),
        ("/v1/display", "community", True),
        ("/v1/suggest", "limit", 2.5),
        ("/v1/suggest", "limit", True),
    ])
    def test_other_fields_that_are_not_integers_are_invalid(
            self, server, path, field, value):
        status, doc = _post(server, path,
                            dict(self.BASE, k=3, prefix="j",
                                 **{field: value}))
        assert (status, doc["code"]) == (400, "invalid_parameter")
        assert repr(field) in doc["message"]

    @pytest.mark.parametrize("limit", ["x", 1.5, True])
    def test_history_limit_that_is_not_an_integer_is_invalid(
            self, server, limit):
        session = _post(server, "/v1/search",
                        {"vertex": "jim gray", "k": 3})[1]["session"]
        status, doc = _post(server, "/v1/history",
                            {"session": session, "limit": limit})
        assert (status, doc["code"]) == (400, "invalid_parameter")

    def test_history_limit_null_and_integer_string(self, server):
        session = _post(server, "/v1/search",
                        {"vertex": "jim gray", "k": 3})[1]["session"]
        _post(server, "/v1/search",
              {"vertex": "jim gray", "k": 2, "session": session})
        status, doc = _post(server, "/v1/history",
                            {"session": session, "limit": None})
        assert status == 200 and len(doc["history"]) == 2
        status, doc = _post(server, "/v1/history",
                            {"session": session, "limit": "1"})
        assert status == 200 and len(doc["history"]) == 1

    def test_integer_strings_are_accepted(self, server):
        status, doc = _post(server, "/v1/search",
                            {"vertex": "jim gray", "k": "3"})
        assert status == 200
        assert doc["query"]["k"] == 3

    @pytest.mark.parametrize("limit", ["x", "1.5"])
    def test_traces_limit_that_is_not_an_integer_is_invalid(
            self, server, limit):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/v1/traces?limit=" + limit)
        status, doc = _unwrap(err.value.code, json.loads(err.value.read()))
        assert (status, doc["code"]) == (400, "invalid_parameter")
        assert "'limit'" in doc["message"]


def _connect(server):
    return http.client.HTTPConnection("127.0.0.1",
                                      server.server_address[1],
                                      timeout=10)


def _exchange(conn, method, path, body=None):
    """``(status, Connection header, envelope)`` of one request."""
    conn.request(method, path, body=body)
    resp = conn.getresponse()
    return (resp.status, resp.getheader("Connection"),
            json.loads(resp.read()))


class TestPersistentConnections:
    """One client socket carries many requests, each answered whole."""

    SEARCH = json.dumps({"vertex": "jim gray", "k": 3})

    def test_one_socket_across_errors(self, server):
        conn = _connect(server)
        try:
            status, _, doc = _exchange(conn, "POST", "/v1/search",
                                       self.SEARCH)
            assert status == 200 and doc["data"]["communities"]
            sock = conn.sock
            assert sock is not None, "the server closed the connection"
            # An unmatched route still consumes its body, and so does
            # a body that fails to parse.
            status, _, doc = _exchange(conn, "POST", "/v1/nope",
                                       b'{"pad": "' + b"x" * 512 + b'"}')
            assert (status, doc["error"]["code"]) == (404, "not_found")
            assert conn.sock is sock
            status, _, doc = _exchange(conn, "POST", "/v1/search",
                                       b"{not json")
            assert (status, doc["error"]["code"]) == (400,
                                                     "invalid_json")
            assert conn.sock is sock
            status, connection, doc = _exchange(conn, "POST",
                                                "/v1/search",
                                                self.SEARCH)
            assert status == 200 and doc["data"]["communities"]
            assert connection is None and conn.sock is sock
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["many", "-5"])
    def test_bad_content_length_closes(self, server, length):
        conn = _connect(server)
        try:
            conn.putrequest("POST", "/v1/search")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            assert resp.status == 400
            assert doc["error"]["code"] == "bad_request"
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_no_nagle_stall(self, server):
        """With Nagle on, a kept-alive response's body write waits out
        the client's delayed ACK: ~40 ms a request instead of well
        under one."""
        conn = _connect(server)
        try:
            _exchange(conn, "POST", "/v1/search", self.SEARCH)
            times = []
            for _ in range(30):
                start = time.perf_counter()
                status, _, _ = _exchange(conn, "POST", "/v1/search",
                                         self.SEARCH)
                times.append(time.perf_counter() - start)
                assert status == 200
            assert statistics.median(times) < 0.010
        finally:
            conn.close()
