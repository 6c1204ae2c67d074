"""HTTP round-trip tests for the browser-server substrate."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.explorer.cexplorer import CExplorer
from repro.graph.io import write_edge_list
from repro.server.app import make_server


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


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, doc):
    req = urllib.request.Request(
        _url(server, path), data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestStaticEndpoints:
    def test_index_page(self, server):
        with urllib.request.urlopen(_url(server, "/")) as resp:
            body = resp.read().decode("utf-8")
            assert resp.headers["Content-Type"].startswith("text/html")
        assert "C-Explorer" in body
        assert "Search" in body

    def test_algorithms(self, server):
        status, doc = _get(server, "/api/algorithms")
        assert status == 200
        assert "acq" in doc["cs"]
        assert "codicil" in doc["cd"]

    def test_graphs_listing(self, server):
        status, doc = _get(server, "/api/graphs")
        assert status == 200
        assert doc["graphs"][0]["name"] == "dblp"
        assert doc["graphs"][0]["vertices"] == 400

    def test_unknown_endpoint_404(self, server):
        status, doc = _post(server, "/api/nope", {})
        assert status == 404
        assert "error" in doc


class TestQueryEndpoints:
    def test_options(self, server):
        status, doc = _post(server, "/api/options",
                            {"vertex": "jim gray"})
        assert status == 200
        assert doc["name"] == "Jim Gray"
        assert doc["keywords"]

    def test_search(self, server):
        status, doc = _post(server, "/api/search",
                            {"vertex": "jim gray", "k": 3,
                             "algorithm": "acq"})
        assert status == 200
        assert doc["query"]["k"] == 3
        assert doc["communities"]
        community = doc["communities"][0]
        assert "Jim Gray" in community["vertices"]
        assert community["theme"]

    def test_search_with_keyword_subset(self, server):
        _, options = _post(server, "/api/options",
                           {"vertex": "jim gray"})
        subset = options["keywords"][:5]
        status, doc = _post(server, "/api/search",
                            {"vertex": "jim gray", "k": 3,
                             "keywords": subset})
        assert status == 200

    def test_search_unknown_vertex_400(self, server):
        status, doc = _post(server, "/api/search",
                            {"vertex": "nobody at all"})
        assert status == 400
        assert "error" in doc

    def test_search_missing_vertex_400(self, server):
        status, doc = _post(server, "/api/search", {"k": 3})
        assert status == 400
        assert "vertex" in doc["error"]

    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            _url(server, "/api/search"), data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 400

    def test_detect(self, server):
        status, doc = _post(server, "/api/detect",
                            {"algorithm": "label-propagation",
                             "params": {"seed": 1}})
        assert status == 200
        assert doc["count"] >= 1
        assert len(doc["communities"]) <= 50

    def test_display(self, server):
        status, doc = _post(server, "/api/display",
                            {"vertex": "jim gray", "k": 3,
                             "community": 0})
        assert status == 200
        assert doc["svg"].startswith("<svg")
        assert doc["positions"]

    def test_display_bad_index(self, server):
        status, doc = _post(server, "/api/display",
                            {"vertex": "jim gray", "k": 3,
                             "community": 99})
        assert status == 400
        assert "out of range" in doc["error"]

    def test_profile(self, server):
        status, doc = _post(server, "/api/profile",
                            {"vertex": "Michael Stonebraker"})
        assert status == 200
        assert "Berkeley" in doc["institute"]

    def test_compare(self, server):
        status, doc = _post(server, "/api/compare",
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
        status, doc = _post(server, "/api/compare",
                            {"vertex": "jim gray", "k": 3,
                             "methods": ["acq"], "charts": False})
        assert status == 200
        assert "charts" not in doc

    def test_upload(self, server, fig5, tmp_path):
        path = str(tmp_path / "fig5.txt")
        write_edge_list(fig5, path)
        status, doc = _post(server, "/api/upload", {"path": path,
                                                    "name": "fig5"})
        assert status == 200
        assert doc == {"name": "fig5", "vertices": 10, "edges": 11}
        # Restore the dblp graph as active for other tests.
        server.explorer.select_graph("dblp")

    def test_upload_missing_path(self, server):
        status, doc = _post(server, "/api/upload", {})
        assert status == 400

    def test_suggest(self, server):
        status, doc = _post(server, "/api/suggest", {"prefix": "jim"})
        assert status == 200
        assert "Jim Gray" in doc["names"]

    def test_suggest_empty_prefix(self, server):
        status, doc = _post(server, "/api/suggest",
                            {"prefix": "", "limit": 3})
        assert status == 200
        assert len(doc["names"]) == 3

    def test_stats_endpoint(self, server):
        status, doc = _get(server, "/api/stats")
        assert status == 200
        assert doc["vertices"] == server.explorer.graph.vertex_count
        assert "core_histogram" in doc

    def test_session_threading_and_history(self, server):
        status, doc = _post(server, "/api/search",
                            {"vertex": "jim gray", "k": 3})
        assert status == 200
        session_id = doc["session"]
        assert session_id
        # Second query under the same session.
        status, doc = _post(server, "/api/search",
                            {"vertex": "jim gray", "k": 2,
                             "session": session_id})
        assert doc["session"] == session_id
        status, doc = _post(server, "/api/history",
                            {"session": session_id})
        assert status == 200
        assert len(doc["history"]) == 2
        assert doc["history"][0]["k"] == 2  # most recent first

    def test_metrics_endpoint(self, server):
        _post(server, "/api/search", {"vertex": "jim gray", "k": 3})
        status, doc = _get(server, "/api/metrics")
        assert status == 200
        assert doc["uptime_seconds"] >= 0
        assert doc["requests"].get("/api/search", 0) >= 1
        assert "cache" in doc
        assert doc["cache"]["capacity"] > 0

    def test_metrics_engine_block(self, server):
        """/api/metrics surfaces the query engine: pool shape, queue
        depth, cache hit rate, and latency percentiles."""
        # One repeated search guarantees at least one miss and one hit.
        _post(server, "/api/search", {"vertex": "jim gray", "k": 4})
        _post(server, "/api/search", {"vertex": "jim gray", "k": 4})
        status, doc = _get(server, "/api/metrics")
        assert status == 200
        engine = doc["engine"]
        assert engine["workers"] >= 1
        assert engine["queue_depth"] >= 0
        assert engine["max_queue"] >= 1
        assert engine["cache"]["hits"] >= 1
        assert 0.0 <= engine["cache"]["hit_rate"] <= 1.0
        latency = engine["latency"]["search"]
        assert latency["count"] >= 1
        assert latency["p50_ms"] >= 0
        assert latency["p95_ms"] >= latency["p50_ms"]
        assert engine["counters"]["completed"] >= 1
        assert engine["indexes"]["dblp"]["version"] >= 1

    def test_search_runs_on_engine_workers(self, server):
        """A search increments the engine's completed counter (the
        work left the handler thread)."""
        before = _get(server, "/api/metrics")[1]["engine"]["counters"]
        _post(server, "/api/search",
              {"vertex": "michael stonebraker", "k": 5})
        after = _get(server, "/api/metrics")[1]["engine"]["counters"]
        assert after["completed"] >= before.get("completed", 0)
        assert after["submitted"] > before.get("submitted", 0)

    def test_metrics_counts_errors(self, server):
        before = _get(server, "/api/metrics")[1]["errors"]
        _post(server, "/api/search", {"vertex": "nobody here"})
        after = _get(server, "/api/metrics")[1]["errors"]
        assert after == before + 1

    def test_display_includes_inferred_theme(self, server):
        status, doc = _post(server, "/api/display",
                            {"vertex": "jim gray", "k": 3,
                             "algorithm": "global", "community": 0})
        assert status == 200
        assert doc["theme"], "structural community gets inferred theme"

    def test_history_unknown_session(self, server):
        status, doc = _post(server, "/api/history", {"session": "nope"})
        assert status == 400
        assert "unknown session" in doc["error"]

    def test_concurrent_queries(self, server):
        """The threaded server must answer parallel searches correctly."""
        results = []
        errors = []

        def worker():
            try:
                results.append(_post(server, "/api/search",
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
