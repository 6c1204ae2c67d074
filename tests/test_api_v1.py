"""The ``/v1`` API contract: envelope, error codes, transports.

Covers what ``tests/test_server.py`` (handler behaviour) does not:

* every ``/v1`` response wears the uniform envelope with a stable
  machine-readable error code from the registered table;
* the hard-to-reach codes -- ``engine_saturated`` from a wedged
  engine (a fast 429, not a hung socket, on both front-ends) and
  ``deadline_exceeded`` from a tiny server deadline;
* the retired ``/api/*`` paths answer the ordinary 404 envelope, and
  no route is marked deprecated;
* request counters bucket by route template, never by raw path;
* the asyncio front-end end-to-end: a concurrent burst coalescing its
  duplicate misses, and its own transport (keep-alive, HTML, the
  Prometheus exposition).
"""

import json
import threading
import concurrent.futures
import time
import urllib.error
import urllib.request

import pytest

from repro.explorer.cexplorer import CExplorer
from repro.server.app import make_server
from repro.server.async_app import make_async_server
from repro.server.routes import ERROR_CODES, translate_error


def _graph():
    from repro.datasets import DblpConfig, generate_dblp_graph
    return generate_dblp_graph(
        DblpConfig(n_authors=400, n_communities=8, seed=13))


@pytest.fixture(scope="module")
def sync_server():
    explorer = CExplorer()
    explorer.add_graph("dblp", _graph())
    srv = make_server(explorer, port=0)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.shutdown()


@pytest.fixture(scope="module")
def async_server():
    explorer = CExplorer()
    explorer.add_graph("dblp", _graph())
    srv = make_async_server(explorer, port=0)
    srv.start_background()
    yield srv
    srv.shutdown()


def _url(server, path):
    return "http://127.0.0.1:{}{}".format(server.server_address[1],
                                          path)


def _fetch(request):
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, dict(resp.headers), \
                json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), json.loads(err.read())


def _get(server, path):
    return _fetch(urllib.request.Request(_url(server, path)))


def _post(server, path, doc=None, raw=None):
    body = raw if raw is not None else json.dumps(doc or {}).encode()
    return _fetch(urllib.request.Request(
        _url(server, path), data=body,
        headers={"Content-Type": "application/json"}))


def _assert_envelope(status, doc):
    assert set(doc) <= {"ok", "data", "error", "trace"}
    assert isinstance(doc["ok"], bool)
    if doc["ok"]:
        assert status == 200 and doc["error"] is None
    else:
        assert status != 200 and doc["data"] is None
        error = doc["error"]
        assert error["code"] in ERROR_CODES
        assert ERROR_CODES[error["code"]][0] == status
        assert error["message"]


@pytest.fixture(params=["sync_server", "async_server"])
def server(request):
    return request.getfixturevalue(request.param)


class TestEnvelope:
    def test_success_envelope_on_get_routes(self, server):
        for path in ("/v1/algorithms", "/v1/graphs",
                     "/v1/graphs/dblp", "/v1/metrics", "/v1/traces"):
            status, _, doc = _get(server, path)
            _assert_envelope(status, doc)
            assert doc["ok"], path

    def test_search_success_with_trace(self, server):
        status, _, doc = _post(server, "/v1/search",
                               {"vertex": "jim gray", "k": 3})
        _assert_envelope(status, doc)
        data = doc["data"]
        assert data["query"]["k"] == 3
        assert data["communities"]
        # Traced queries surface the id both in the envelope and the
        # query echo; the trace must be fetchable.
        assert doc.get("trace") == data["query"]["trace"]
        status, _, tdoc = _get(server,
                               "/v1/traces/{}".format(doc["trace"]))
        _assert_envelope(status, tdoc)
        assert tdoc["data"]["query_id"] == doc["trace"]

    def test_graph_detail(self, server):
        status, _, doc = _get(server, "/v1/graphs/dblp")
        assert doc["data"]["vertices"] == 400
        assert "index" in doc["data"]


class TestErrorCodes:
    """Every client-reachable code, each with its frozen status."""

    CASES = [
        ("not_found", "GET", "/v1/nowhere", None, None),
        ("graph_not_found", "GET", "/v1/graphs/missing", None, None),
        ("trace_not_found", "GET", "/v1/traces/zz-none", None, None),
        ("session_not_found", "POST", "/v1/history",
         {"session": "ghost"}, None),
        ("missing_field", "POST", "/v1/search", {"k": 3}, None),
        ("invalid_parameter", "POST", "/v1/search",
         {"vertex": "jim gray", "k": "many"}, None),
        ("unknown_algorithm", "POST", "/v1/search",
         {"vertex": "jim gray", "algorithm": "nope"}, None),
        ("invalid_query", "POST", "/v1/search",
         {"vertex": "nobody at all"}, None),
        ("invalid_json", "POST", "/v1/search", None, b"{nope"),
        ("bad_request", "POST", "/v1/upload",
         {"path": "/no/such/file.txt"}, None),
    ]

    @pytest.mark.parametrize(
        "code,method,path,body,raw",
        CASES, ids=[c[0] for c in CASES])
    def test_code(self, server, code, method, path, body, raw):
        if method == "GET":
            status, _, doc = _get(server, path)
        else:
            status, _, doc = _post(server, path, body, raw=raw)
        _assert_envelope(status, doc)
        assert doc["error"]["code"] == code
        assert status == ERROR_CODES[code][0]

    def test_remaining_codes_via_translation(self):
        # ``cancelled`` and ``internal`` need a racing cancel or a
        # server bug; pin their wire mapping at the translation seam.
        # ``cancelled`` is what a cancelled engine future raises.
        future = concurrent.futures.Future()
        assert future.cancel()
        with pytest.raises(concurrent.futures.CancelledError) as raised:
            future.result()
        status, code, _, retry = translate_error(raised.value)
        assert (status, code, retry) == (503, "cancelled", False)
        status, code, message, _ = translate_error(
            ZeroDivisionError("boom"))
        assert (status, code) == (500, "internal")
        assert "boom" in message

    def test_all_codes_covered(self):
        exercised = {c[0] for c in self.CASES} | {
            "cancelled", "internal",
            # driven by the dedicated saturation/deadline tests below
            "engine_saturated", "deadline_exceeded",
            # driven live in tests/test_resilience.py (readiness
            # flips only with a shut-down engine or a full queue)
            "not_ready",
        }
        assert exercised == set(ERROR_CODES)


class TestLegacyShim:
    """The pre-``/v1`` ``/api/*`` shim is gone, not deprecated."""

    def test_v1_routes_not_deprecated(self, server):
        _, headers, _ = _get(server, "/v1/graphs")
        assert "Deprecation" not in headers

    def test_legacy_error_shape(self, server):
        # A retired path is an unknown path: the ordinary envelope.
        status, headers, doc = _post(server, "/api/search",
                                     {"vertex": "jim gray", "k": 3})
        _assert_envelope(status, doc)
        assert (status, doc["error"]["code"]) == (404, "not_found")
        assert "Deprecation" not in headers


class TestRequestCounting:
    def test_trace_ids_bucket_by_template(self, server):
        _, _, doc = _post(server, "/v1/search",
                          {"vertex": "jim gray", "k": 4})
        for _ in range(2):
            _get(server, "/v1/traces/{}".format(doc["trace"]))
        _, _, metrics = _get(server, "/v1/metrics")
        requests = metrics["data"]["requests"]
        assert requests["/v1/traces/{query_id}"] >= 2
        assert not any(key.startswith("/v1/traces/q")
                       for key in requests)

    def test_unknown_paths_bucket_together(self, server):
        _get(server, "/v1/probe-a")
        _get(server, "/v1/probe-b")
        _, _, metrics = _get(server, "/v1/metrics")
        requests = metrics["data"]["requests"]
        assert requests["(unknown)"] >= 2
        assert "/v1/probe-a" not in requests


def _wedge(engine, seconds):
    """Occupy every worker with a slow job; returns their futures."""
    release = threading.Event()

    def slow():
        release.wait(seconds)

    futures = [engine.submit(slow, op="wedge")
               for _ in range(engine.workers)]
    # Let the workers pick the wedge jobs off the queue before the
    # caller fills it, so queue occupancy is deterministic.
    deadline = time.perf_counter() + 5.0
    while engine.snapshot()["in_flight"] < engine.workers \
            and time.perf_counter() < deadline:
        time.sleep(0.005)
    return release, futures


class TestSaturationAndDeadline:
    """The overload codes: fast rejections, never hung sockets."""

    @pytest.mark.parametrize("kind", ["sync", "async"])
    def test_engine_saturated(self, kind):
        explorer = CExplorer(workers=1, max_queue=1)
        explorer.add_graph("dblp", _graph())
        if kind == "async":
            srv = make_async_server(explorer, port=0)
            srv.start_background()
        else:
            srv = make_server(explorer, port=0)
            threading.Thread(target=srv.serve_forever,
                             daemon=True).start()
        try:
            release, _ = _wedge(explorer.engine, 30.0)
            # Fill the 1-slot queue behind the wedged worker.
            explorer.engine.submit(lambda: None, op="filler")
            started = time.perf_counter()
            status, _, doc = _post(srv, "/v1/search",
                                   {"vertex": "jim gray", "k": 3})
            elapsed = time.perf_counter() - started
            release.set()
            _assert_envelope(status, doc)
            assert status == 429
            assert doc["error"]["code"] == "engine_saturated"
            assert doc["error"]["retry"] is True
            # The point of admission control: rejection is immediate,
            # not a socket held open until some deadline.
            assert elapsed < 5.0
        finally:
            srv.shutdown()

    def test_deadline_exceeded(self):
        explorer = CExplorer(workers=1, max_queue=8)
        explorer.add_graph("dblp", _graph())
        srv = make_server(explorer, port=0, query_timeout=0.05)
        threading.Thread(target=srv.serve_forever,
                         daemon=True).start()
        try:
            release, _ = _wedge(explorer.engine, 30.0)
            status, _, doc = _post(srv, "/v1/search",
                                   {"vertex": "jim gray", "k": 3})
            release.set()
            _assert_envelope(status, doc)
            assert status == 504
            assert doc["error"]["code"] == "deadline_exceeded"
        finally:
            srv.shutdown()


class TestAsyncBatching:
    """A concurrent burst on the asyncio front-end, with default
    arguments: duplicate cache misses coalesce through the engine's
    single-flight miss path, and every answer is the serial one."""

    def test_concurrent_burst_coalesces(self, monkeypatch):
        from repro.algorithms.registry import get_cs_algorithm
        entry = get_cs_algorithm("acq")
        acq = entry.func
        calls = []

        def slow_acq(*args, **kwargs):
            # Slow enough that every duplicate arrives while the
            # first computation is still running.
            calls.append(1)
            time.sleep(0.2)
            return acq(*args, **kwargs)
        monkeypatch.setattr(entry, "func", slow_acq)
        vertices = ["jim gray"] * 4 + ["michael stonebraker",
                                       "gerhard weikum"]
        explorer = CExplorer(workers=len(vertices))
        explorer.add_graph("dblp", _graph())
        srv = make_async_server(explorer, port=0)
        srv.start_background()
        try:
            results = [None] * len(vertices)
            barrier = threading.Barrier(len(vertices), timeout=30.0)

            def query(i, vertex):
                barrier.wait()
                results[i] = _post(srv, "/v1/search",
                                   {"vertex": vertex, "k": 3})

            threads = [threading.Thread(target=query, args=(i, v))
                       for i, v in enumerate(vertices)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for status, _, doc in results:
                _assert_envelope(status, doc)
                assert doc["ok"]
            # The four duplicates share one execution...
            identical = [json.dumps(doc["data"]["communities"])
                         for _, _, doc in results[:4]]
            assert len(set(identical)) == 1
            assert len(calls) == len(set(vertices))
            # ...and the stats plane shows the coalescing.
            _, _, metrics = _get(srv, "/v1/metrics")
            counters = metrics["data"]["engine"]["counters"]
            assert counters["shared_answers"] >= 1
        finally:
            srv.shutdown()

    def test_burst_matches_serial_results(self):
        serial = CExplorer()
        serial.add_graph("dblp", _graph())
        expected = {
            vertex: json.dumps(
                [c.to_dict() for c in serial.search("acq", vertex,
                                                    k=3)])
            for vertex in ("jim gray", "michael stonebraker")
        }
        explorer = CExplorer(workers=2)
        explorer.add_graph("dblp", _graph())
        srv = make_async_server(explorer, port=0)
        srv.start_background()
        try:
            got = {}

            def query(vertex):
                _, _, doc = _post(srv, "/v1/search",
                                  {"vertex": vertex, "k": 3,
                                   "algorithm": "acq"})
                got[vertex] = json.dumps(doc["data"]["communities"])

            threads = [threading.Thread(target=query, args=(v,))
                       for v in expected]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == expected
        finally:
            srv.shutdown()


class TestAsyncTransport:
    def test_keep_alive_and_html(self, async_server):
        status, headers, doc = _get(async_server, "/v1/algorithms")
        assert status == 200 and doc["ok"]
        with urllib.request.urlopen(_url(async_server, "/")) as resp:
            assert resp.headers["Content-Type"].startswith("text/html")
            assert b"C-Explorer" in resp.read()

    def test_prometheus_exposition(self, async_server):
        with urllib.request.urlopen(
                _url(async_server, "/metrics")) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert "repro_uptime_seconds" in resp.read().decode()
