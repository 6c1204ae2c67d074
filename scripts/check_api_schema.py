#!/usr/bin/env python
"""API contract checker (the CI docs job).

Boots both front-ends -- the threaded server and the asyncio one --
over a small generated graph and
validates the live surface against the ``/v1`` contract in
``docs/API.md``:

* every ``/v1`` route in the route table answers, and every response
  wears the uniform envelope (``ok`` / ``data`` / ``error`` with the
  documented types, ``trace`` only on traced queries);
* ``/v1/compare`` after a search of the same query answers that
  method from the cache;
* a ``null`` integer field takes its default, and a float or bool
  one is a 400;
* ``/v1/stats`` follows updates: after an edge insert through the
  mutation gateway it counts the vertices and edges
  ``/v1/graphs/smoke`` counts;
* every error path emits a **registered** code from
  ``routes.ERROR_CODES`` with exactly the status registered for it,
  and the error object carries ``code`` + ``message`` (plus
  ``retry: true`` only where documented);
* ``docs/API.md`` itself stays in sync: it must mention every ``/v1``
  route template and every error code (and no unregistered codes).

Runs entirely in-process over loopback, so an API drift fails CI
instead of a client.

Usage: python scripts/check_api_schema.py
"""

import json
import os
import re
import sys
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def get(base, path):
    """(status, parsed JSON body) for a GET."""
    return _fetch(urllib.request.Request(base + path))


def post(base, path, doc=None, raw=None):
    """(status, parsed JSON body) for a JSON POST."""
    body = raw if raw is not None else json.dumps(doc or {}).encode()
    return _fetch(urllib.request.Request(
        base + path, data=body,
        headers={"Content-Type": "application/json"}))


def _fetch(request):
    try:
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def boot(kind):
    """A running (server, base_url) pair; kind is 'sync' or 'async'."""
    from repro.datasets import DblpConfig, generate_dblp_graph
    from repro.explorer.cexplorer import CExplorer

    explorer = CExplorer(workers=2)
    explorer.add_graph("smoke", generate_dblp_graph(
        DblpConfig(n_authors=200, n_communities=6, seed=11)))
    if kind == "async":
        from repro.server.async_app import make_async_server
        server = make_async_server(explorer, port=0)
        server.start_background()
    else:
        import threading
        from repro.server.app import make_server
        server = make_server(explorer, port=0)
        threading.Thread(target=server.serve_forever,
                         daemon=True).start()
    host, port = server.server_address[:2]
    return server, "http://{}:{}".format(host, port)


def check_envelope(path, status, doc):
    """Yield problems with one /v1 response envelope."""
    if not isinstance(doc, dict):
        yield "{}: body is not a JSON object".format(path)
        return
    for key in ("ok", "data", "error"):
        if key not in doc:
            yield "{}: envelope missing key {!r}".format(path, key)
    extra = set(doc) - {"ok", "data", "error", "trace"}
    if extra:
        yield "{}: unexpected envelope keys {}".format(
            path, sorted(extra))
    if doc.get("ok") is True:
        if status != 200:
            yield "{}: ok=true with HTTP {}".format(path, status)
        if doc.get("error") is not None:
            yield "{}: ok=true but error is not null".format(path)
    elif doc.get("ok") is False:
        if status == 200:
            yield "{}: ok=false with HTTP 200".format(path)
        if doc.get("data") is not None:
            yield "{}: ok=false but data is not null".format(path)
        for problem in check_error_object(path, status, doc):
            yield problem
    else:
        yield "{}: 'ok' is {!r}, not a bool".format(path, doc.get("ok"))


def check_error_object(path, status, doc):
    from repro.server.routes import ERROR_CODES
    error = doc.get("error")
    if not isinstance(error, dict):
        yield "{}: error is {!r}, not an object".format(path, error)
        return
    code = error.get("code")
    if code not in ERROR_CODES:
        yield "{}: unregistered error code {!r}".format(path, code)
    elif ERROR_CODES[code][0] != status:
        yield "{}: code {!r} registered as HTTP {}, served as {}" \
            .format(path, code, ERROR_CODES[code][0], status)
    if not error.get("message"):
        yield "{}: error has no message".format(path)
    if set(error) - {"code", "message", "retry"}:
        yield "{}: unexpected error keys {}".format(
            path, sorted(set(error) - {"code", "message", "retry"}))


def expect_code(probes, name, got, want_code, want_status):
    status, doc = got
    for problem in check_envelope(name, status, doc):
        probes.append(problem)
    error = (doc.get("error") or {}) if isinstance(doc, dict) else {}
    if error.get("code") != want_code:
        probes.append("{}: expected code {!r}, got {!r}".format(
            name, want_code, error.get("code")))
    if status != want_status:
        probes.append("{}: expected HTTP {}, got {}".format(
            name, want_status, status))
    return error.get("code")


def check_search_hit(base, search, miss):
    """``/v1/search`` splices pre-encoded text into its body: the
    repeat of a traced search (a cache hit, so untraced) must still
    parse to the same data document."""
    want = dict(miss.get("data") or {})
    want["query"] = {key: value
                     for key, value in want.get("query", {}).items()
                     if key != "trace"}
    if not want.get("communities"):
        yield "/v1/search: the probe search found no community"
    status, hit = post(base, "/v1/search", search)
    for problem in check_envelope("/v1/search (hit)", status, hit):
        yield problem
    if "trace" in hit:
        yield "/v1/search (hit): a cache hit carries a trace id"
    if hit.get("data") != want:
        yield ("/v1/search (hit): data differs from the miss by more "
               "than query.trace")


def check_compare(base, search):
    """``/v1/compare`` answers each method through the search path:
    after ``search`` its ``acq`` row is a cache hit, and the compare
    is one traced query."""
    def hits():
        return (get(base, "/v1/metrics")[1].get("data") or {}) \
            .get("cache", {}).get("hits", 0)

    before = hits()
    status, doc = post(base, "/v1/compare", {
        "vertex": search["vertex"], "k": search["k"],
        "methods": ["acq", "global"]})
    for problem in check_envelope("/v1/compare", status, doc):
        yield problem
    data = doc.get("data") or {}
    keys = {"query_vertex", "k", "table", "quality", "timings",
            "communities", "charts"}
    if status != 200 or set(data) != keys:
        yield "/v1/compare: HTTP {}, data keys {}".format(
            status, sorted(data))
    if not doc.get("trace"):
        yield "/v1/compare: no top-level 'trace' id"
    if hits() <= before:
        yield ("/v1/compare: the acq row after the same search was "
               "not a cache hit")


def check_null_fields(base):
    """A ``null`` integer field means absent (the HTML client sends
    one when the k box is empty): each route answers with its
    default."""
    probes = (
        ("/v1/search", {"vertex": "Jim Gray", "k": None}),
        ("/v1/display", {"vertex": "Jim Gray", "k": None,
                         "community": None}),
        ("/v1/compare", {"vertex": "Jim Gray", "k": None,
                         "methods": ["acq"], "charts": False}),
        ("/v1/suggest", {"prefix": "j", "limit": None}),
        ("/v1/history", {"session": "schema", "limit": None}),
    )
    for path, body in probes:
        status, doc = post(base, path, body)
        for problem in check_envelope(path + " (null field)", status,
                                      doc):
            yield problem
        if status != 200:
            yield "{} (null field): HTTP {}, expected 200".format(
                path, status)


def check_stats_follow_updates(server, base):
    """The dataset panel describes the current graph version: after
    one edge insert through the mutation gateway (once ``/v1/stats``
    has been read), it counts what ``/v1/graphs/smoke`` counts."""
    explorer = server.state.explorer
    graph = explorer.graph
    u, v = next((u, v) for u in graph.vertices()
                for v in graph.vertices()
                if u < v and not graph.has_edge(u, v))
    with server.state.write_lock:
        explorer.maintainer().insert_edge(u, v)
    stats = get(base, "/v1/stats")[1].get("data") or {}
    listed = get(base, "/v1/graphs/smoke")[1].get("data") or {}
    for key in ("vertices", "edges"):
        if stats.get(key) != listed.get(key):
            yield ("/v1/stats: {} is {!r} after an update, "
                   "/v1/graphs/smoke says {!r}".format(
                       key, stats.get(key), listed.get(key)))


def check_server(server, base, kind):
    """Probe one live server; yield problem strings."""
    problems = []

    # -- success envelopes on every GET /v1 route ----------------------
    for path in ("/v1/algorithms", "/v1/graphs", "/v1/graphs/smoke",
                 "/v1/stats", "/v1/metrics", "/v1/traces",
                 "/v1/health", "/v1/ready"):
        status, doc = get(base, path)
        problems.extend(check_envelope(path, status, doc))
        if status != 200:
            problems.append("{}: HTTP {}".format(path, status))
    status, doc = get(base, "/v1/health")
    if set(doc.get("data") or {}) != {"status", "uptime_seconds",
                                      "backend"}:
        problems.append("/v1/health: data keys are {}".format(
            sorted(doc.get("data") or {})))

    # -- a traced search: envelope + top-level trace id ----------------
    search = {"vertex": "Jim Gray", "k": 3, "session": "schema"}
    status, doc = post(base, "/v1/search", search)
    problems.extend(check_envelope("/v1/search", status, doc))
    problems.extend(check_search_hit(base, search, doc))
    trace_id = doc.get("trace")
    if not trace_id:
        problems.append("/v1/search: traced query has no top-level "
                        "'trace' id")
    else:
        status, tdoc = get(base, "/v1/traces/{}".format(trace_id))
        problems.extend(check_envelope("/v1/traces/{id}", status, tdoc))
        if status != 200:
            problems.append("/v1/traces/{id}: HTTP %d" % status)

    problems.extend(check_compare(base, search))
    problems.extend(check_null_fields(base))

    # -- every documented client-visible error code --------------------
    exercised = set()
    cases = (
        ("GET /v1/nowhere", get(base, "/v1/nowhere"), "not_found", 404),
        ("GET /v1/graphs/missing", get(base, "/v1/graphs/missing"),
         "graph_not_found", 404),
        ("GET /v1/traces/missing", get(base, "/v1/traces/zz-missing"),
         "trace_not_found", 404),
        ("POST /v1/history", post(base, "/v1/history",
                                  {"session": "none"}),
         "session_not_found", 404),
        ("POST /v1/search (no vertex)", post(base, "/v1/search", {}),
         "missing_field", 400),
        ("POST /v1/search (bad k)",
         post(base, "/v1/search", {"vertex": "Jim Gray", "k": "many"}),
         "invalid_parameter", 400),
        ("POST /v1/search (float k)",
         post(base, "/v1/search", {"vertex": "Jim Gray", "k": 3.9}),
         "invalid_parameter", 400),
        ("POST /v1/search (bool k)",
         post(base, "/v1/search", {"vertex": "Jim Gray", "k": True}),
         "invalid_parameter", 400),
        ("POST /v1/history (limit not an integer)",
         post(base, "/v1/history", {"session": "schema",
                                    "limit": "x"}),
         "invalid_parameter", 400),
        ("GET /v1/traces (limit not an integer)",
         get(base, "/v1/traces?limit=x"), "invalid_parameter", 400),
        ("POST /v1/search (bad algorithm)",
         post(base, "/v1/search",
              {"vertex": "Jim Gray", "algorithm": "nope"}),
         "unknown_algorithm", 400),
        ("POST /v1/search (bad vertex)",
         post(base, "/v1/search", {"vertex": "not a real author"}),
         "invalid_query", 400),
        ("POST /v1/search (keywords not a list)",
         post(base, "/v1/search", {"vertex": "Jim Gray",
                                   "keywords": "data"}),
         "invalid_parameter", 400),
        ("POST /v1/compare (methods not a list)",
         post(base, "/v1/compare", {"vertex": "Jim Gray",
                                    "methods": "acq"}),
         "invalid_parameter", 400),
        ("POST /v1/compare (a method not a string)",
         post(base, "/v1/compare", {"vertex": "Jim Gray",
                                    "methods": [1]}),
         "invalid_parameter", 400),
        ("POST /v1/compare (keywords not a list)",
         post(base, "/v1/compare", {"vertex": "Jim Gray",
                                    "methods": ["acq"],
                                    "keywords": "data"}),
         "invalid_parameter", 400),
        ("POST /v1/compare (negative k)",
         post(base, "/v1/compare", {"vertex": "Jim Gray", "k": -1,
                                    "methods": ["acq"]}),
         "invalid_query", 400),
        ("POST /v1/search (bad json)",
         post(base, "/v1/search", raw=b"{nope"), "invalid_json", 400),
        ("POST /v1/upload (bad path)",
         post(base, "/v1/upload", {"path": "/definitely/missing.txt"}),
         "bad_request", 400),
    )
    for name, got, code, status in cases:
        exercised.add(expect_code(problems, name, got, code, status))

    # -- template-bucketed request counters ----------------------------
    _, doc = get(base, "/v1/metrics")
    requests = (doc.get("data") or {}).get("requests", {})
    for key in requests:
        if re.search(r"/q\d|/[0-9a-f]{8}", key):
            problems.append("request counter key {!r} embeds a client "
                            "id (should be the route template)"
                            .format(key))
    if "/v1/traces/{query_id}" not in requests:
        problems.append("no '/v1/traces/{query_id}' counter bucket "
                        "after fetching a trace")

    problems.extend(check_stats_follow_updates(server, base))

    return ["[{}] {}".format(kind, p) for p in problems], exercised


def check_docs(exercised):
    """docs/API.md must stay in sync with the live table."""
    from repro.server.routes import ERROR_CODES, v1_routes
    problems = []
    doc_path = os.path.join(REPO_ROOT, "docs", "API.md")
    text = open(doc_path, encoding="utf-8").read()
    for route in v1_routes():
        if route.template not in text:
            problems.append("docs/API.md does not document {} {}"
                            .format(route.method, route.template))
    documented = set(re.findall(r"`(\w+)` \| \d{3} \|", text))
    for code in ERROR_CODES:
        if code not in documented:
            problems.append("docs/API.md error table missing code "
                            "{!r}".format(code))
    for code in documented - set(ERROR_CODES):
        problems.append("docs/API.md documents unregistered code "
                        "{!r}".format(code))
    undriven = documented - exercised - {
        # Not reachable from a healthy smoke server: saturation and
        # deadline need a wedged engine (tests/test_api_v1.py covers
        # both), cancellation needs a racing shutdown, 'internal'
        # needs a server bug, 'not_ready' needs a full admission
        # queue or a shut-down engine (tests/test_resilience.py).
        "engine_saturated", "deadline_exceeded", "cancelled",
        "internal", "not_found", "not_ready",
    }
    # 'not_found' IS exercised; keep the allowlist honest.
    if "not_found" in exercised:
        undriven.discard("not_found")
    else:
        problems.append("probe set no longer exercises 'not_found'")
    for code in sorted(undriven):
        problems.append("documented code {!r} has no live probe"
                        .format(code))
    return problems


def main(argv):
    all_problems = []
    exercised = set()
    for kind in ("sync", "async"):
        server, base = boot(kind)
        try:
            problems, codes = check_server(server, base, kind)
        finally:
            server.shutdown()
        all_problems.extend(problems)
        exercised |= codes
    all_problems.extend(check_docs(exercised))
    for problem in all_problems:
        print("API: {}".format(problem))
    if all_problems:
        print("{} API contract problem(s)".format(len(all_problems)))
        return 1
    print("api ok: envelope + {} error codes validated on both "
          "front-ends; docs/API.md in sync".format(len(exercised)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
