"""The synchronous server: the ``/v1`` API over ``ThreadingHTTPServer``.

The HTTP surface is defined once, declaratively, in
:mod:`repro.server.routes` and shared with the asyncio front-end
(:mod:`repro.server.async_app`); this module only binds it to the
stdlib threading transport.  Per route (all JSON; POST bodies are
JSON documents):

==============================  =======================================
``GET  /``                      the HTML client page
``GET  /metrics``               Prometheus text exposition (unversioned)
``GET  /v1/algorithms``         registered CS/CD algorithm names
``GET  /v1/graphs``             uploaded graph names + sizes
``GET  /v1/graphs/{name}``      one graph + its index state (404
                                ``graph_not_found`` otherwise)
``POST /v1/upload``             ``{"path", "name"}`` -> load a graph file
``POST /v1/options``            ``{"vertex"}`` -> degree choices + keywords
``POST /v1/search``             ``{"vertex", "k", "algorithm", "keywords"}``
``POST /v1/detect``             ``{"algorithm", "params"}``
``POST /v1/display``            search params + ``"community"`` index
``POST /v1/profile``            ``{"vertex"}`` -> Figure 2 profile card
``POST /v1/compare``            ``{"vertex", "k", "methods"}`` -> Figure 6
``POST /v1/suggest``            ``{"prefix", "limit"}`` -> autocompletion
``GET  /v1/stats``              whole-graph statistics
``POST /v1/history``            ``{"session": id}`` -> the query trail
``GET  /v1/metrics``            operational metrics (JSON)
``GET  /v1/traces``             recent query traces (``?limit=N``)
``GET  /v1/traces/{query_id}``  one full trace: that query's span tree
==============================  =======================================

Every ``/v1`` response wears the uniform envelope ``{"ok", "data",
"error"}`` (plus ``"trace"`` when the request was traced); errors
carry stable machine-readable codes (``engine_saturated``,
``deadline_exceeded``, ``graph_not_found``, ...) -- see
``docs/API.md`` for the full contract, which
``scripts/check_api_schema.py`` validates against a live server in CI.

**Legacy shim:** every pre-``/v1`` ``/api/*`` path keeps working --
same handlers, the historical bare-document body shape, plus a
``Deprecation: true`` header and a ``Link`` to the ``/v1`` successor.
New clients should use ``/v1``.

The server is threaded, but algorithm work does not run on handler
threads: searches, detections and comparisons are submitted to the
explorer's :class:`~repro.engine.executor.QueryEngine` -- a bounded
worker pool with an admission-controlled queue.  A full queue rejects
immediately with **429** ``engine_saturated``; a query exceeding the
server deadline returns **504** ``deadline_exceeded``.  Cache hits
short-circuit the queue entirely.  ``make_server(...,
batch_window=...)`` additionally coalesces concurrent searches
through the cross-query :class:`~repro.engine.batching.QueryBatcher`
(the asyncio front-end enables this by default).
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.explorer.cexplorer import CExplorer
from repro.server.routes import (
    Pending,
    Raw,
    Request,
    Response,
    UNKNOWN_ROUTE,
    match_route,
    not_found_error,
    parse_json_body,
    parse_query_string,
    render_error,
    render_success,
    wait_sync,
)
from repro.server.state import ServerState


class CExplorerServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a shared :class:`ServerState`.

    The state attributes (``explorer``, ``engine``, ``sessions``,
    ``request_counts``, ...) stay addressable on the server object --
    the embedding API this class has always had.
    """

    daemon_threads = True

    def __init__(self, address, explorer, query_timeout=30.0,
                 batch_window=None):
        self.state = ServerState(explorer, query_timeout=query_timeout,
                                 batch_window=batch_window)
        super().__init__(address, _Handler)

    # -- the historical embedding surface, delegated to the state ------
    @property
    def explorer(self):
        """The :class:`CExplorer` being served."""
        return self.state.explorer

    @property
    def engine(self):
        """The explorer's :class:`QueryEngine`."""
        return self.state.engine

    @property
    def query_timeout(self):
        """The per-query server deadline, in seconds."""
        return self.state.query_timeout

    @property
    def sessions(self):
        """The server's session store."""
        return self.state.sessions

    @property
    def started_at(self):
        """Wall-clock time the server state was created."""
        return self.state.started_at

    @property
    def request_counts(self):
        """Request counters by route template."""
        return self.state.request_counts

    @property
    def error_count(self):
        """How many requests ended in an error body."""
        return self.state.error_count

    @property
    def write_lock(self):
        """The lock graph mutations are applied under."""
        return self.state.write_lock

    def metrics(self):
        """The ``/v1/metrics`` document (see
        :meth:`ServerState.metrics`)."""
        return self.state.metrics()

    def submit(self, fn, *args, **kwargs):
        """Run ``fn`` on the engine's worker pool, blocking the
        calling thread (cheap: it only waits) until the result or the
        server deadline."""
        kwargs.setdefault("timeout", self.state.query_timeout)
        return self.state.engine.execute(fn, *args, **kwargs)

    def server_close(self):
        """Close the server state (engine included), then the socket."""
        self.state.close()
        super().server_close()


def make_server(explorer=None, host="127.0.0.1", port=8080,
                query_timeout=30.0, batch_window=None):
    """Create (not start) a :class:`CExplorerServer`.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``.  Worker-pool sizing belongs to the
    explorer (``CExplorer(workers=..., max_queue=...)``).
    ``batch_window`` (seconds) enables cross-query batching for
    ``/v1/search`` / ``/v1/display``: concurrent queries arriving
    within the window are deduplicated and QIG-grouped before hitting
    the engine (``None`` = off, the historical behaviour).
    """
    if explorer is None:
        explorer = CExplorer()
    return CExplorerServer((host, port), explorer,
                           query_timeout=query_timeout,
                           batch_window=batch_window)


class _Handler(BaseHTTPRequestHandler):
    """Binds the shared route table to the threading transport."""

    # Silence per-request logging; the demo prints its own status line.
    def log_message(self, fmt, *args):
        pass

    def _send(self, status, body, content_type="application/json",
              headers=()):
        body = (body if isinstance(body, bytes)
                else json.dumps(body).encode("utf-8"))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method):
        state = self.server.state
        path, query = parse_query_string(self.path)
        matched = match_route(method, path)
        if matched is None:
            state.count_request(UNKNOWN_ROUTE)
            state.count_error()
            legacy = not path.startswith("/v1")
            status, body = render_error(not_found_error(path), legacy)
            self._send(status, body)
            return
        route, params = matched
        state.count_request(route.template)
        try:
            body = {}
            if method == "POST":
                length = int(self.headers.get("Content-Length") or 0)
                body = parse_json_body(self.rfile.read(length)
                                       if length else b"")
            request = Request(method, path, params=params, query=query,
                              body=body)
            outcome = route.handler(state, request)
            if isinstance(outcome, Pending):
                outcome = wait_sync(state, outcome)
            if isinstance(outcome, Raw):
                self._send(200, outcome.body,
                           content_type=outcome.content_type,
                           headers=route.headers())
                return
            response = (outcome if isinstance(outcome, Response)
                        else Response(outcome))
            self._send(200, render_success(route, response),
                       headers=route.headers())
        except Exception as exc:  # defensive: never kill the connection
            state.count_error()
            status, doc = render_error(exc, route.legacy)
            self._send(status, doc, headers=route.headers())

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")
