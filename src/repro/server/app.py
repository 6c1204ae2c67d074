"""The threaded server: the ``/v1`` API over ``ThreadingHTTPServer``.

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
Any other path answers 404 ``not_found``.

Connections stay open: the handler speaks HTTP/1.1, so a client's
persistent connection keeps its socket and its handler thread across
requests, and Nagle's algorithm is off, so a response's header and
body writes leave at once instead of waiting out the peer's delayed
ACK.  Every request body is read before it is answered, whatever the
answer, so the next request on the socket starts where it should.

The server is threaded, but algorithm work does not run on handler
threads: searches, detections and comparisons are submitted to the
explorer's :class:`~repro.engine.executor.QueryEngine` -- a bounded
worker pool with an admission-controlled queue -- and the handler
thread blocks in :meth:`~repro.engine.executor.QueryEngine.wait` for
the job's future.  A full queue rejects immediately with **429**
``engine_saturated``; a query exceeding the server deadline returns
**504** ``deadline_exceeded``.  Cache hits short-circuit the queue
entirely, and concurrent identical misses share one computation (the
engine's single-flight miss path).
"""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.explorer.cexplorer import CExplorer
from repro.server.routes import (
    ApiError,
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
)
from repro.server.state import ServerState


class CExplorerServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to a shared :class:`ServerState`
    (``server.state``: the explorer, its engine, the sessions and the
    request counters)."""

    daemon_threads = True
    # A kept-alive connection's thread idles in a read until its client
    # hangs up; closing the server must not wait for that.
    block_on_close = False

    def __init__(self, address, explorer, query_timeout=30.0):
        self.state = ServerState(explorer, query_timeout=query_timeout)
        super().__init__(address, _Handler)


def make_server(explorer=None, host="127.0.0.1", port=8080,
                query_timeout=30.0, batch_window=None):
    """Create (not start) a :class:`CExplorerServer`.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``.  Worker-pool sizing belongs to the
    explorer (``CExplorer(workers=..., max_queue=...)``).

    ``batch_window`` accepts only ``None``: concurrent identical
    searches already share one computation on the default path, so
    there is no admission window to set.  The keyword stays because
    the end-to-end benchmark's launcher passes ``batch_window=None``
    on every run; any other value raises :class:`ValueError`.
    """
    if batch_window is not None:
        raise ValueError("batch_window is not supported (concurrent "
                         "identical searches already share one "
                         "computation); pass None")
    if explorer is None:
        explorer = CExplorer()
    return CExplorerServer((host, port), explorer,
                           query_timeout=query_timeout)


class _Handler(BaseHTTPRequestHandler):
    """Binds the shared route table to the threading transport."""

    protocol_version = "HTTP/1.1"
    # Required with keep-alive: the header and body writes are two
    # sends, and Nagle would hold the body until the client's delayed
    # ACK (~40 ms) for the header arrives.
    disable_nagle_algorithm = True

    # Silence per-request logging; the demo prints its own status line.
    def log_message(self, fmt, *args):
        pass

    def _send(self, status, body, content_type="application/json"):
        body = (body if isinstance(body, bytes)
                else json.dumps(body).encode("utf-8"))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self):
        """The raw request body, read whatever the route, so the next
        request on the connection starts after it.  A
        ``Content-Length`` that cannot be read past closes the
        connection after the 400."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ApiError("bad_request", "invalid Content-Length")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method):
        state = self.server.state
        path, query = parse_query_string(self.path)
        matched = match_route(method, path)
        state.count_request(matched[0].template if matched
                            else UNKNOWN_ROUTE)
        try:
            raw = self._read_body()
            if matched is None:
                raise not_found_error(path)
            route, params = matched
            body = parse_json_body(raw) if method == "POST" else {}
            request = Request(method, path, params=params, query=query,
                              body=body)
            outcome = route.handler(state, request)
            if isinstance(outcome, Pending):
                outcome = outcome.finish(state.engine.wait(
                    outcome.future, state.query_timeout))
            if isinstance(outcome, Raw):
                self._send(200, outcome.body,
                           content_type=outcome.content_type)
                return
            response = (outcome if isinstance(outcome, Response)
                        else Response(outcome))
            self._send(200, render_success(response))
        except Exception as exc:  # defensive: never kill the connection
            state.count_error()
            self._send(*render_error(exc))

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")
