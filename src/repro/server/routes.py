"""The versioned HTTP API: one declarative route table, two servers.

This module defines the serving surface as a **versioned API** both
front-ends share:

* a declarative :data:`ROUTES` table -- method + path template
  (``/v1/traces/{query_id}``) + handler -- consumed by the sync
  :mod:`~repro.server.app` and the async
  :mod:`~repro.server.async_app` alike, so the two servers cannot
  drift;
* a uniform **response envelope** on every ``/v1`` route::

      {"ok": true,  "data": ...,  "error": null}            # success
      {"ok": false, "data": null,
       "error": {"code": "...", "message": "..."}}          # failure

  plus ``"trace": <query id>`` at the top level when the request was
  traced, and ``"retry": true`` inside ``error`` when the client
  should back off and retry (``engine_saturated``);
* stable machine-readable **error codes** (:data:`ERROR_CODES`)
  instead of mixed 4xx bodies -- ``graph_not_found``,
  ``engine_saturated``, ``deadline_exceeded``, ... -- each with a
  fixed HTTP status, documented in ``docs/API.md`` and validated
  against a live server by ``scripts/check_api_schema.py``.

Handlers are transport-agnostic: they take ``(state, request)`` --
:class:`~repro.server.state.ServerState` plus a parsed
:class:`Request` -- and return plain data (or an :class:`Encoded`
document: data already rendered as JSON text), a :class:`Response`, a
:class:`Raw` byte body, or a :class:`Pending` wrapping an
:class:`~repro.engine.executor.EngineFuture`.  How a ``Pending`` is
awaited is the *only* per-server decision: the sync server blocks its
handler thread (:func:`wait_sync`), the async server polls the future
from the event loop.
"""

import inspect
import json
import time
from urllib.parse import parse_qs

from repro.algorithms.registry import get_cd_algorithm
from repro.analysis.comparison import DEFAULT_METHODS
from repro.engine.tracing import render_prometheus
from repro.server.html import INDEX_HTML
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    QueryCancelledError,
    QueryError,
    QueryTimeoutError,
    UnknownAlgorithmError,
    UnknownVertexError,
)
from repro.viz.render import render_svg

API_VERSION = "v1"

# The request-counter bucket for paths matching no route: one constant
# key, so probe traffic (or a client fat-fingering trace ids) cannot
# grow ``request_counts`` without bound.
UNKNOWN_ROUTE = "(unknown)"

# code -> (HTTP status, human description).  The contract surface:
# docs/API.md documents these and scripts/check_api_schema.py checks a
# live server only ever emits codes from this table with the status
# registered here.
ERROR_CODES = {
    "bad_request": (400, "the request was malformed or referenced "
                         "unknown state"),
    "invalid_json": (400, "the request body was not a JSON object"),
    "missing_field": (400, "a required request field was absent"),
    "invalid_parameter": (400, "a request field had the wrong type or "
                               "an out-of-range value"),
    "invalid_query": (400, "the query referenced an unknown vertex or "
                           "had invalid parameters"),
    "unknown_algorithm": (400, "the algorithm name is not registered"),
    "not_found": (404, "no route matches the requested path"),
    "graph_not_found": (404, "no graph is registered under that name"),
    "trace_not_found": (404, "the trace id is not in the ring buffer"),
    "session_not_found": (404, "the session id is unknown"),
    "engine_saturated": (429, "admission control rejected the query; "
                              "back off and retry"),
    "not_ready": (503, "the server is not ready to accept queries; "
                       "retry after a backoff"),
    "cancelled": (503, "the query was cancelled before it ran"),
    "deadline_exceeded": (504, "the query missed the server deadline"),
    "internal": (500, "unexpected server-side failure"),
}


class ApiError(CExplorerError):
    """An error with a stable wire code."""

    def __init__(self, code, message):
        super().__init__(message)
        if code not in ERROR_CODES:
            raise ValueError("unregistered error code {!r}".format(code))
        self.code = code
        self.status = ERROR_CODES[code][0]


def translate_error(exc):
    """Map any exception to ``(status, code, message, retry)`` -- the
    one place wire semantics are assigned."""
    if isinstance(exc, ApiError):
        return exc.status, exc.code, str(exc), False
    if isinstance(exc, EngineBusyError):
        return 429, "engine_saturated", str(exc), True
    if isinstance(exc, QueryTimeoutError):
        return 504, "deadline_exceeded", str(exc), False
    if isinstance(exc, QueryCancelledError):
        return 503, "cancelled", str(exc), False
    if isinstance(exc, UnknownAlgorithmError):
        return 400, "unknown_algorithm", str(exc), False
    if isinstance(exc, (QueryError, UnknownVertexError)):
        return 400, "invalid_query", str(exc), False
    if isinstance(exc, CExplorerError):
        return 400, "bad_request", str(exc), False
    return 500, "internal", "internal error: {}".format(exc), False


# ----------------------------------------------------------------------
# request / response shapes
# ----------------------------------------------------------------------

class Request:
    """One parsed HTTP request, transport-independent."""

    __slots__ = ("method", "path", "params", "query", "body")

    def __init__(self, method, path, params=None, query=None, body=None):
        self.method = method
        self.path = path
        self.params = params or {}
        self.query = query or {}
        self.body = body if body is not None else {}

    def int_query(self, key, default):
        """An integer query-string parameter under ``as_int``'s rule:
        ``default`` when absent, a 400 when malformed."""
        values = self.query.get(key)
        return as_int(values[0] if values else None, key, default)


class Response:
    """A handler's success payload plus its optional trace id."""

    __slots__ = ("data", "trace")

    def __init__(self, data, trace=None):
        self.data = data
        self.trace = trace


class Raw:
    """A non-JSON response body (the HTML page, Prometheus text)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body, content_type):
        self.body = body
        self.content_type = content_type


class Encoded:
    """A data document already encoded as JSON text.

    ``/v1/search`` builds its document from the communities'
    pre-encoded fragments (:meth:`Community.to_json
    <repro.core.community.Community.to_json>`);
    :func:`render_success` splices the text into the envelope instead
    of re-encoding a dict.
    """

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


class Pending:
    """A handler outcome still executing on the engine.

    ``future`` is the :class:`~repro.engine.executor.EngineFuture` to
    await (each server its own way), ``finish(result)`` builds the
    final data/:class:`Response` once it resolves, ``timeout`` is the
    wait budget (``None`` -> the server's ``query_timeout``).
    """

    __slots__ = ("future", "finish", "timeout")

    def __init__(self, future, finish, timeout=None):
        self.future = future
        self.finish = finish
        self.timeout = timeout


def wait_sync(state, pending):
    """Block on a :class:`Pending` with deadline enforcement: the
    sync server's awaiter.  A timed-out future is cancelled (a queued
    job is dropped without running) and counted."""
    timeout = pending.timeout if pending.timeout is not None \
        else state.query_timeout
    try:
        result = pending.future.result(timeout)
    except QueryTimeoutError:
        pending.future.cancel()
        state.engine.stats.count("timeouts")
        raise
    return pending.finish(result)


# ----------------------------------------------------------------------
# body / parameter helpers
# ----------------------------------------------------------------------

def parse_json_body(raw):
    """Decode a request body into a JSON object (``{}`` when empty)."""
    if not raw:
        return {}
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ApiError("invalid_json",
                       "request body is not valid JSON") from None
    if not isinstance(doc, dict):
        raise ApiError("invalid_json",
                       "request body must be a JSON object")
    return doc


def parse_query_string(path_and_query):
    """Split a request target into ``(path, query dict)``; the path is
    normalised (trailing slash stripped, bare ``/`` preserved)."""
    if "?" in path_and_query:
        path, _, raw = path_and_query.partition("?")
        query = parse_qs(raw)
    else:
        path, query = path_and_query, {}
    return path.rstrip("/") or "/", query


def need(body, key):
    """A required request field."""
    value = body.get(key)
    if value is None:
        raise ApiError("missing_field",
                       "missing required field {!r}".format(key))
    return value


def as_int(value, name, default=None):
    """One integer request field with a typed error.

    ``null`` means absent, so ``default`` applies (as ``as_strings``
    reads ``keywords: null``); an integer or an integer string is
    accepted; anything else, a bool or a float included, is a 400
    rather than silently truncated.
    """
    if value is None:
        return default
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ApiError("invalid_parameter",
                   "{!r} must be an integer".format(name))


def as_strings(value, name, nonempty=False):
    """A list-of-strings request field (``None`` when absent) with a
    typed error: a bare string would otherwise be read as its
    characters."""
    if value is None:
        return None
    if (not isinstance(value, list)
            or not all(isinstance(item, str) for item in value)
            or (nonempty and not value)):
        raise ApiError("invalid_parameter",
                       "{!r} must be a {}list of strings".format(
                           name, "non-empty " if nonempty else ""))
    return value


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------

def _graph_doc(explorer, name):
    graph = explorer.indexes.graph(name)
    return {"name": name, "vertices": graph.vertex_count,
            "edges": graph.edge_count}


def h_index_page(state, req):
    """``GET /``: the built-in HTML client page."""
    return Raw(INDEX_HTML.encode("utf-8"), "text/html; charset=utf-8")


def h_prometheus(state, req):
    """``GET /metrics``: the Prometheus text exposition."""
    text = render_prometheus(state.metrics())
    return Raw(text.encode("utf-8"),
               "text/plain; version=0.0.4; charset=utf-8")


def h_algorithms(state, req):
    """``GET /v1/algorithms``: registered CS/CD algorithm names."""
    return state.explorer.available_algorithms()


def h_graphs(state, req):
    """``GET /v1/graphs``: every uploaded graph with its size."""
    explorer = state.explorer
    return {"graphs": [_graph_doc(explorer, name)
                       for name in explorer.graph_names()]}


def h_graph(state, req):
    """``GET /v1/graphs/{name}``: one graph plus its index state."""
    explorer = state.explorer
    name = req.params["name"]
    if name not in explorer.graph_names():
        raise ApiError("graph_not_found",
                       "no graph named {!r} uploaded".format(name))
    doc = _graph_doc(explorer, name)
    doc["index"] = explorer.indexes.stats(name)
    return doc


def h_stats(state, req):
    """``GET /v1/stats``: whole-graph statistics of the active graph."""
    return state.explorer.summary()


def h_metrics(state, req):
    """``GET /v1/metrics``: the operational metrics document."""
    return state.metrics()


def h_health(state, req):
    """Liveness: answers 200 whenever the process can serve at all."""
    return {
        "status": "ok",
        "uptime_seconds": round(time.time() - state.started_at, 3),
        "backend": state.engine.backend,
    }


def h_ready(state, req):
    """Readiness: 200 only when a query submitted right now would be
    admitted; 503 ``not_ready`` when the engine is shut down or the
    admission queue is at its ceiling (a load balancer should route
    elsewhere and retry)."""
    engine = state.engine
    if not engine.accepting:
        raise ApiError("not_ready",
                       "engine is not accepting queries "
                       "(queue {}/{})".format(engine.queue_depth,
                                              engine.max_queue))
    return {
        "ready": True,
        "queue_depth": engine.queue_depth,
        "max_queue": engine.max_queue,
    }


def h_traces(state, req):
    """``GET /v1/traces``: recent and slow query-trace summaries."""
    tracer = state.engine.tracer
    limit = req.int_query("limit", 50)
    return {
        "traces": [t.summary() for t in tracer.traces(limit=limit)],
        "slow": [t.summary()
                 for t in tracer.traces(limit=limit, slow=True)],
        "stats": tracer.stats(),
    }


def h_trace(state, req):
    """``GET /v1/traces/{query_id}``: one trace's full span tree."""
    query_id = req.params["query_id"]
    trace = state.engine.tracer.get(query_id)
    if trace is None:
        raise ApiError("trace_not_found",
                       "no trace {!r} in the ring buffer"
                       .format(query_id))
    return trace.to_dict()


def h_upload(state, req):
    """``POST /v1/upload``: load a graph file and select it."""
    body = req.body
    path = body.get("path")
    if not path:
        raise ApiError("missing_field", "upload needs a 'path'")
    explorer = state.explorer
    try:
        with state.write_lock:
            name = explorer.upload(path, name=body.get("name"))
    except OSError as exc:
        # A client-supplied path the server cannot read is the
        # client's error, not an internal one.
        raise ApiError("bad_request",
                       "cannot read graph file: {}".format(exc)) \
            from None
    return _graph_doc(explorer, name)


def h_options(state, req):
    """``POST /v1/options``: degree choices and keywords of a vertex."""
    return state.explorer.query_options(need(req.body, "vertex"))


def _search_pending(state, req, finish_data):
    """Submit the request's search and defer ``finish_data``.

    The shared front half of ``search`` and ``display``: parse, submit
    through the state's search path (the engine's plan/cache path),
    and build the query echo document.  ``finish_data(communities,
    query)`` produces the route-specific payload once the future
    resolves; the request-level span and trace id are attached here,
    identically for both.
    """
    body = req.body
    vertex = need(body, "vertex")
    k = as_int(body.get("k"), "k", 4)
    algorithm = body.get("algorithm", "acq")
    keywords = as_strings(body.get("keywords"), "keywords")
    started = time.time()
    start = time.perf_counter()
    future = state.submit_search(algorithm, vertex, k=k,
                                 keywords=keywords)
    query = {"vertex": vertex, "k": k, "algorithm": algorithm,
             "keywords": keywords}

    def finish(communities):
        trace = future.trace
        if trace is not None:
            # End-to-end as the handler saw it: a top-level sibling
            # of the engine's own spans, so queue + execute + the
            # request envelope stay separable in the waterfall.
            trace.add_span("request", time.perf_counter() - start,
                           start=started, parent=None,
                           tags={"path": req.path})
            query["trace"] = trace.query_id
        return Response(finish_data(communities, query),
                        trace=query.get("trace"))

    return Pending(future, finish)


def h_search(state, req):
    """``POST /v1/search``: run (or fetch the cached answer of) a CS
    query and record it in the session.

    The data document is built as text: the communities contribute
    their pre-encoded fragments, so a cache hit on a large answer
    re-derives and re-encodes nothing.
    """
    body = req.body

    def finish_data(communities, query):
        session_id = body.get("session")
        if session_id:
            session = state.sessions.get(str(session_id))
        else:
            session = state.sessions.create()
        session.record(query["algorithm"], str(query["vertex"]),
                       query["k"], len(communities),
                       keywords=query["keywords"])
        head = json.dumps({"session": session.session_id,
                           "query": query})
        return Encoded('{}, "communities": [{}]}}'.format(
            head[:-1], ", ".join(c.to_json() for c in communities)))

    return _search_pending(state, req, finish_data)


def h_display(state, req):
    """``POST /v1/display``: search, then lay out and render one
    community of the answer."""
    body = req.body

    def finish_data(communities, query):
        idx = as_int(body.get("community"), "community", 0)
        if not 0 <= idx < len(communities):
            raise ApiError("invalid_parameter",
                           "community index {} out of range (have {})"
                           .format(idx, len(communities)))
        community = communities[idx]
        layout = state.explorer.display(
            community, fmt="positions",
            layout=body.get("layout", "ego"))
        svg = render_svg(community, layout=layout)
        from repro.analysis.themes import theme_of
        return {
            "query": query,
            "community": community.to_dict(),
            "theme": theme_of(community),
            "positions": {str(v): [round(x, 4), round(y, 4)]
                          for v, (x, y) in layout.items()},
            "svg": svg,
        }

    return _search_pending(state, req, finish_data)


def _detect_params(algorithm, params):
    """Check a ``/v1/detect`` ``params`` object against the keywords
    the registered CD function of ``algorithm`` takes after the
    graph."""
    if not isinstance(params, dict):
        raise ApiError("invalid_parameter",
                       "'params' must be a JSON object")
    func = get_cd_algorithm(algorithm).func
    taken = list(inspect.signature(func).parameters.values())[1:]
    if any(p.kind is p.VAR_KEYWORD for p in taken):
        return
    unknown = sorted(set(params) - {
        p.name for p in taken
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)})
    if unknown:
        raise ApiError("invalid_parameter",
                       "{} takes no parameter(s) {}".format(
                           algorithm, ", ".join(map(repr, unknown))))


def h_detect(state, req):
    """``POST /v1/detect``: run a CD algorithm on the active graph.

    ``params`` go to the algorithm alone: they never reach
    :meth:`~repro.engine.executor.QueryEngine.submit`'s own keywords.
    """
    body = req.body
    algorithm = body.get("algorithm", "codicil")
    params = body.get("params")
    if params is None:
        params = {}
    _detect_params(algorithm, params)
    explorer = state.explorer
    future = state.engine.submit(
        lambda: explorer.detect(algorithm, **params),
        op="detect", timeout=state.query_timeout)

    def finish(communities):
        return {
            "algorithm": algorithm,
            "count": len(communities),
            "communities": [c.to_dict() for c in communities[:50]],
        }

    return Pending(future, finish)


def h_profile(state, req):
    """``POST /v1/profile``: the Figure 2 author-profile card."""
    return state.explorer.profile(need(req.body, "vertex")).to_dict()


def h_compare(state, req):
    """``POST /v1/compare``: the Figure 6 comparison report, one
    search per method on the compare's worker (see
    :meth:`~repro.explorer.cexplorer.CExplorer.compare`)."""
    body = req.body
    vertex = need(body, "vertex")
    k = as_int(body.get("k"), "k", 4)
    methods = as_strings(body.get("methods"), "methods", nonempty=True)
    keywords = as_strings(body.get("keywords"), "keywords")
    engine = state.engine
    trace = engine.tracer.begin("compare", vertex=str(vertex), k=k)
    future = engine.submit(state.explorer.compare, vertex, k=k,
                           methods=tuple(methods or DEFAULT_METHODS),
                           keywords=keywords, op="compare",
                           timeout=state.query_timeout, trace=trace)

    def finish(report):
        doc = report.to_dict()
        if body.get("charts", True):
            from repro.viz.charts import render_quality_charts
            doc["charts"] = render_quality_charts(report)
        return Response(doc, trace=None if trace is None
                        else trace.query_id)

    return Pending(future, finish)


def h_suggest(state, req):
    """``POST /v1/suggest``: name autocompletion for the query box."""
    body = req.body
    prefix = str(body.get("prefix", ""))
    limit = as_int(body.get("limit"), "limit", 10)
    return {
        "prefix": prefix,
        "names": state.explorer.suggest_names(prefix, limit=limit),
    }


def h_history(state, req):
    """``POST /v1/history``: a session's query trail."""
    body = req.body
    session_id = str(need(body, "session"))
    session = state.sessions.get(session_id, create_missing=False)
    if session is None:
        raise ApiError("session_not_found",
                       "unknown session {!r}".format(session_id))
    return {
        "session": session_id,
        "history": session.history(
            limit=as_int(body.get("limit"), "limit")),
    }


# ----------------------------------------------------------------------
# the route table
# ----------------------------------------------------------------------

class Route:
    """One registered route: a method + path template + handler.

    ``template`` segments of the form ``{name}`` capture one path
    segment into ``request.params``.  The template doubles as the
    request-counter key, so parameterised paths aggregate under one
    stable bucket instead of one bucket per id.  ``blocking`` marks
    handlers that may do real work on the calling thread (file I/O,
    lazy index/summary builds, layout rendering) -- the async server
    runs those in its executor instead of on the event loop.
    """

    __slots__ = ("method", "template", "handler", "segments",
                 "blocking", "raw")

    def __init__(self, method, template, handler, blocking=False,
                 raw=False):
        self.method = method
        self.template = template
        self.handler = handler
        self.segments = tuple(template.strip("/").split("/")) \
            if template != "/" else ()
        self.blocking = blocking
        self.raw = raw

    def match(self, method, segments):
        """``request.params`` when this route matches, else ``None``."""
        if method != self.method or len(segments) != len(self.segments):
            return None
        params = {}
        for pattern, value in zip(self.segments, segments):
            if pattern.startswith("{") and pattern.endswith("}"):
                params[pattern[1:-1]] = value
            elif pattern != value:
                return None
        return params


# (method, /v1 template, handler, opts)
_SPECS = (
    ("GET", "/v1/algorithms", h_algorithms, {}),
    ("GET", "/v1/graphs", h_graphs, {}),
    ("GET", "/v1/graphs/{name}", h_graph, {}),
    ("GET", "/v1/stats", h_stats, {"blocking": True}),
    ("GET", "/v1/metrics", h_metrics, {}),
    ("GET", "/v1/health", h_health, {}),
    ("GET", "/v1/ready", h_ready, {}),
    ("GET", "/v1/traces", h_traces, {}),
    ("GET", "/v1/traces/{query_id}", h_trace, {}),
    ("POST", "/v1/upload", h_upload, {"blocking": True}),
    ("POST", "/v1/options", h_options, {"blocking": True}),
    ("POST", "/v1/search", h_search, {}),
    ("POST", "/v1/detect", h_detect, {}),
    ("POST", "/v1/display", h_display, {"blocking": True}),
    ("POST", "/v1/profile", h_profile, {}),
    ("POST", "/v1/compare", h_compare, {"blocking": True}),
    ("POST", "/v1/suggest", h_suggest, {}),
    ("POST", "/v1/history", h_history, {}),
)


def _build_routes():
    routes = [
        Route("GET", "/", h_index_page, raw=True),
        Route("GET", "/metrics", h_prometheus, raw=True),
    ]
    for method, template, handler, opts in _SPECS:
        routes.append(Route(method, template, handler, **opts))
    return tuple(routes)


ROUTES = _build_routes()


def v1_routes():
    """The ``/v1`` contract surface (what docs/API.md documents)."""
    return [r for r in ROUTES if r.template.startswith("/v1/")]


def match_route(method, path):
    """``(route, params)`` for the first matching route, or ``None``."""
    segments = tuple(path.strip("/").split("/")) if path != "/" else ()
    for route in ROUTES:
        params = route.match(method, segments)
        if params is not None:
            return route, params
    return None


# ----------------------------------------------------------------------
# response rendering
# ----------------------------------------------------------------------

def render_success(response):
    """The success envelope.  An :class:`Encoded` document comes back
    as the finished ``bytes`` (same text ``json.dumps`` of the
    equivalent dict gives), anything else as the dict to encode.
    """
    data = response.data
    tail = {"error": None}
    if response.trace is not None:
        tail["trace"] = response.trace
    if not isinstance(data, Encoded):
        return {"ok": True, "data": data, **tail}
    return '{{"ok": true, "data": {}, {}'.format(
        data.text, json.dumps(tail)[1:]).encode("utf-8")


def render_error(exc):
    """``(status, body)``: the error envelope for any exception."""
    status, code, message, retry = translate_error(exc)
    error = {"code": code, "message": message}
    if retry:
        error["retry"] = True
    return status, {"ok": False, "data": None, "error": error}


def not_found_error(path):
    """The unmatched-path error."""
    return ApiError("not_found", "no such endpoint: " + path)
