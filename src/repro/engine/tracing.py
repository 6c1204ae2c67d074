"""End-to-end query tracing: one structured trace per query.

The engine's :class:`~repro.engine.stats.EngineStats` histograms say
how the *population* of queries behaves; they cannot say where one
slow query spent its time.  After PRs 1-5 a query crosses a planner,
an admission queue, payload freeze/pickle, a process-pool IPC hop
and worker execution -- this module
makes each of those phases attributable per query, which is the
measurement substrate the ROADMAP's adaptive-execution item needs:

* :class:`Span` -- one named, timed phase (``plan``, ``queue_wait``,
  ``cache_lookup``, ``payload_freeze``, ``payload_pickle``,
  ``shard_ipc`` (a job's transport cost), per-job ``worker_execute``,
  ``cache_store``, ...) with free-form tags and a parent link, so
  traces render as a waterfall;
* :class:`QueryTrace` -- one query's span tree plus identity tags
  (graph, algorithm, k), thread-safe, JSON-friendly via
  :meth:`QueryTrace.to_dict`;
* :class:`TraceRecorder` -- a bounded ring buffer of finished traces
  plus a slow-query log (configurable threshold), owned by the
  :class:`~repro.engine.executor.QueryEngine` and served by the HTTP
  layer as ``GET /api/traces`` / ``GET /api/traces/<query_id>``;
* **context propagation** -- :func:`activate` binds a trace to the
  current thread; :func:`span` / :func:`add_span` then attach phases
  from any layer (cache, index manager, job pipeline) without threading
  trace objects through every signature.  In a worker *process* no
  trace object exists, so :func:`collect_worker_spans` gathers the
  same spans into a picklable wire list that rides the existing job
  return tuples back to the parent, where
  :meth:`QueryTrace.graft` re-attaches them under that job's
  ``worker_execute`` span;
* :func:`render_prometheus` -- the ``GET /metrics`` text exposition,
  rendered from the ``/api/metrics`` document (the log-scale latency
  buckets :class:`~repro.engine.stats.LatencyHistogram` has always
  collected, finally exported);
* :func:`format_waterfall` -- the ASCII rendering behind the
  ``repro trace`` CLI subcommand.

Everything here is overhead-conscious: with no trace active,
:func:`current_trace` is one thread-local read and every helper is a
no-op, so the warm-cache fast path stays fast.
"""

import itertools
import logging
import threading
import time
from collections import deque
from contextlib import contextmanager

logger = logging.getLogger("repro.engine.tracing")

_local = threading.local()


def current_trace():
    """The trace bound to this thread, or ``None``."""
    return getattr(_local, "trace", None)


@contextmanager
def activate(trace):
    """Bind ``trace`` to the current thread for the ``with`` body.

    ``activate(None)`` is a no-op, so callers never need to branch.
    The previous binding is restored on exit (traces nest).
    """
    if trace is None:
        yield None
        return
    previous = getattr(_local, "trace", None)
    _local.trace = trace
    try:
        yield trace
    finally:
        _local.trace = previous


class Span:
    """One named, timed phase of a query.

    ``parent`` is the index of the enclosing span within its trace's
    span list (``None`` for top-level spans); ``start`` is wall-clock
    (``time.time()``) so spans recorded in forked worker processes
    line up with parent-side spans on the same host.
    """

    __slots__ = ("name", "start", "seconds", "parent", "tags")

    def __init__(self, name, start, seconds, parent, tags):
        self.name = name
        self.start = start
        self.seconds = seconds
        self.parent = parent
        self.tags = tags

    def to_dict(self):
        """The span as a JSON-friendly dict."""
        doc = {
            "name": self.name,
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
            "parent": self.parent,
        }
        if self.tags:
            doc["tags"] = dict(self.tags)
        return doc


class _WorkerSpanLog:
    """Span accumulator for job functions running without a trace
    object (worker processes, where the trace lives in the parent)."""

    __slots__ = ("spans", "stack")

    def __init__(self):
        self.spans = []
        self.stack = []

    def wire(self):
        """The collected spans as picklable wire tuples
        ``(name, start, seconds, parent, tags)`` -- ``parent`` is an
        index into this same list (``None`` = top level)."""
        return [(s.name, s.start, s.seconds, s.parent, dict(s.tags))
                for s in self.spans]


@contextmanager
def collect_worker_spans():
    """Collect spans recorded by job functions into a wire list.

    Used by the process backend's job wrapper: inside the ``with``
    body every :func:`span` / :func:`add_span` call that finds no
    active trace appends to the yielded log instead of vanishing; the
    log's :meth:`~_WorkerSpanLog.wire` output rides the job's return
    tuple back to the parent.

    Any active trace binding is cleared for the scope: when the pool
    forks its workers *during* a traced query, the child's main
    thread inherits the parent's thread-local trace reference, and
    spans recorded against that dead copy would never reach the
    parent.  Inside a worker the span log is the only valid sink.
    """
    log = _WorkerSpanLog()
    previous = getattr(_local, "worker_log", None)
    previous_trace = getattr(_local, "trace", None)
    _local.worker_log = log
    _local.trace = None
    try:
        yield log
    finally:
        _local.worker_log = previous
        _local.trace = previous_trace


class _NoopSpan:
    """The do-nothing span context (no trace, no worker log).

    A shared singleton instead of a ``contextlib`` generator: the
    no-op path runs on every cache hit, and the generator machinery
    alone costs several microseconds -- real money against a
    microsecond-scale fast path.
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class _LogSpan:
    """Context manager recording one span into a worker span log."""

    __slots__ = ("_log", "_record", "_started")

    def __init__(self, log, name, tags):
        self._log = log
        self._record = Span(name, time.time(), 0.0,
                            log.stack[-1] if log.stack else None, tags)

    def __enter__(self):
        log = self._log
        log.stack.append(len(log.spans))
        log.spans.append(self._record)
        self._started = time.perf_counter()
        return self._record

    def __exit__(self, exc_type, exc, tb):
        self._record.seconds = time.perf_counter() - self._started
        self._log.stack.pop()
        return False


# Fault-injection hook: when a FaultPlan with span-targeted rules is
# active (see repro.engine.faults), every span entry consults it --
# the one seam that lets a test raise "inside" any named phase.  None
# (the default) keeps the hot path to a single global read.
_fault_hook = None


def set_fault_hook(hook):
    """Install (or clear, with ``None``) the span-entry fault hook."""
    global _fault_hook
    _fault_hook = hook


def clear_fault_hook(hook):
    """Uninstall ``hook`` if it is the active one (engines clear only
    their own plan's hook on shutdown)."""
    global _fault_hook
    if _fault_hook is hook:
        _fault_hook = None


def span(name, **tags):
    """Record one phase around the ``with`` body.

    Attaches to the thread's active trace when one exists, to the
    worker span log inside :func:`collect_worker_spans`, and is a
    cheap no-op otherwise.  Yields the :class:`Span` (or ``None``)
    so callers can add result tags (e.g. cache hit/miss).
    """
    if _fault_hook is not None:
        _fault_hook(name)
    trace = current_trace()
    if trace is not None:
        return trace.span(name, **tags)
    log = getattr(_local, "worker_log", None)
    if log is None:
        return _NOOP_SPAN
    return _LogSpan(log, name, tags)


def add_span(name, seconds, start=None, **tags):
    """Attach one already-measured phase to the active context.

    The post-hoc counterpart of :func:`span` for call sites that
    already time themselves (payload builds, fan-out results): no
    nested ``with`` indentation, same destination rules.  Returns the
    created :class:`Span` or ``None`` when nothing is listening.
    """
    trace = current_trace()
    if trace is not None:
        return trace.add_span(name, seconds, start=start, tags=tags)
    log = getattr(_local, "worker_log", None)
    if log is None:
        return None
    parent = log.stack[-1] if log.stack else None
    record = Span(name, time.time() - seconds if start is None
                  else start, seconds, parent, tags)
    log.spans.append(record)
    return record


_ACTIVE = "active"


class QueryTrace:
    """One query's span tree plus identity tags.

    Spans are held as a flat list with parent indices (wire-friendly
    and cheap to append under the lock); :meth:`span` maintains the
    nesting stack for context-manager use, :meth:`add_span` attaches
    already-measured phases, and :meth:`graft` re-parents wire-format
    span lists shipped back from worker processes.
    """

    __slots__ = ("query_id", "op", "tags", "started_at", "status",
                 "seconds", "spans", "_t0", "_stack", "_lock")

    def __init__(self, query_id, op, tags=None):
        self.query_id = query_id
        self.op = op
        self.tags = {k: v for k, v in (tags or {}).items()
                     if v is not None}
        self.started_at = time.time()
        self.status = _ACTIVE
        self.seconds = None
        self.spans = []
        self._t0 = time.perf_counter()
        self._stack = []
        self._lock = threading.Lock()

    def tag(self, **tags):
        """Merge identity tags (``None`` values are dropped)."""
        with self._lock:
            for key, value in tags.items():
                if value is not None:
                    self.tags[key] = value

    def add_span(self, name, seconds, start=None, parent=True,
                 tags=None):
        """Append one measured span; returns its index.

        ``parent=True`` nests under the current :meth:`span` context
        (the common case); pass an explicit index or ``None`` to
        override.  ``start`` defaults to "``seconds`` ago".
        """
        with self._lock:
            if parent is True:
                parent = self._stack[-1] if self._stack else None
            record = Span(
                name,
                time.time() - seconds if start is None else start,
                seconds, parent, dict(tags or {}))
            self.spans.append(record)
            return len(self.spans) - 1

    @contextmanager
    def span(self, name, **tags):
        """Record one phase around the ``with`` body (nestable)."""
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            record = Span(name, time.time(), 0.0, parent, tags)
            index = len(self.spans)
            self.spans.append(record)
            self._stack.append(index)
        started = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - started
            with self._lock:
                if index in self._stack:
                    self._stack.remove(index)

    def graft(self, parent_index, wire_spans):
        """Attach worker-side wire spans under span ``parent_index``.

        ``wire_spans`` is the picklable list a
        :func:`collect_worker_spans` log emitted in the worker; intra-
        list parent indices are preserved, top-level entries become
        children of ``parent_index``.
        """
        if not wire_spans:
            return
        with self._lock:
            offset = len(self.spans)
            for name, start, seconds, parent, tags in wire_spans:
                self.spans.append(Span(
                    name, start, seconds,
                    parent_index if parent is None else offset + parent,
                    tags))

    def finish(self, status="ok"):
        """Seal the trace: set total duration and final status."""
        with self._lock:
            if self.status == _ACTIVE:
                self.seconds = time.perf_counter() - self._t0
                self.status = status

    def summary(self):
        """The one-line listing entry (``GET /api/traces``)."""
        with self._lock:
            return {
                "query_id": self.query_id,
                "op": self.op,
                "status": self.status,
                "started": round(self.started_at, 6),
                "seconds": None if self.seconds is None
                else round(self.seconds, 6),
                "spans": len(self.spans),
                "tags": dict(self.tags),
            }

    def to_dict(self):
        """The full trace document (``GET /api/traces/<query_id>``)."""
        doc = self.summary()
        with self._lock:
            doc["spans"] = [s.to_dict() for s in self.spans]
        return doc


class TraceRecorder:
    """Bounded ring buffer of finished traces + slow-query log.

    Owned by the engine; ``capacity`` bounds memory, ``slow_seconds``
    is the threshold above which a finished trace is also kept in the
    separate slow log (and logged through the stdlib ``logging``
    channel ``repro.engine.tracing``), so one burst of fast traffic
    cannot rotate a pathological query out of the buffer before
    anyone looks at it.  ``enabled=False`` turns the whole subsystem
    into no-ops (:meth:`begin` returns ``None`` and every helper
    short-circuits on that).
    """

    def __init__(self, capacity=256, slow_seconds=1.0, slow_capacity=64,
                 enabled=True):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.slow_seconds = slow_seconds
        self.enabled = enabled
        self._ring = deque(maxlen=capacity)
        self._slow = deque(maxlen=slow_capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.recorded = 0
        self.slow_queries = 0

    def configure(self, capacity=None, slow_seconds=None, enabled=None):
        """Adjust buffer sizing / threshold / enablement in place."""
        with self._lock:
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("capacity must be positive")
                self.capacity = capacity
                self._ring = deque(self._ring, maxlen=capacity)
            if slow_seconds is not None:
                self.slow_seconds = slow_seconds
            if enabled is not None:
                self.enabled = enabled
        return self

    def begin(self, op, **tags):
        """Start one trace (``None`` when tracing is disabled)."""
        if not self.enabled:
            return None
        return QueryTrace("q{}".format(next(self._ids)), op, tags=tags)

    def finish(self, trace, status="ok"):
        """Seal ``trace`` and publish it to the ring buffer.

        Idempotent per trace: only the first call publishes, so a
        cancel racing a completion cannot double-record.
        """
        if trace is None or trace.status != _ACTIVE:
            return
        trace.finish(status)
        with self._lock:
            self._ring.append(trace)
            self.recorded += 1
            if trace.seconds is not None \
                    and trace.seconds >= self.slow_seconds:
                self._slow.append(trace)
                self.slow_queries += 1
                slow = True
            else:
                slow = False
        if slow:
            logger.warning(
                "slow query %s (%s, %.3fs >= %.3fs): %s",
                trace.query_id, trace.op, trace.seconds,
                self.slow_seconds, trace.tags)

    @contextmanager
    def trace(self, op, **tags):
        """Root-trace scope: begin, activate, time, finish.

        When a trace is already active on this thread (the engine
        submitted this work with one attached), it is yielded as-is
        and left for its owner to finish -- so library entry points
        can wrap themselves unconditionally without double-tracing
        the server path.
        """
        existing = current_trace()
        if existing is not None:
            yield existing
            return
        trace = self.begin(op, **tags)
        if trace is None:
            yield None
            return
        status = "ok"
        try:
            with activate(trace), trace.span("execute", op=op):
                yield trace
        except BaseException:
            status = "error"
            raise
        finally:
            self.finish(trace, status)

    def get(self, query_id):
        """The trace with ``query_id``, or ``None`` (ring + slow log)."""
        with self._lock:
            for trace in reversed(self._ring):
                if trace.query_id == query_id:
                    return trace
            for trace in reversed(self._slow):
                if trace.query_id == query_id:
                    return trace
        return None

    def traces(self, limit=None, slow=False):
        """Finished traces, most recent first (summaries are built by
        the caller; this returns the trace objects)."""
        with self._lock:
            source = self._slow if slow else self._ring
            out = list(source)
        out.reverse()
        return out if limit is None else out[:limit]

    def stats(self):
        """Occupancy/threshold counters for the metrics endpoint."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "buffered": len(self._ring),
                "recorded": self.recorded,
                "slow_queries": self.slow_queries,
                "slow_threshold_seconds": self.slow_seconds,
            }


# ----------------------------------------------------------------------
# Prometheus text-format exposition
# ----------------------------------------------------------------------

def _metric_value(value):
    """One sample value in exposition format."""
    if value is None:
        return "0"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _escape_label(value):
    """Escape one label value per the exposition format rules."""
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _labels(pairs):
    """Render a label dict as ``{k="v",...}`` (empty dict -> '')."""
    if not pairs:
        return ""
    body = ",".join('{}="{}"'.format(k, _escape_label(v))
                    for k, v in sorted(pairs.items()))
    return "{" + body + "}"


def _sanitize(name):
    """A metric-name-safe token (label *names* must match
    ``[a-zA-Z_][a-zA-Z0-9_]*`` too)."""
    out = []
    for i, ch in enumerate(str(name)):
        if ch.isascii() and (ch.isalpha() or ch == "_"
                             or (ch.isdigit() and i > 0)):
            out.append(ch)
        else:
            out.append("_")
    return "".join(out) or "_"


class _Exposition:
    """Accumulates HELP/TYPE headers and samples in order."""

    def __init__(self):
        self.lines = []

    def header(self, name, kind, help_text):
        """Emit the ``# HELP`` / ``# TYPE`` pair for ``name``."""
        self.lines.append("# HELP {} {}".format(name, help_text))
        self.lines.append("# TYPE {} {}".format(name, kind))

    def sample(self, name, labels, value):
        """Emit one sample line."""
        self.lines.append("{}{} {}".format(
            name, _labels(labels), _metric_value(value)))

    def text(self):
        """The full exposition body (trailing newline included)."""
        return "\n".join(self.lines) + "\n"


def render_prometheus(metrics_doc, prefix="repro"):
    """Render the ``/api/metrics`` document as Prometheus text format.

    Everything is derived from the JSON metrics document the server
    already builds -- the histograms' log-scale ``buckets`` (exported
    by :meth:`~repro.engine.stats.LatencyHistogram.snapshot`) become
    cumulative ``_bucket`` series with the mandatory ``+Inf`` bound,
    counters become ``_total`` counters, occupancy numbers become
    gauges.  The output parses under the text exposition format
    version 0.0.4 (``scripts/check_metrics_schema.py`` enforces it in
    CI).
    """
    exp = _Exposition()
    engine = metrics_doc.get("engine", {})

    name = prefix + "_uptime_seconds"
    exp.header(name, "gauge", "Server uptime in seconds.")
    exp.sample(name, {}, float(metrics_doc.get("uptime_seconds", 0.0)))

    requests = metrics_doc.get("requests", {})
    name = prefix + "_requests_total"
    exp.header(name, "counter", "HTTP requests served, by path.")
    for path in sorted(requests):
        exp.sample(name, {"path": path}, requests[path])

    name = prefix + "_request_errors_total"
    exp.header(name, "counter", "HTTP requests answered with an error.")
    exp.sample(name, {}, metrics_doc.get("errors", 0))

    counters = engine.get("counters", {})
    name = prefix + "_engine_events_total"
    exp.header(name, "counter",
               "Engine lifecycle events (submitted, completed, ...).")
    for event in sorted(counters):
        exp.sample(name, {"event": _sanitize(event)}, counters[event])

    name = prefix + "_engine_throughput_per_second"
    exp.header(name, "gauge",
               "Completions per second over the recent window.")
    exp.sample(name, {},
               float(engine.get("throughput_recent_per_second",
                                engine.get("throughput_per_second",
                                           0.0))))

    for gauge, help_text in (
            ("queue_depth", "Jobs waiting for an engine worker."),
            ("in_flight", "Jobs currently executing."),
            ("workers", "Engine worker pool size."),
    ):
        name = "{}_engine_{}".format(prefix, gauge)
        exp.header(name, "gauge", help_text)
        exp.sample(name, {}, engine.get(gauge, 0))

    name = prefix + "_latency_seconds"
    exp.header(name, "histogram",
               "Per-operation latency (log-scale buckets).")
    latency = engine.get("latency", {})
    for op in sorted(latency):
        hist = latency[op]
        labels = {"op": _sanitize(op)}
        cumulative = 0
        buckets = hist.get("buckets") or []
        for edge, count in buckets:
            cumulative += count
            bound = "+Inf" if edge is None else "{:g}".format(edge)
            exp.sample(name + "_bucket",
                       dict(labels, le=bound), cumulative)
        if not buckets:
            exp.sample(name + "_bucket", dict(labels, le="+Inf"),
                       hist.get("count", 0))
        exp.sample(name + "_sum", labels,
                   float(hist.get("total_seconds", 0.0)))
        exp.sample(name + "_count", labels, hist.get("count", 0))

    cache = metrics_doc.get("cache") or engine.get("cache") or {}
    for counter, help_text in (
            ("hits", "Result-cache hits."),
            ("misses", "Result-cache misses."),
            ("evictions", "Result-cache capacity evictions."),
            ("invalidations", "Result-cache invalidation evictions."),
    ):
        name = "{}_cache_{}_total".format(prefix, counter)
        exp.header(name, "counter", help_text)
        exp.sample(name, {}, cache.get(counter, 0))
    name = prefix + "_cache_entries"
    exp.header(name, "gauge", "Result-cache occupancy.")
    exp.sample(name, {}, cache.get("entries", 0))
    name = prefix + "_cache_invalidations_by_reason_total"
    exp.header(name, "counter",
               "Result-cache invalidations, by eviction reason.")
    for reason, count in sorted(
            (cache.get("invalidations_by_reason") or {}).items()):
        exp.sample(name, {"reason": _sanitize(reason)}, count)

    resilience = engine.get("resilience") or {}
    name = prefix + "_resilience_events_total"
    exp.header(name, "counter",
               "Resilience events (retries, hedges, quarantines, ...).")
    for event, count in sorted(
            (resilience.get("counters") or {}).items()):
        exp.sample(name, {"event": _sanitize(event)}, count)
    breakers = resilience.get("breakers") or {}
    name = prefix + "_breaker_state"
    exp.header(name, "gauge",
               "Circuit breaker state per substrate "
               "(0=closed, 1=half_open, 2=open).")
    state_codes = {"closed": 0, "half_open": 1, "open": 2}
    for backend in sorted(breakers):
        exp.sample(name, {"backend": _sanitize(backend)},
                   state_codes.get(breakers[backend].get("state"), 0))
    name = prefix + "_breaker_degraded_seconds_total"
    exp.header(name, "counter",
               "Seconds each substrate's breaker has spent "
               "open or half-open.")
    for backend in sorted(breakers):
        exp.sample(name, {"backend": _sanitize(backend)},
                   float(breakers[backend].get("degraded_seconds",
                                               0.0)))
    name = prefix + "_breaker_transitions_total"
    exp.header(name, "counter",
               "Breaker state transitions per substrate, by kind.")
    for backend in sorted(breakers):
        doc = breakers[backend]
        for kind in ("opens", "probes", "promotions"):
            exp.sample(name, {"backend": _sanitize(backend),
                              "kind": kind}, doc.get(kind, 0))
    name = prefix + "_quarantined_payloads"
    exp.header(name, "gauge",
               "Payload identities currently quarantined.")
    exp.sample(name, {}, resilience.get("quarantined", 0))

    payloads = engine.get("payloads") or {}
    name = prefix + "_shm_segments"
    exp.header(name, "gauge",
               "Live shared-memory payload segments owned by this "
               "process.")
    exp.sample(name, {}, payloads.get("shm_segments", 0))
    name = prefix + "_payload_bytes"
    exp.header(name, "gauge",
               "Bytes held in live shared-memory payload segments.")
    exp.sample(name, {}, payloads.get("payload_bytes", 0))
    name = prefix + "_payload_attach_failures_total"
    exp.header(name, "counter",
               "Zero-copy payload attach failures (workers fell back "
               "to the pickled path).")
    exp.sample(name, {}, payloads.get("attach_failures", 0))

    traces = engine.get("traces", {})
    name = prefix + "_traces_recorded_total"
    exp.header(name, "counter", "Query traces recorded.")
    exp.sample(name, {}, traces.get("recorded", 0))
    name = prefix + "_slow_queries_total"
    exp.header(name, "counter",
               "Traces that crossed the slow-query threshold.")
    exp.sample(name, {}, traces.get("slow_queries", 0))
    return exp.text()


# ----------------------------------------------------------------------
# waterfall rendering (the `repro trace` subcommand)
# ----------------------------------------------------------------------

def format_waterfall(doc, width=48):
    """Render one trace document as an ASCII waterfall.

    ``doc`` is :meth:`QueryTrace.to_dict` output (or the JSON the
    ``/api/traces/<id>`` endpoint serves).  Each span prints its
    nesting depth, duration, and a bar positioned on the query's
    timeline -- the classic distributed-tracing view, in a terminal.
    """
    spans = doc.get("spans") or []
    header = "{} {} [{}] {}".format(
        doc.get("query_id", "?"), doc.get("op", "?"),
        doc.get("status", "?"),
        " ".join("{}={}".format(k, v)
                 for k, v in sorted((doc.get("tags") or {}).items())))
    total = doc.get("seconds")
    if total is None:
        total = max((s["start"] + s["seconds"] for s in spans),
                    default=0.0) - doc.get("started", 0.0)
    lines = [header.rstrip(),
             "  total {:.3f} ms, {} span(s)".format(
                 (total or 0.0) * 1000, len(spans))]
    if not spans:
        return "\n".join(lines)
    base = doc.get("started") or min(s["start"] for s in spans)
    scale = width / total if total else 0.0
    depths = {}
    for i, span_doc in enumerate(spans):
        parent = span_doc.get("parent")
        depths[i] = 0 if parent is None else depths.get(parent, 0) + 1
        offset = max(0, min(width - 1,
                            int((span_doc["start"] - base) * scale)))
        length = max(1, int(span_doc["seconds"] * scale))
        length = min(length, width - offset)
        bar = " " * offset + "#" * length
        label = "  " * depths[i] + span_doc["name"]
        tags = span_doc.get("tags") or {}
        suffix = ""
        if tags:
            suffix = "  " + ",".join(
                "{}={}".format(k, v) for k, v in sorted(tags.items()))
        lines.append("  {:<26} {:>10.3f}ms |{:<{w}}|{}".format(
            label[:26], span_doc["seconds"] * 1000, bar, suffix,
            w=width))
    return "\n".join(lines)
