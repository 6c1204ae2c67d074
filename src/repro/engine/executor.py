"""The :class:`QueryEngine`: a bounded worker pool with admission
control, per-query deadlines, and an integrated result cache.

The seed server ran every search inline on its HTTP handler thread:
one slow whole-graph detection could stack unbounded threads behind
the GIL, and nothing bounded the damage a traffic spike could do.
This engine is the dedicated execution path between the server and the
algorithms (the Polynesia argument in PAPERS.md):

* a **bounded worker pool** -- a stdlib
  :class:`concurrent.futures.ThreadPoolExecutor` of ``workers``
  threads; every admitted job's :class:`concurrent.futures.Future`
  resolves, with the exception when anything raised, and no job takes
  its worker down;
* **admission control** -- one count of the jobs admitted and not yet
  started; when ``max_queue`` of them are waiting, new work is
  rejected *immediately* with
  :class:`~repro.util.errors.EngineBusyError`, which the HTTP layer
  maps to a fast 429 instead of letting latency collapse;
* **per-query deadlines** -- a queued request past its deadline is
  dropped without running; :meth:`QueryEngine.wait`, the one blocking
  wait, raises :class:`~repro.util.errors.QueryTimeoutError` when its
  budget runs out;
* **cancellation** -- a wait that times out cancels its future: a
  request still in the queue leaves the admission count at once and
  never runs, a running one finishes but its result is discarded
  (Python threads cannot be killed);
* the index manager's :class:`~repro.engine.cache.ResultCache`
  (``engine.cache``): search answers held on each graph version's
  record, carried selectively across maintenance updates;
* **the job pipeline** -- :meth:`QueryEngine.run_job` runs one whole
  ACQ-family search (job class ``full_query``) as a module-level
  function over an immutable frozen payload, on the engine's substrate
  (see :mod:`repro.engine.backends`), with fault injection, the
  caller's deadline, one failure rule and the ``full_query`` /
  ``shard_ipc`` / ``worker_execute`` accounting;
* an **execution backend** (``backend="thread" | "process"``) --
  with the process backend, ACQ-family searches ship to a
  ``multiprocessing`` pool as frozen-graph payloads (zero-copy
  shared-memory refs, see :mod:`repro.engine.payloads`), dodging the
  GIL; a job the pool cannot finish runs once more inline, with
  identical results.  Everything else -- the other searches,
  detections, CL-tree builds -- runs on the engine's threads under
  either backend;
* :class:`~repro.engine.stats.EngineStats` latency histograms behind
  ``/v1/metrics``, including the ``snapshot_build`` / ``shard_ipc``
  payload overheads (``shard_ipc`` is the historical name of the
  per-job transport histogram).

Callers submit with :meth:`QueryEngine.submit` or
:meth:`QueryEngine.search` and block with :meth:`QueryEngine.wait`.
"""

import concurrent.futures
import threading
import time

from repro.core.community import Community
from repro.engine import faults as fault_injection
from repro.engine.backends import (
    ProcessBackend,
    ProcessBackendError,
    timed_job,
    validate_backend,
)
from repro.engine.faults import FaultPlan
from repro.engine.index_manager import GraphPayload
from repro.engine import payloads as payload_plane
from repro.engine.stats import EngineStats
from repro.engine import tracing
from repro.engine.tracing import TraceRecorder
from repro.util.errors import (
    EngineBusyError,
    FaultInjectedError,
    JobPayloadError,
    PayloadCorruptionError,
    QueryTimeoutError,
    WorkerKilledError,
)

# The deadline of the engine job the current thread is executing
# (perf_counter based); fan-outs read it so pool waits and shipped
# worker deadlines never outlive the caller's budget.
_job_context = threading.local()

# What a job's attempt can die of that says nothing about the job
# itself: a dead or unusable pool, a job that would not pickle, a
# killed worker, an injected fault, a payload that failed to resolve.
# Each earns the job one more run, inline and fault-free.
_INFRASTRUCTURE_ERRORS = (ProcessBackendError, JobPayloadError,
                          WorkerKilledError, FaultInjectedError,
                          PayloadCorruptionError)

# The one job class: the latency op and fault-plan target of every
# job.
JOB_CLASS, = fault_injection.JOB_CLASSES


def _handles(args, shipped):
    """``args`` with each :class:`GraphPayload` replaced by the handle
    an attempt carries: a shared-memory ref (else the pickled blob)
    for the pool, the frozen snapshot itself in this process."""
    return tuple(arg.job_arg(shipped=shipped)
                 if isinstance(arg, GraphPayload) else arg
                 for arg in args)


def _remaining(deadline):
    """Seconds left until a ``perf_counter`` deadline (``None`` when
    unbounded, never negative)."""
    if deadline is None:
        return None
    return max(deadline - time.perf_counter(), 0.0)


class _LauncherMemo:
    """``QueryEngine.memo``, kept only because the end-to-end
    benchmark's launcher calls ``engine.memo.invalidate()`` at every
    pass reset, like ``CExplorer.upload(shards=1)``.  ROADMAP items 2
    and 3 remove it.

    ``invalidate()`` drops every graph's current derived values: the
    dataset panel, the CODICIL partition, the ``global`` bodies and
    ACQ's singleton communities.  Core numbers, CL-trees, truss maps
    and search answers stay."""

    __slots__ = ("invalidate",)

    def __init__(self, indexes):
        self.invalidate = indexes.drop_derived


class QueryEngine:
    """Bounded-concurrency execution front-end for a CExplorer.

    The engine serves ``explorer``'s graphs: it shares the explorer's
    index manager, and :meth:`search` adds planning, result caching
    and index reuse to :meth:`submit`.
    """

    def __init__(self, explorer, workers=2, max_queue=64,
                 backend="thread", faults=None):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.explorer = explorer
        self.workers = workers
        self.max_queue = max_queue
        self.backend = validate_backend(backend)
        self.indexes = explorer.indexes
        self.cache = self.indexes.cache
        self.memo = _LauncherMemo(self.indexes)
        self.stats = EngineStats()
        # Declared up front so /v1/metrics always carries it.
        self.stats.count("job_inline_fallbacks", 0)
        # Fault injection: None in production unless REPRO_FAULT_PLAN
        # is set (the CI chaos job's hook).
        self.faults = faults if faults is not None \
            else FaultPlan.from_env()
        self._span_hook = None
        if self.faults is not None and self.faults.has_span_rules():
            self._span_hook = self.faults.span_fault
            tracing.set_fault_hook(self._span_hook)
        self.tracer = TraceRecorder()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            workers, thread_name_prefix="query-engine")
        # The admission count: jobs admitted and not yet started.
        self._queued = 0
        self._in_flight = 0
        self._lifecycle = threading.Lock()
        self._shutdown = False
        self._process = None
        if self.backend == "process":
            self._process = ProcessBackend(workers)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait=True):
        """Stop accepting work.  ``wait=True`` runs the queued jobs
        and joins the workers; ``wait=False`` cancels every queued job
        (each future resolves as cancelled) and returns at once.

        Also releases every payload segment: a clean shutdown leaves
        zero shared-memory segments behind.
        """
        if self._span_hook is not None:
            tracing.clear_fault_hook(self._span_hook)
        with self._lifecycle:
            if self._shutdown:
                return
            self._shutdown = True
            process, self._process = self._process, None
        if process is not None:
            process.close()
        self.indexes.release_payloads()
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    # ------------------------------------------------------------------
    # generic submission
    # ------------------------------------------------------------------
    def submit(self, fn, *args, **kwargs):
        """Queue ``fn(*args, **kwargs)``; returns its
        :class:`concurrent.futures.Future`, with the attached trace as
        ``future.trace``.

        Keyword-only extras: ``op`` labels the latency histogram,
        ``timeout`` sets the deadline (none by default), ``trace``
        attaches a :class:`~repro.engine.tracing.QueryTrace` that the
        executing worker will activate and finish.  Raises
        :class:`EngineBusyError` at once when ``max_queue`` admitted
        jobs are still waiting for a worker.
        """
        op = kwargs.pop("op", "job")
        timeout = kwargs.pop("timeout", None)
        trace = kwargs.pop("trace", None)
        submitted_at = time.perf_counter()
        deadline = submitted_at + timeout if timeout is not None else None
        with self._lifecycle:
            if self._shutdown:
                reason = "engine is shut down"
            else:
                self.stats.count("submitted")
                if self._queued < self.max_queue:
                    future = self._pool.submit(
                        self._run, fn, args, kwargs, op, deadline,
                        submitted_at, trace)
                    self._queued += 1
                    # The QueryTrace the search path attached (None for
                    # plain submissions); the HTTP layer reads it back
                    # to add the request-level span and return the
                    # query id to the client.
                    future.trace = trace
                    future.add_done_callback(self._on_done)
                    return future
                self.stats.count("rejected")
                reason = "engine queue full ({} waiting); retry later" \
                    .format(self.max_queue)
        self.tracer.finish(trace, "rejected")
        raise EngineBusyError(reason)

    def wait(self, future, timeout=None):
        """Block for ``future``'s result -- the engine's one blocking
        wait -- re-raising the job's exception.  When ``timeout``
        seconds pass first, the future is cancelled (a queued job is
        dropped without running), counted once under ``timeouts`` and
        :class:`QueryTimeoutError` raised.  A job the worker dropped
        for its own expired deadline was counted there."""
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            self.stats.count("timeouts")
            raise QueryTimeoutError(
                "query did not finish within {:.3f}s".format(timeout)) \
                from None

    # ------------------------------------------------------------------
    # the search path
    # ------------------------------------------------------------------
    def search(self, algorithm, vertex, k=4, keywords=None,
               timeout=None, **params):
        """Plan + cache + submit one community search.

        Cache hits resolve immediately without touching the queue, so
        a warm interactive workload is never throttled by admission
        control.

        Cache misses record a :class:`~repro.engine.tracing.
        QueryTrace`, attached to the returned future as
        ``future.trace`` and handed to the executing worker through
        the job.  Cache *hits* deliberately skip tracing: a hit is
        answered in microseconds and the full trace lifecycle
        (allocation, locks, ring publish) would multiply its cost --
        and traces exist to attribute slow queries, which a warm hit
        never is.  A hit returns a future already resolved, with
        ``future.trace`` ``None``.
        """
        explorer = self.explorer
        probe_started = time.perf_counter()
        cached = explorer.peek_cached(algorithm, vertex, k=k,
                                      keywords=keywords, **params)
        if cached is not None:
            future = concurrent.futures.Future()
            future.set_result(cached)
            future.trace = None
            return future
        trace = self.tracer.begin("search", algorithm=algorithm,
                                  vertex=str(vertex), k=k, cache="miss")
        # The pre-submit plan + cache probe, measured cheaply outside
        # any trace context and attached post hoc.
        trace.add_span("cache_lookup",
                       time.perf_counter() - probe_started,
                       parent=None, tags={"hit": False})
        return self.submit(explorer.search, algorithm, vertex, k=k,
                           keywords=keywords, op="search",
                           timeout=timeout, trace=trace, **params)

    # ------------------------------------------------------------------
    # the job pipeline
    # ------------------------------------------------------------------
    def run_job(self, fn, args):
        """Run one job, ``fn(*args)``, and return its value -- the
        path of every whole ACQ search on the frozen payload (job class
        ``full_query``: the latency histogram and fault-plan target it
        answers to).  A job is a module-level function over picklable
        arguments, a pure function of an immutable frozen payload; a
        :class:`~repro.engine.index_manager.GraphPayload` argument
        travels as the handle its attempt needs.

        **The failure rule.**  The job runs once on the engine's
        substrate -- the pool under ``backend="process"``, the calling
        thread otherwise -- with its drawn faults and the caller's
        remaining deadline.  If that attempt dies of an
        infrastructure error (``ProcessBackendError``,
        ``JobPayloadError``, ``WorkerKilledError``,
        ``FaultInjectedError``, ``PayloadCorruptionError``), the job
        runs once more, inline, on the in-process payload object, with
        no faults, and ``job_inline_fallbacks`` counts it; a corrupt
        payload is also discarded, so the next query re-publishes it.
        Any other exception -- the job's own error, or the caller's
        deadline -- propagates as itself.
        """
        # The executing job's deadline (perf_counter based) bounds the
        # pool wait and the shipped worker deadline.
        deadline = getattr(_job_context, "deadline", None)
        wall = self._wall_deadline(deadline)
        actions = self.faults.draw(JOB_CLASS) \
            if self.faults is not None else None
        worker_faults = fault_injection.worker_actions(actions)
        pool = self._process
        ipc = 0.0
        try:
            if pool is None:
                outcome = timed_job(fn, _handles(args, shipped=False),
                                    worker_faults, wall)
            else:
                shipped = self._apply_parent_faults(
                    actions, _handles(args, shipped=True))
                future = pool.submit_job(fn, shipped, fault=worker_faults,
                                         deadline=wall)
                started = time.perf_counter()
                outcome = pool.job_result(future, _remaining(deadline))
                # What the round trip cost beyond the job's own run.
                ipc = max(time.perf_counter() - started - outcome[0],
                          0.0)
        except _INFRASTRUCTURE_ERRORS as exc:
            if isinstance(exc, PayloadCorruptionError) \
                    and exc.key is not None:
                self.indexes.discard_payload(exc.key)
            self.stats.count("job_inline_fallbacks")
            pool = None
            outcome = timed_job(fn, _handles(args, shipped=False),
                                None, wall)
        child, spans, value = outcome
        # Payload resolution inside the job (``index_thaw``: unpickling
        # a blob, attaching a segment) is transport cost, not query
        # compute: ``shard_ipc`` prices what the transport pays, the op
        # histogram the algorithm.
        thaw = min(child, sum(s[2] for s in spans if s[0] == "index_thaw"))
        self.stats.observe(JOB_CLASS, child - thaw)
        self.stats.observe("shard_ipc", ipc + thaw)
        trace = tracing.current_trace()
        if trace is not None:
            index = trace.add_span(
                "worker_execute", child,
                tags={"backend": "inline" if pool is None
                      else "process"})
            trace.graft(index, spans)
            trace.add_span("shard_ipc", ipc + thaw)
        return value

    @staticmethod
    def _wall_deadline(deadline):
        """Translate a perf_counter deadline to the wall clock (what
        crosses the process boundary)."""
        if deadline is None:
            return None
        return time.time() + max(deadline - time.perf_counter(), 0.0)

    def _apply_parent_faults(self, actions, args):
        """Fire parent-side fault actions where a job ships to the
        pool: ``pool_break`` fails the submission as a dead pool
        would, ``corrupt`` poisons each shipped payload -- a flipped
        byte in a pickled blob, a detectably-corrupted locator for a
        zero-copy ref (both on copies: the inline rerun reads the
        pristine payload) -- and ``segment_loss`` unlinks the
        shared-memory segment a ref points at *in place*, simulating a
        torn attachment the worker only discovers at attach time.
        None applies to a job that runs inline."""
        if not actions:
            return args
        for kind, _ in actions:
            if kind == "pool_break":
                raise ProcessBackendError(
                    "fault injection broke the process pool")
            if kind == "corrupt":
                args = tuple(
                    fault_injection.corrupt_blob(value)
                    if isinstance(value, (bytes, bytearray))
                    else payload_plane.corrupt_ref(value)
                    if payload_plane.is_ref(value) else value
                    for value in args)
            if kind == "segment_loss":
                for value in args:
                    if payload_plane.is_ref(value):
                        payload_plane.lose_segment(value)
        return args

    # ------------------------------------------------------------------
    # whole-query worker execution
    # ------------------------------------------------------------------
    def full_query_capable(self):
        """Whether whole-query worker execution pays: only under the
        process backend, and the planner offers it only to ACQ-family
        searches, the one route measured winning in the pool.  The
        thread backend stays on the live graph even when a frozen
        payload happens to be cached: the frozen copy is re-frozen
        after every update.
        """
        return self.backend == "process"

    def search_full_query(self, name, algorithm, q, k, keywords=None):
        """Run one whole ACQ-family search against the cached frozen
        payload of graph ``name`` -- in a worker process under the
        process backend, in-process (same job, same results)
        otherwise.  A fresh freeze's time is recorded under the
        ``snapshot_build`` latency op.  Returns live
        :class:`~repro.core.community.Community` objects bound to the
        registered graph.
        """
        from repro.engine.backends import full_query_job

        payload, fresh = self.indexes.full_payload(name)
        if fresh:
            self.stats.observe("snapshot_build", payload.build_seconds)
        wires = self.run_job(
            full_query_job,
            (payload.key, payload, algorithm, q, k, keywords))
        self.stats.count("worker_full_query")
        graph = self.indexes.graph(name)
        return [Community.from_wire(graph, wire) for wire in wires]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run(self, fn, args, kwargs, op, deadline, submitted_at, trace):
        """One admitted job, on a pool thread: leave the admission
        count, drop the job if its deadline passed in the queue
        (counted under ``timeouts``), else run it under its trace and
        count it ``completed`` or ``errors``.

        Whatever raises -- the job, or a malformed trace before the
        job runs -- resolves the future with it and counts under
        ``errors``; the pool thread lives on to take the next job.
        """
        start = time.perf_counter()
        with self._lifecycle:
            self._queued -= 1
            self._in_flight += 1
        status = "error"
        _job_context.deadline = deadline
        try:
            if trace is not None:
                trace.add_span("queue_wait", start - submitted_at,
                               parent=None)
            if deadline is not None and start > deadline:
                status = "timeout"
                raise QueryTimeoutError(
                    "query spent its deadline waiting in the queue")
            with tracing.activate(trace), \
                    tracing.span("execute", op=op):
                result = fn(*args, **kwargs)
            status = "ok"
            return result
        finally:
            _job_context.deadline = None
            with self._lifecycle:
                self._in_flight -= 1
            if status == "timeout":
                self.stats.count("timeouts")
            else:
                self.stats.count("completed" if status == "ok"
                                 else "errors")
                self.stats.observe(op, time.perf_counter() - start,
                                   completion=True)
            self.tracer.finish(trace, status)

    def _on_done(self, future):
        """A job cancelled before it started -- by a timed-out wait or
        ``shutdown(wait=False)`` -- leaves the admission count at once
        and is counted ``cancelled``."""
        if future.cancelled():
            with self._lifecycle:
                self._queued -= 1
            self.stats.count("cancelled")
            self.tracer.finish(future.trace, "cancelled")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_depth(self):
        """How many admitted jobs are waiting for a worker."""
        return self._queued

    @property
    def accepting(self):
        """Whether :meth:`submit` would admit a query right now --
        the readiness probe's signal (not shut down, queue not at the
        admission-control ceiling)."""
        if self._shutdown:
            return False
        return self._queued < self.max_queue

    def snapshot(self):
        """Everything ``/v1/metrics`` reports about the engine."""
        doc = self.stats.snapshot()
        doc.update({
            "backend": self.backend,
            # Whole-query worker execution: how many searches ran
            # end-to-end on a frozen payload.
            "worker_full_query": self.stats.get("worker_full_query"),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "in_flight": self._in_flight,
            "traces": self.tracer.stats(),
            # The installed fault plan's rules and what fired, per kind.
            "fault_plan": self.faults.snapshot()
            if self.faults is not None else None,
            "payloads": payload_plane.plane_stats(),
            "indexes": {name: self.indexes.stats(name)
                        for name in self.indexes.names()},
        })
        return doc
