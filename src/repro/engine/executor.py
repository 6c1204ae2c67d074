"""The :class:`QueryEngine`: a bounded worker pool with admission
control, per-query deadlines, and an integrated result cache.

The seed server ran every search inline on its HTTP handler thread:
one slow whole-graph detection could stack unbounded threads behind
the GIL, and nothing bounded the damage a traffic spike could do.
This engine is the dedicated execution path between the server and the
algorithms (the Polynesia argument in PAPERS.md):

* a **bounded worker pool** (threads are started lazily on first
  use); every admitted job's :class:`concurrent.futures.Future`
  resolves, with the exception when anything raised, and no job takes
  its worker down;
* an **admission-controlled queue** -- when ``max_queue`` requests are
  already waiting, new work is rejected *immediately* with
  :class:`~repro.util.errors.EngineBusyError`, which the HTTP layer
  maps to a fast 429 instead of letting latency collapse;
* **per-query deadlines** -- a queued request past its deadline is
  dropped without running; :meth:`QueryEngine.wait`, the one blocking
  wait, raises :class:`~repro.util.errors.QueryTimeoutError` when its
  budget runs out;
* **cancellation** -- a wait that times out cancels its future: a
  request still in the queue is dropped, a running one finishes but
  its result is discarded (Python threads cannot be killed);
* the engine-level :class:`~repro.engine.cache.ResultCache`, wired to
  the :class:`~repro.engine.index_manager.IndexManager` so maintenance
  updates selectively evict stale entries;
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
import queue
import threading
import time
import weakref

from repro.core.community import Community
from repro.engine import faults as fault_injection
from repro.engine.backends import (
    ProcessBackend,
    ProcessBackendError,
    timed_job,
    validate_backend,
)
from repro.engine.cache import ResultCache
from repro.engine.faults import FaultPlan
from repro.engine.index_manager import GraphPayload, IndexManager
from repro.engine import payloads as payload_plane
from repro.engine.stats import EngineStats
from repro.engine import tracing
from repro.engine.tracing import TraceRecorder
from repro.util.errors import (
    CExplorerError,
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


class _Job:
    __slots__ = ("fn", "args", "kwargs", "future", "op", "deadline",
                 "submitted_at", "trace")

    def __init__(self, fn, args, kwargs, op, deadline, trace=None):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future = concurrent.futures.Future()
        # The QueryTrace the search path attached (None for plain
        # submissions); the HTTP layer reads it back to add the
        # request-level span and return the query id to the client.
        self.future.trace = trace
        self.op = op
        self.deadline = deadline
        self.submitted_at = time.perf_counter()
        self.trace = trace


_SHUTDOWN = object()

# How long an idle admission worker blocks on the queue before
# re-checking that its engine still exists (see _engine_worker).
_WORKER_IDLE_POLL = 0.5


def _engine_worker(engine_ref, work_queue):
    """Admission-worker loop, deliberately *outside* the engine.

    Running threads are GC roots, so a ``target=self._worker`` thread
    would pin its engine (and therefore every published shared-memory
    segment) for the life of the process.  The loop instead holds only
    a weakref plus the queue: an engine dropped without ``shutdown()``
    becomes collectable, its index manager's finalizer releases the
    payload segments, and the orphaned workers notice on their next
    idle poll and exit."""
    while True:
        try:
            job = work_queue.get(timeout=_WORKER_IDLE_POLL)
        except queue.Empty:
            if engine_ref() is None:
                return
            continue
        if job is _SHUTDOWN:
            return
        engine = engine_ref()
        if engine is None:
            if job.future.set_running_or_notify_cancel():
                job.future.set_exception(CExplorerError(
                    "query engine was discarded with jobs still queued"))
            return
        try:
            engine._run_job(job)
        finally:
            # Unbind before blocking on the next get(): a job whose
            # fn is a bound method would otherwise keep the engine
            # strongly reachable from this frame.
            del engine, job


class _LauncherMemo:
    """``QueryEngine.memo``, kept only because the end-to-end
    benchmark's launcher calls ``engine.memo.invalidate()`` at every
    pass reset, like ``CExplorer.upload(shards=1)``.  ROADMAP items 2
    and 3 remove it."""

    __slots__ = ("invalidate",)

    def __init__(self, indexes):
        # Drops every graph's current derived values; core numbers,
        # CL-trees and truss maps stay.
        self.invalidate = indexes.drop_derived


class QueryEngine:
    """Bounded-concurrency execution front-end for a CExplorer.

    ``explorer`` may be ``None`` for a bare worker pool that runs
    plain callables; with an explorer attached,
    :meth:`search` adds planning, result caching, and index reuse.
    """

    def __init__(self, explorer=None, workers=2, max_queue=64,
                 cache_size=512, index_manager=None, backend="thread",
                 faults=None):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.explorer = explorer
        self.workers = workers
        self.max_queue = max_queue
        self.backend = validate_backend(backend)
        self.indexes = index_manager if index_manager is not None \
            else IndexManager()
        self.cache = ResultCache(cache_size)
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
        self._queue = queue.Queue(max_queue)
        self._threads = []
        self._in_flight = 0
        self._lifecycle = threading.Lock()
        self._shutdown = False
        self._process = None
        if self.backend == "process":
            self._process = ProcessBackend(workers)
        self.indexes.subscribe(self._on_index_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self):
        if self._threads:
            return
        with self._lifecycle:
            if self._threads or self._shutdown:
                return
            engine_ref = weakref.ref(self)
            for i in range(self.workers):
                thread = threading.Thread(
                    target=_engine_worker, args=(engine_ref, self._queue),
                    name="query-engine-{}".format(i), daemon=True)
                thread.start()
                self._threads.append(thread)

    def shutdown(self, wait=True):
        """Stop accepting work and (optionally) join the workers.

        Also releases every payload segment: a clean shutdown leaves
        zero shared-memory segments behind.
        """
        if self._span_hook is not None:
            tracing.clear_fault_hook(self._span_hook)
        with self._lifecycle:
            if self._shutdown:
                return
            self._shutdown = True
            threads = list(self._threads)
            process, self._process = self._process, None
        if process is not None:
            process.close()
        self.indexes.release_payloads()
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in threads:
                thread.join()

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
        :class:`EngineBusyError` at once when the queue is full.
        """
        op = kwargs.pop("op", "job")
        timeout = kwargs.pop("timeout", None)
        trace = kwargs.pop("trace", None)
        if self._shutdown:
            self.tracer.finish(trace, "rejected")
            raise EngineBusyError("engine is shut down")
        self._ensure_started()
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        job = _Job(fn, args, kwargs, op, deadline, trace=trace)
        self.stats.count("submitted")
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self.stats.count("rejected")
            self.tracer.finish(trace, "rejected")
            raise EngineBusyError(
                "engine queue full ({} waiting); retry later"
                .format(self.max_queue)) from None
        return job.future

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
        control.  Requires an attached explorer.

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
        explorer = self._require_explorer()
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

    def _require_explorer(self):
        if self.explorer is None:
            raise RuntimeError(
                "this QueryEngine has no attached explorer; "
                "use submit() with explicit callables")
        return self.explorer

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
    def _on_index_event(self, name, version, affected,
                        truss_affected=None):
        """Index version bump: evict stale results.

        ``affected`` scopes eviction for the minimum-degree families,
        ``truss_affected`` (reported by an attached truss maintainer)
        for the triangle families; either being ``None`` makes its
        families' eviction conservative.
        """
        self.cache.invalidate(name, affected=affected,
                              truss_affected=truss_affected,
                              version=version)

    def _run_job(self, job):
        """Claim and execute one admitted job (called from the
        weakref-holding :func:`_engine_worker` loop).

        Nothing escapes: an exception the job's own handling did not
        absorb -- one raised before the job runs, say by a malformed
        trace -- resolves the job's future with it, so every admitted
        future resolves and the worker lives on to take the next job.
        A future is claimed before anything can raise, so a cancel
        cannot land between ``done()`` and ``set_exception``.
        """
        try:
            self._execute_job(job)
        except Exception as exc:
            self.stats.count("errors")
            if not job.future.done():
                job.future.set_exception(exc)

    def _execute_job(self, job):
        future = job.future
        trace = job.trace
        if not future.set_running_or_notify_cancel():
            # Cancelled by the caller while it waited in the queue.
            self.stats.count("cancelled")
            self.tracer.finish(trace, "cancelled")
            return
        queue_wait = time.perf_counter() - job.submitted_at
        if (job.deadline is not None
                and time.perf_counter() > job.deadline):
            self.stats.count("timeouts")
            if trace is not None:
                trace.add_span("queue_wait", queue_wait,
                               parent=None)
                self.tracer.finish(trace, "timeout")
            future.set_exception(QueryTimeoutError(
                "query spent its deadline waiting in the queue"))
            return
        if trace is not None:
            trace.add_span("queue_wait", queue_wait, parent=None)
        with self._lifecycle:
            self._in_flight += 1
        start = time.perf_counter()
        _job_context.deadline = job.deadline
        try:
            with tracing.activate(trace), \
                    tracing.span("execute", op=job.op):
                result = job.fn(*job.args, **job.kwargs)
        except BaseException as exc:
            self.stats.count("errors")
            self.tracer.finish(trace, "error")
            future.set_exception(exc)
        else:
            self.stats.count("completed")
            self.tracer.finish(trace, "ok")
            future.set_result(result)
        finally:
            _job_context.deadline = None
            elapsed = time.perf_counter() - start
            self.stats.observe(job.op, elapsed, completion=True)
            with self._lifecycle:
                self._in_flight -= 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_depth(self):
        """How many submitted jobs are waiting for a worker."""
        return self._queue.qsize()

    @property
    def accepting(self):
        """Whether :meth:`submit` would admit a query right now --
        the readiness probe's signal (not shut down, queue not at the
        admission-control ceiling)."""
        if self._shutdown:
            return False
        return self._queue.qsize() < self.max_queue

    def snapshot(self):
        """Everything ``/v1/metrics`` reports about the engine."""
        doc = self.stats.snapshot()
        doc.update({
            "backend": self.backend,
            # Whole-query worker execution: how many searches ran
            # end-to-end on a frozen payload.
            "worker_full_query": self.stats.get("worker_full_query"),
            "workers": self.workers,
            "started": bool(self._threads),
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "in_flight": self._in_flight,
            "truss": self.indexes.truss_stats(),
            "traces": self.tracer.stats(),
            # The installed fault plan's rules and what fired, per kind.
            "fault_plan": self.faults.snapshot()
            if self.faults is not None else None,
            "payloads": payload_plane.plane_stats(),
        })
        if self.explorer is not None:
            doc["indexes"] = {name: self.indexes.stats(name)
                              for name in self.indexes.names()}
        return doc
