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
* **the job pipeline** -- :meth:`QueryEngine.run_jobs` is the one
  path every unit of engine work below a query takes (whole queries,
  detections, CL-tree builds): a job is a module-level
  function over an immutable frozen payload, run on the engine's
  substrate (see :mod:`repro.engine.backends`) with fault injection,
  deadlines, one failure rule and the ``op`` / ``shard_ipc`` /
  ``worker_execute`` accounting applied once;
* an **execution backend** (``backend="thread" | "process"``) --
  with the process backend, jobs ship to a ``multiprocessing`` pool
  as frozen-graph payloads (zero-copy shared-memory refs, see
  :mod:`repro.engine.payloads`), dodging the GIL for CPU-bound
  structural work; a job the pool cannot finish runs once more
  inline, with identical results;
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


class Attempt:
    """One job submitted to the process pool: its future, when it was
    submitted and -- stamped by the future's done callback -- when it
    completed, both on this process's ``perf_counter``."""

    __slots__ = ("pool", "future", "started", "done_at")

    def __init__(self, pool, future):
        self.pool = pool
        self.future = future
        self.started = time.perf_counter()
        self.done_at = None
        future.add_done_callback(self._stamp)

    def _stamp(self, _future):
        self.done_at = time.perf_counter()

    def result(self, budget):
        """The job's ``(child_seconds, spans, value)`` (see
        :meth:`~repro.engine.backends.ProcessBackend.job_result`)."""
        return self.pool.job_result(self.future, budget)


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
            # CL-tree builds route through the pool too.
            self.indexes.build_executor = self._build_in_process
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
            # Detach the build delegate (if it is still ours): a
            # post-shutdown index build must run locally, not
            # resurrect a pool nothing would ever close.
            if self.indexes.build_executor == self._build_in_process:
                self.indexes.build_executor = None
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
    def run_jobs(self, jobs, op):
        """Run ``(fn, args)`` jobs and return their results in job
        order -- the engine's one fan-out.  Every unit of engine work
        (whole queries, detections, index builds) is
        such a job, and ``op`` names its job class -- the latency
        histogram and fault-plan target it answers to.  A job is a
        module-level function over picklable arguments, a pure
        function of an immutable frozen payload; a
        :class:`~repro.engine.index_manager.GraphPayload` argument
        travels as the handle each attempt needs.

        **The failure rule.**  A job runs once on the engine's
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
        deadline -- propagates as itself and cancels the siblings that
        have not started.
        """
        jobs = list(jobs)
        # The executing job's deadline (perf_counter based) bounds
        # every pool wait and shipped worker deadline.  An index build
        # ships none, as on the thread backend (where it is no job at
        # all): a slow pool build must not leave its graph unbuildable.
        deadline = None if op == "index_build" \
            else getattr(_job_context, "deadline", None)
        wall = self._wall_deadline(deadline)
        # One fault draw per job per dispatch, so a plan replays
        # identically whatever the jobs then meet.
        faults = [self.faults.draw(op) if self.faults is not None
                  else None for _ in jobs]
        pool = self._process
        attempts = []
        values = []
        try:
            if pool is not None:
                for job, actions in zip(jobs, faults):
                    attempts.append(
                        self._submit(pool, job, actions, wall))
            for i, job in enumerate(jobs):
                values.append(self._collect(
                    i, job, faults[i],
                    attempts[i] if attempts else None, op, deadline,
                    wall))
        except BaseException:
            # Don't leave the rest of the fan-out running for nobody:
            # cancel what has not started (running jobs self-cancel
            # at their next cooperative deadline check).
            for attempt in attempts[len(values):]:
                if isinstance(attempt, Attempt):
                    attempt.future.cancel()
            raise
        return values

    def _submit(self, pool, job, actions, wall):
        """Submit one job to the pool with its drawn faults.  An
        infrastructure error at submission is returned in the
        attempt's place, for :meth:`_collect` to treat like one the
        pool reports later."""
        fn, args = job
        try:
            args = self._apply_parent_faults(
                actions, _handles(args, shipped=True))
            return Attempt(pool, pool.submit_job(
                fn, args, fault=fault_injection.worker_actions(actions),
                deadline=wall))
        except _INFRASTRUCTURE_ERRORS as exc:
            return exc

    def _collect(self, i, job, actions, attempt, op, deadline, wall):
        """Job ``i``'s value under the failure rule, with its ``op`` /
        ``shard_ipc`` latency and its ``worker_execute`` span recorded.
        ``attempt`` is what :meth:`_submit` returned, or ``None`` when
        there is no pool and the first attempt runs right here."""
        fn, args = job
        try:
            if attempt is None:
                outcome = timed_job(
                    fn, _handles(args, shipped=False),
                    fault_injection.worker_actions(actions), wall)
            elif isinstance(attempt, Exception):
                raise attempt
            else:
                outcome = attempt.result(_remaining(deadline))
        except _INFRASTRUCTURE_ERRORS as exc:
            if isinstance(exc, PayloadCorruptionError) \
                    and exc.key is not None:
                self.indexes.discard_payload(exc.key)
            self.stats.count("job_inline_fallbacks")
            attempt = None
            outcome = timed_job(fn, _handles(args, shipped=False),
                                None, wall)
        child, spans, value = outcome
        ipc = 0.0
        if attempt is not None:
            # Collection is serial, so "collection time minus child"
            # would charge sibling compute skew to ``shard_ipc``; the
            # done-callback stamp does not.
            done = attempt.done_at or time.perf_counter()
            ipc = max(done - attempt.started - child, 0.0)
        # Payload resolution inside the job (``index_thaw``: unpickling
        # a blob, attaching a segment) is transport cost, not query
        # compute: ``shard_ipc`` prices what the transport pays, the op
        # histogram the algorithm.
        thaw = min(child, sum(s[2] for s in spans if s[0] == "index_thaw"))
        self.stats.observe(op, child - thaw)
        self.stats.observe(
            "index_build_ipc" if op == "index_build" else "shard_ipc",
            ipc + thaw)
        trace = tracing.current_trace()
        if trace is not None:
            index = trace.add_span(
                "worker_execute", child,
                tags={"job": i,
                      "backend": "inline" if attempt is None
                      else "process"})
            trace.graft(index, spans)
            trace.add_span("shard_ipc", ipc + thaw, tags={"job": i})
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

    def _build_in_process(self, graph, core=None):
        """Index-build executor wired into the
        :class:`~repro.engine.index_manager.IndexManager` when the
        process backend is active: freeze the graph, build core
        numbers + CL-tree as one :func:`~repro.engine.backends.
        build_index_job` through :meth:`run_jobs` (so a build the pool
        cannot finish runs inline), rebind the tree to the live graph
        object."""
        from repro.engine.backends import build_index_job
        from repro.graph.frozen import FrozenGraph

        start = time.perf_counter()
        frozen = FrozenGraph.from_graph(graph)
        self.stats.observe("snapshot_build",
                           time.perf_counter() - start)
        (core, cltree), = self.run_jobs(
            [(build_index_job, (frozen, core))], op="index_build")
        cltree.graph = graph
        return core, cltree

    # ------------------------------------------------------------------
    # whole-query worker execution
    # ------------------------------------------------------------------
    def full_query_capable(self):
        """Whether whole-query worker execution pays.

        Only under the process backend, where the pipeline is what
        lets a query escape the GIL.  The thread backend stays on the
        live graph even when a frozen payload happens to be cached:
        the frozen copy gets no shared ``global`` body and is
        re-frozen after every update.
        """
        return self.backend == "process"

    def _payload(self, name):
        """Graph ``name``'s cached whole-graph payload; a fresh
        freeze's build time is recorded under the ``snapshot_build``
        latency op."""
        payload, fresh = self.indexes.full_payload(name)
        if fresh:
            self.stats.observe("snapshot_build", payload.build_seconds)
        return payload

    def search_full_query(self, name, algorithm, q, k, keywords=None):
        """Run one whole community search against the cached frozen
        payload of graph ``name`` -- in a worker process under the
        process backend, in-process (same pipeline, same results)
        otherwise.  Returns live
        :class:`~repro.core.community.Community` objects bound to the
        registered graph.
        """
        from repro.engine.backends import full_query_job

        payload = self._payload(name)
        wires, = self.run_jobs(
            [(full_query_job,
              (payload.key, payload, algorithm, q, k, keywords))],
            op="full_query")
        self.stats.count("worker_full_query")
        graph = self.indexes.graph(name)
        return [Community.from_wire(graph, wire) for wire in wires]

    def detect(self, name, algorithm, params=None):
        """Run one whole-graph CD detection on the frozen payload, as
        one ``detect`` job; the result is byte-identical to inline
        detection (the frozen equivalence the protocol suite proves).
        """
        from repro.engine.backends import detect_job

        payload = self._payload(name)
        wires, = self.run_jobs(
            [(detect_job, (payload.key, payload, algorithm,
                           tuple(sorted(dict(params or {}).items()))))],
            op="detect")
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
