"""The :class:`QueryEngine`: a bounded worker pool with admission
control, per-query deadlines, and an integrated result cache.

The seed server ran every search inline on its HTTP handler thread:
one slow whole-graph detection could stack unbounded threads behind
the GIL, and nothing bounded the damage a traffic spike could do.
This engine is the dedicated execution path between the server and the
algorithms (the Polynesia argument in PAPERS.md):

* a **bounded worker pool** (threads are started lazily on first
  use); every admitted job's future resolves, with the exception when
  anything raised, and no job takes its worker down;
* an **admission-controlled queue** -- when ``max_queue`` requests are
  already waiting, new work is rejected *immediately* with
  :class:`~repro.util.errors.EngineBusyError`, which the HTTP layer
  maps to a fast 429 instead of letting latency collapse;
* **per-query deadlines** -- a queued request past its deadline is
  dropped without running; a caller waiting on a future gets
  :class:`~repro.util.errors.QueryTimeoutError`;
* **cancellation** -- best-effort: a request still in the queue is
  dropped, a running one finishes but its result is discarded (Python
  threads cannot be killed);
* the engine-level :class:`~repro.engine.cache.ResultCache` and
  :class:`~repro.engine.cache.SubproblemMemo`, wired to the
  :class:`~repro.engine.index_manager.IndexManager` so maintenance
  updates selectively evict stale entries;
* **the job pipeline** -- :meth:`QueryEngine.run_jobs` is the one
  path every unit of engine work below a query takes (whole queries,
  detections, CL-tree builds): a job is a module-level
  function over an immutable frozen payload, dispatched on the
  substrate the resilience plane's ``process -> inline`` ladder picks
  (see :mod:`repro.engine.backends`), with fault injection, retries,
  hedging, demotion, deadlines and the ``op`` / ``shard_ipc`` /
  ``worker_execute`` accounting applied once;
* an **execution backend** (``backend="thread" | "process"``) --
  with the process backend, jobs ship to a ``multiprocessing`` pool
  as frozen-graph payloads (zero-copy shared-memory refs, see
  :mod:`repro.engine.payloads`), dodging the GIL for CPU-bound
  structural work; any pool failure falls back to inline execution
  with identical results;
* :class:`~repro.engine.stats.EngineStats` latency histograms behind
  ``/v1/metrics``, including the ``snapshot_build`` / ``shard_ipc``
  payload overheads (``shard_ipc`` is the historical name of the
  per-job transport histogram).

Synchronous callers (library users, the batch harness) use
:meth:`QueryEngine.execute`; the server uses :meth:`submit` /
:meth:`search` and waits with a timeout.
"""

import queue
import threading
import time
import weakref

from repro.core.community import Community
from repro.engine import faults as fault_injection
from repro.engine.backends import (
    InlineBackend,
    ProcessBackend,
    ProcessBackendError,
    validate_backend,
)
from repro.engine.cache import ResultCache, SubproblemMemo
from repro.engine.faults import FaultPlan
from repro.engine.index_manager import IndexManager
from repro.engine import payloads as payload_plane
from repro.engine.retry import Attempt, ResiliencePlane
from repro.engine.stats import EngineStats
from repro.engine import tracing
from repro.engine.tracing import TraceRecorder
from repro.util.errors import (
    CExplorerError,
    EngineBusyError,
    JobPayloadError,
    PayloadCorruptionError,
    QueryCancelledError,
    QueryTimeoutError,
)

# The deadline of the engine job the current thread is executing
# (perf_counter based); fan-outs read it so retries, hedges and
# shipped worker deadlines never outlive the caller's budget.
_job_context = threading.local()

_PENDING, _RUNNING, _DONE, _CANCELLED = range(4)


class EngineFuture:
    """A minimal future for engine jobs (stdlib-free by design: the
    queue needs admission control ``concurrent.futures`` lacks)."""

    __slots__ = ("_event", "_lock", "_state", "_value", "_exception",
                 "trace")

    def __init__(self):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = _PENDING
        self._value = None
        self._exception = None
        # The QueryTrace attached by the search path (None for plain
        # submissions or when tracing is disabled); the HTTP layer
        # reads it back to add the request-level span and return the
        # query id to the client.
        self.trace = None

    @classmethod
    def resolved(cls, value):
        """An already-completed future (the cache-hit fast path)."""
        future = cls()
        future.set_result(value)
        return future

    # -- state transitions (engine side) --------------------------------
    def set_running(self):
        """Claim the job (run-once CAS); False when already claimed,
        cancelled or done."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            return True

    def set_result(self, value):
        """Resolve the future with ``value`` (no-op when cancelled)."""
        with self._lock:
            if self._state == _CANCELLED:
                return
            self._value = value
            self._state = _DONE
        self._event.set()

    def set_exception(self, exc):
        """Resolve the future with an exception (no-op when
        cancelled)."""
        with self._lock:
            if self._state == _CANCELLED:
                return
            self._exception = exc
            self._state = _DONE
        self._event.set()

    # -- caller side ----------------------------------------------------
    def cancel(self):
        """Cancel if not yet running; returns whether it worked."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _CANCELLED
        self._event.set()
        return True

    def cancelled(self):
        """Whether the job was cancelled before it ran."""
        return self._state == _CANCELLED

    def done(self):
        """Whether the job finished (result, exception or cancel)."""
        return self._state in (_DONE, _CANCELLED)

    def result(self, timeout=None):
        """Block for the value; raises the job's exception, or
        :class:`QueryTimeoutError` when ``timeout`` elapses first."""
        if not self._event.wait(timeout):
            raise QueryTimeoutError(
                "query did not finish within {:.3f}s".format(timeout))
        if self._state == _CANCELLED:
            raise QueryCancelledError("query was cancelled")
        if self._exception is not None:
            raise self._exception
        return self._value


class _Job:
    __slots__ = ("fn", "args", "kwargs", "future", "op", "deadline",
                 "submitted_at", "trace")

    def __init__(self, fn, args, kwargs, op, deadline, trace=None):
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future = EngineFuture()
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


class QueryEngine:
    """Bounded-concurrency execution front-end for a CExplorer.

    ``explorer`` may be ``None`` for a bare worker pool (the batch
    harness hands it plain callables); with an explorer attached,
    :meth:`search` adds planning, result caching, and index reuse.
    """

    def __init__(self, explorer=None, workers=2, max_queue=64,
                 default_timeout=None, cache_size=512,
                 index_manager=None, memo_size=128, backend="thread",
                 trace_capacity=256, slow_query_seconds=1.0,
                 tracing_enabled=True, faults=None):
        if workers < 1:
            raise ValueError("workers must be positive")
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self.explorer = explorer
        self.workers = workers
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        self.backend = validate_backend(backend)
        self.indexes = index_manager if index_manager is not None \
            else IndexManager()
        self.cache = ResultCache(cache_size)
        self.memo = SubproblemMemo(memo_size)
        self.stats = EngineStats()
        # Fault injection (None in production unless REPRO_FAULT_PLAN
        # is set -- the CI chaos job's hook) and the resilience plane:
        # retry policies, substrate breakers, payload quarantine.
        self.faults = faults if faults is not None \
            else FaultPlan.from_env()
        self.resilience = ResiliencePlane(self.stats)
        self._span_hook = None
        if self.faults is not None and self.faults.has_span_rules():
            self._span_hook = self.faults.span_fault
            tracing.set_fault_hook(self._span_hook)
        self.tracer = TraceRecorder(capacity=trace_capacity,
                                    slow_seconds=slow_query_seconds,
                                    enabled=tracing_enabled)
        self._queue = queue.Queue(max_queue)
        self._threads = []
        self._in_flight = 0
        self._lifecycle = threading.Lock()
        self._shutdown = False
        self._inline = InlineBackend()
        self._process = None
        self._last_detect_parallelism = 0
        if self.backend == "process":
            self._process = ProcessBackend(workers)
            # CL-tree builds route through the pool too.
            self.indexes.build_executor = self._build_in_process
        self.indexes.subscribe(self._on_index_event)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def configure(self, workers=None, max_queue=None,
                  default_timeout=None, backend=None):
        """Adjust pool sizing / backend before the first submission."""
        with self._lifecycle:
            if self._threads:
                raise RuntimeError(
                    "cannot reconfigure a started engine")
            if workers is not None:
                if workers < 1:
                    raise ValueError("workers must be positive")
                self.workers = workers
            if max_queue is not None:
                if max_queue < 1:
                    raise ValueError("max_queue must be positive")
                self.max_queue = max_queue
                self._queue = queue.Queue(max_queue)
            if default_timeout is not None:
                self.default_timeout = default_timeout
            if backend is not None and backend != self.backend:
                self.backend = validate_backend(backend)
                if self._process is not None:
                    self._process.close()
                    self._process = None
                    self.indexes.build_executor = None
                if self.backend == "process":
                    self._process = ProcessBackend(self.workers)
                    self.indexes.build_executor = self._build_in_process
        return self

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
        release = getattr(self.indexes, "release_payloads", None)
        if release is not None:
            release()
        for _ in threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in threads:
                thread.join()

    # ------------------------------------------------------------------
    # generic submission
    # ------------------------------------------------------------------
    def submit(self, fn, *args, **kwargs):
        """Queue ``fn(*args, **kwargs)``; returns an
        :class:`EngineFuture`.

        Keyword-only extras: ``op`` labels the latency histogram,
        ``timeout`` sets the deadline (falls back to
        ``default_timeout``), ``trace`` attaches a
        :class:`~repro.engine.tracing.QueryTrace` that the executing
        worker will activate and finish.  Raises
        :class:`EngineBusyError` at once when the queue is full.
        """
        op = kwargs.pop("op", "job")
        timeout = kwargs.pop("timeout", self.default_timeout)
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

    def execute(self, fn, *args, **kwargs):
        """Synchronous :meth:`submit`: block for the result, honouring
        the same deadline while waiting."""
        timeout = kwargs.get("timeout", self.default_timeout)
        future = self.submit(fn, *args, **kwargs)
        try:
            return future.result(timeout)
        except QueryTimeoutError:
            future.cancel()
            self.stats.count("timeouts")
            raise

    def run_batch(self, calls, op="batch", timeout=None):
        """Submit many ``(fn, args, kwargs)`` triples and gather.

        Returns results in submission order; a call that raised yields
        its exception object instead (the batch harness decides how to
        aggregate failures).  Jobs the queue rejects are executed
        inline -- the batch caller wants throughput, not load shedding.
        """
        futures = []
        for fn, args, kwargs in calls:
            try:
                futures.append(self.submit(fn, *args, op=op,
                                           timeout=timeout, **kwargs))
            except EngineBusyError:
                try:
                    futures.append(EngineFuture.resolved(
                        fn(*args, **kwargs)))
                except Exception as exc:
                    failed = EngineFuture()
                    failed.set_exception(exc)
                    futures.append(failed)
        results = []
        for future in futures:
            try:
                results.append(future.result(timeout))
            except Exception as exc:
                results.append(exc)
        return results

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
        QueryTrace` (unless the recorder is disabled), attached to the
        returned future as ``future.trace`` and handed to the
        executing worker through the job.  Cache *hits* deliberately
        skip tracing: a hit is answered in microseconds and the full
        trace lifecycle (allocation, locks, ring publish) would
        multiply its cost -- and traces exist to attribute slow
        queries, which a warm hit never is.  ``future.trace`` is
        ``None`` on the hit path.
        """
        explorer = self._require_explorer()
        probe_started = time.perf_counter()
        cached = explorer.peek_cached(algorithm, vertex, k=k,
                                      keywords=keywords, **params)
        if cached is not None:
            return EngineFuture.resolved(cached)
        trace = self.tracer.begin("search", algorithm=algorithm,
                                  vertex=str(vertex), k=k)
        if trace is not None:
            trace.tag(cache="miss")
            # The pre-submit plan + cache probe, measured cheaply
            # outside any trace context and attached post hoc.
            trace.add_span("cache_lookup",
                           time.perf_counter() - probe_started,
                           parent=None, tags={"hit": False})
        return self.submit(explorer.search, algorithm, vertex, k=k,
                           keywords=keywords, op="search",
                           timeout=timeout, trace=trace, **params)

    def search_sync(self, algorithm, vertex, k=4, keywords=None,
                    timeout=None, **params):
        """Blocking :meth:`search` with deadline enforcement."""
        timeout = timeout if timeout is not None else self.default_timeout
        future = self.search(algorithm, vertex, k=k, keywords=keywords,
                             timeout=timeout, **params)
        try:
            return future.result(timeout)
        except QueryTimeoutError:
            future.cancel()
            self.stats.count("timeouts")
            raise

    def _require_explorer(self):
        if self.explorer is None:
            raise RuntimeError(
                "this QueryEngine has no attached explorer; "
                "use submit()/execute() with explicit callables")
        return self.explorer

    # ------------------------------------------------------------------
    # the job pipeline
    # ------------------------------------------------------------------
    def run_jobs(self, jobs, op):
        """Run ``(fn, args)`` jobs and return their results in job
        order -- the engine's one fan-out.  Every unit of engine work
        (whole queries, detections, index builds) is
        such a job, and ``op`` names its job class -- the latency
        histogram, retry policy and fault-plan target it answers to.
        A job is a module-level function over picklable arguments, a
        pure function of an immutable frozen payload.

        The substrate comes from the resilience plane's ``process ->
        inline`` ladder: without a pool, or while its breaker is open,
        jobs run inline on the calling thread; a pool death mid
        fan-out feeds the breaker, counts ``process_fallbacks`` and
        finishes the jobs not yet collected inline -- same results,
        less parallelism.  Each job retries transient failures with
        backoff within the caller's remaining deadline (which also
        ships into the worker for cooperative self-cancellation), a
        straggler gets one hedged duplicate, an unpicklable job runs
        inline without disturbing its siblings
        (``job_inline_fallbacks``), a corrupt payload is quarantined,
        and a failed job cancels the siblings that have not started.
        """
        jobs = list(jobs)
        deadline = self._fanout_deadline()
        # One fault draw per job for the whole dispatch -- however the
        # substrate ladder reroutes it, the injection stream stays
        # aligned with the (op, invocation) counter, so a plan replays
        # identically whatever the breaker is doing.
        faults = [self.faults.draw(op) if self.faults is not None
                  else None for _ in jobs]
        outcomes = []
        pool = self._process
        if pool is not None \
                and self.resilience.substrate("process")[0] == "process":
            healthy = True
            try:
                self._collect(pool, jobs, faults, outcomes, op,
                              deadline)
            except ProcessBackendError:
                healthy = False
                self.stats.count("process_fallbacks")
            finally:
                # Also on a job's own failure: the pool did its part,
                # and a half-open probe must always report back.
                self.resilience.record("process", healthy)
        if len(outcomes) < len(jobs):
            self._collect(self._inline, jobs, faults, outcomes, op,
                          deadline)
        return [value for _, value in outcomes]

    def _collect(self, substrate, jobs, faults, outcomes, op,
                 deadline, stop=None):
        """Start ``jobs[len(outcomes):stop]`` on ``substrate``, then
        collect them in order, appending ``(child_seconds, value)``
        to ``outcomes`` -- the ordered-collection loop every job
        passes through, where its ``op`` / ``shard_ipc`` latency and
        its ``worker_execute`` span are recorded."""
        shipped = substrate is not self._inline
        wall = self._wall_deadline(deadline)
        trace = tracing.current_trace()
        ipc_op = "index_build_ipc" if op == "index_build" \
            else "shard_ipc"

        def start(i, actions=None):
            fn, args = jobs[i]
            if shipped:
                args = self._apply_parent_faults(actions, args)
            return Attempt(substrate.submit_job(
                fn, args, fault=fault_injection.worker_actions(actions),
                deadline=wall))

        def wait(attempt, budget):
            return substrate.job_result(attempt.future, budget)

        base = len(outcomes)
        pending = []
        try:
            for i in range(base, len(jobs) if stop is None else stop):
                try:
                    pending.append(start(i, faults[i]))
                except JobPayloadError:
                    pending.append(None)
            for i, attempt in enumerate(pending, base):
                outcome = None
                if attempt is not None:
                    try:
                        # Retries and hedges resubmit the pristine
                        # job: its injected faults were one-shot.
                        outcome, attempt = \
                            self.resilience.retrying_result(
                                op, i, attempt,
                                lambda i=i: start(i), wait, deadline,
                                self._quarantine_if_corrupt)
                    except JobPayloadError:
                        # Pickling failed in the pool's feeder thread
                        # (it surfaces on the future, not at submit).
                        pass
                if outcome is None:
                    # This job cannot ship: run it inline, leave the
                    # pool (and every sibling) alone.
                    self.stats.count("job_inline_fallbacks")
                    self._collect(self._inline, jobs, faults, outcomes,
                                  op, deadline, stop=i + 1)
                    continue
                child, spans, value = outcome
                ipc = 0.0
                if shipped:
                    # Collection is serial, so "collection time minus
                    # child" would charge sibling compute skew to
                    # ``shard_ipc``; the done-callback stamp does not.
                    done = attempt.done_at or time.perf_counter()
                    ipc = max(done - attempt.started - child, 0.0)
                # Payload resolution inside the job (``index_thaw``:
                # unpickling a blob, attaching a segment) is transport
                # cost, not query compute: ``shard_ipc`` prices what
                # the transport pays, the op histogram the algorithm.
                thaw = min(child, sum(
                    s[2] for s in spans if s[0] == "index_thaw"))
                self.stats.observe(op, child - thaw)
                self.stats.observe(ipc_op, ipc + thaw)
                if trace is not None:
                    index = trace.add_span(
                        "worker_execute", child,
                        tags={"job": i, "backend": substrate.name})
                    trace.graft(index, spans)
                    trace.add_span("shard_ipc", ipc + thaw,
                                   tags={"job": i})
                outcomes.append((child, value))
        except BaseException:
            # Don't leave the rest of the fan-out running for nobody:
            # cancel what has not started (running jobs self-cancel
            # at their next cooperative deadline check).
            for later in pending[len(outcomes) - base:]:
                if later is not None:
                    later.future.cancel()
            raise

    def _fanout_deadline(self):
        """The executing job's deadline (perf_counter based), falling
        back to ``default_timeout`` from now -- the budget every
        retry, hedge and shipped worker deadline lives within."""
        deadline = getattr(_job_context, "deadline", None)
        if deadline is not None:
            return deadline
        if self.default_timeout is not None:
            return time.perf_counter() + self.default_timeout
        return None

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
        zero-copy ref (both on copies: retries resubmit the pristine
        original) -- and ``segment_loss`` unlinks the shared-memory
        segment a ref points at *in place*, simulating a torn
        attachment the worker only discovers at attach time.  None
        applies to a job that runs inline."""
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

    def _quarantine_if_corrupt(self, exc):
        """Quarantine the payload a corruption error names: the
        resilience plane remembers the identity (so the event is
        visible) and the index manager drops its cached copy (so the
        next query re-freezes from the live graph).  Corruption never
        feeds the breaker -- one poisoned payload must not condemn
        the backend for every other graph."""
        if not isinstance(exc, PayloadCorruptionError):
            return
        key = exc.key
        if key is None:
            return
        if self.resilience.quarantine(key):
            discard = getattr(self.indexes, "discard_payload", None)
            if discard is not None:
                discard(key)

    def _build_in_process(self, graph, core=None):
        """Index-build executor wired into the
        :class:`~repro.engine.index_manager.IndexManager` when the
        process backend is active: freeze the graph, build core
        numbers + CL-tree as one :func:`~repro.engine.backends.
        build_index_job` through :meth:`run_jobs`, rebind the tree to
        the live graph object.  If it raises, the manager falls back
        to its own in-process build."""
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

    def _with_fresh_payload_retry(self, name, op, make_jobs):
        """Run ``make_jobs(payload key, payload handle)`` over graph
        ``name``'s whole-graph payload, retrying once from a freshly
        frozen payload when corruption escaped the per-job retries.
        The quarantine hook already discarded the cached copy, so the
        second pass re-freezes from the live graph -- the one
        recovery that helps when the cached bytes themselves (not a
        transient transport) are what is poisoned."""
        def run():
            payload, fresh = self.indexes.full_payload(name)
            return self.run_jobs(
                make_jobs(payload.key,
                          self.payload_arg(payload, fresh)), op=op)
        try:
            return run()
        except PayloadCorruptionError:
            self.stats.count("payload_retries")
            return run()

    def payload_arg(self, payload, fresh):
        """The handle a job should carry for ``payload``: a zero-copy
        locator (or pickled blob, if no segment could be created)
        when jobs ship to worker processes, the payload object itself
        when they run in-process.  ``fresh`` says the payload was
        just frozen -- its build time is then recorded under the
        ``snapshot_build`` latency op."""
        if fresh:
            self.stats.observe("snapshot_build", payload.build_seconds)
        return payload.job_arg(shipped=self._process is not None)

    def search_full_query(self, name, algorithm, q, k, keywords=None):
        """Run one whole community search against the cached frozen
        payload of graph ``name`` -- in a worker process under the
        process backend, in-process (same pipeline, same results)
        otherwise.  Returns live
        :class:`~repro.core.community.Community` objects bound to the
        registered graph.
        """
        from repro.engine.backends import full_query_job

        wires = self._with_fresh_payload_retry(
            name, "full_query", lambda key, handle: [
                (full_query_job,
                 (key, handle, algorithm, q, k, keywords))])
        self.stats.count("worker_full_query")
        graph = self.indexes.graph(name)
        return [Community.from_wire(graph, wire) for wire in wires[0]]

    def detect(self, name, algorithm, params=None, per_component=False):
        """Run one whole-graph CD detection on the frozen payload.

        With ``per_component=True`` the detection fans out as one
        worker job per connected component (each carves its induced
        frozen subgraph from the cached payload); results are the
        concatenation in component order.  Connected graphs degrade
        to the single whole-graph job, whose result is byte-identical
        to inline detection (the frozen equivalence the protocol
        suite proves).  Per-component execution is a *different,
        deterministic plan*: component-local algorithm state (RNG
        sweeps, TF-IDF document frequencies) sees one component
        instead of the union, which only coincides with whole-graph
        output when the graph is connected.
        """
        from repro.engine.backends import component_detect_job

        graph = self.indexes.graph(name)
        wire_params = tuple(sorted(dict(params or {}).items()))
        components = [None]
        if per_component:
            components = sorted(
                tuple(sorted(component))
                for component in graph.connected_components())
            if len(components) == 1:
                components = [None]
        self.stats.count("detect_runs")
        self.stats.count("detect_jobs", len(components))
        self._last_detect_parallelism = len(components)

        wires = self._with_fresh_payload_retry(
            name, "detect", lambda key, handle: [
                (component_detect_job,
                 (key, handle, algorithm, component, wire_params))
                for component in components])
        communities = []
        for wire_list in wires:
            communities.extend(Community.from_wire(graph, wire)
                               for wire in wire_list)
        return communities

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _on_index_event(self, name, version, affected,
                        truss_affected=None):
        """Index version bump: evict stale results and memo entries.

        ``affected`` scopes eviction for the minimum-degree families,
        ``truss_affected`` (reported by an attached truss maintainer)
        for the triangle families; either being ``None`` makes its
        families' eviction conservative.  Memo entries keyed at an
        older version (or any, once ``version`` is ``None``) go.
        """
        self.cache.invalidate(name, affected=affected,
                              truss_affected=truss_affected)
        self.memo.invalidate(name, version=version)

    def _run_job(self, job):
        """Claim and execute one admitted job (called from the
        weakref-holding :func:`_engine_worker` loop).

        Nothing escapes: an exception the job's own handling did not
        absorb -- one raised before the job runs, say by a malformed
        trace -- resolves the job's future with it, so every admitted
        future resolves and the worker lives on to take the next job.
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
        if not future.set_running():
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
            self.stats.observe(job.op, elapsed)
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
            # end-to-end on a frozen payload, and how wide the last
            # CD detection fanned out per component.
            "worker_full_query": self.stats.get("worker_full_query"),
            "detect_parallelism": {
                "last_jobs": self._last_detect_parallelism,
                "runs": self.stats.get("detect_runs"),
                "jobs": self.stats.get("detect_jobs"),
            },
            "index_build_fallbacks": getattr(self.indexes,
                                             "build_fallbacks", 0),
            "workers": self.workers,
            "started": bool(self._threads),
            "queue_depth": self.queue_depth,
            "max_queue": self.max_queue,
            "in_flight": self._in_flight,
            "cache": self.cache.stats(),
            "memo": self.memo.stats(),
            "truss": self.indexes.truss_stats(),
            "traces": self.tracer.stats(),
            "resilience": self.resilience.snapshot(faults=self.faults),
            "payloads": payload_plane.plane_stats(),
        })
        if self.explorer is not None:
            doc["indexes"] = {name: self.indexes.stats(name)
                              for name in self.indexes.names()}
        return doc
