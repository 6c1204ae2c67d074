"""Execution substrates and job functions: where engine work runs.

The :class:`~repro.engine.executor.QueryEngine` always owns a bounded
*thread* pool -- admission control, deadlines and cancellation live
there.  A unit of engine work below that is a **job**: a module-level
function plus picklable arguments, a pure function of an immutable
frozen payload.  This module holds both halves of that contract:

* the two **substrates** a job can run on, each exposing
  ``submit_job(fn, args, fault, deadline) -> future`` and
  ``job_result(future, budget)`` and each executing
  :func:`_timed_job` -- so fault application, the cooperative
  deadline, worker-span collection and child timing are written once:
  :class:`ProcessBackend`, a lazily started process pool (``fork``
  context where available) that escapes the GIL for CPU-bound
  structural work, and :class:`InlineBackend`, the calling thread
  (under the GIL a thread fan-out measured no faster, see
  ``docs/ARCHITECTURE.md``);
* the **job functions** -- whole searches and batches of them, CD
  detections, index builds.  A payload travels in
  a job's arguments as a *handle* :func:`_loads_payload` resolves: a
  shared-memory ref is attached, pickled bytes are unpickled, an
  in-process object is used as is;
* the **worker-side payload cache**, one entry per payload identity
  ``(manager epoch, graph, "full")``: repeated jobs against an
  unchanged payload skip the resolve and every derived decomposition,
  and a newer version of an identity evicts its predecessor.

Choosing a backend
==================

``backend="thread"`` (default): jobs run inline on the engine's
admission threads -- lowest latency, no payload shipping.  Right for
small graphs, cache-heavy interactive traffic, or single-core hosts.
``backend="process"``: jobs ship to worker processes over frozen CSR
snapshots -- real parallelism for CPU-bound structural work on
multi-core hosts, at the cost of payload shipping (reported as
``snapshot_build`` / ``shard_ipc`` in ``/v1/metrics``; the latter
name predates the job pipeline and now prices every shipped job).  Results are
identical either way (a tested invariant); every process failure
falls back to inline execution rather than failing the query.
"""

import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.core.cltree import build_cltree
from repro.core.kcore import core_decomposition
from repro.core.ktruss import truss_decomposition
from repro.engine import faults as fault_injection
from repro.engine import payloads as payload_plane
from repro.engine import tracing
from repro.util.errors import (
    EngineError,
    JobPayloadError,
    PayloadCorruptionError,
    QueryCancelledError,
    QueryTimeoutError,
)

BACKENDS = ("thread", "process")

# Worker-side cache: payload identity (manager epoch, name, "full")
# -> (version, entry), where the entry holds the resolved payload and
# its lazily built decompositions.  One entry per identity, so version
# churn on a long-lived worker replaces instead of accumulating; the
# cap only bounds how many distinct graphs stay resident.
_WORKER_CACHE = {}
_WORKER_CACHE_MAX = 64


class ProcessBackendError(EngineError):
    """The process pool could not run a job (broken pool, unpicklable
    payload); callers fall back to in-process execution."""


def validate_backend(backend):
    """Normalise and validate a backend name."""
    if backend not in BACKENDS:
        raise EngineError(
            "unknown backend {!r}; choose from {}".format(
                backend, BACKENDS))
    return backend


# ----------------------------------------------------------------------
# cooperative deadlines (the worker side of deadline propagation)
# ----------------------------------------------------------------------

# Per-execution-context job environment.  In a worker process jobs run
# one at a time so this is effectively process-global; in the parent
# (inline substrate) it is per-thread, which is exactly the job
# granularity there.  Wall-clock based: the deadline
# crosses a process boundary, where perf_counter epochs differ.
_job_env = threading.local()


def set_job_deadline(wall_deadline):
    """Install the caller's remaining deadline (``time.time()``-based,
    or ``None``) for jobs running in this context."""
    _job_env.deadline = wall_deadline


def check_deadline():
    """Cooperative deadline check inside job functions.

    Raises :class:`~repro.util.errors.QueryTimeoutError` once the
    caller's deadline has passed -- so an orphaned job (its parent
    already timed out, or it lost a hedge race) self-cancels at the
    next phase boundary instead of burning a worker to completion.
    """
    deadline = getattr(_job_env, "deadline", None)
    if deadline is not None and time.time() > deadline:
        raise QueryTimeoutError(
            "worker job exceeded the caller's deadline")


# ----------------------------------------------------------------------
# job functions (top-level: process jobs must pickle by reference)
# ----------------------------------------------------------------------

def _timed_job(fn, args, fault=None, deadline=None):
    """Run ``fn(*args)`` and return ``(child_seconds, spans,
    result)``.

    ``spans`` is the wire-format list of tracing spans the job
    recorded (index thaw, lazy decomposition builds, algorithm run --
    see :func:`~repro.engine.tracing.collect_worker_spans`); the
    parent grafts them under the job's ``worker_execute`` span.
    ``fault`` carries worker-side fault actions the parent's
    :class:`~repro.engine.faults.FaultPlan` drew for this job;
    ``deadline`` is the caller's remaining wall-clock deadline, made
    visible to the job through :func:`check_deadline`.
    """
    start = time.perf_counter()
    set_job_deadline(deadline)
    try:
        with tracing.collect_worker_spans() as log:
            fault_injection.apply_worker_actions(fault)
            check_deadline()
            result = fn(*args)
            if fault_injection.wants_duplicate(fault):
                # The "duplicate" fault: run the (idempotent) job
                # again, as a duplicated queue delivery would.
                result = fn(*args)
    finally:
        set_job_deadline(None)
    return time.perf_counter() - start, log.wire(), result


def _loads_payload(key, handle):
    """Resolve a job's payload handle to its object form: a
    payload-plane ref is attached zero-copy
    (:func:`repro.engine.payloads.attach`), pickled bytes are
    unpickled, and an in-process payload object is already it.  Any
    failure -- torn segment, undecodable bytes -- becomes
    :class:`~repro.util.errors.PayloadCorruptionError` carrying the
    payload identity, the signal the engine's quarantine keys on."""
    if payload_plane.is_ref(handle):
        with tracing.span("index_thaw", zero_copy=True):
            return payload_plane.attach(handle)
    if not isinstance(handle, (bytes, bytearray)):
        return handle
    with tracing.span("index_thaw", bytes=len(handle)):
        try:
            return pickle.loads(handle)
        except Exception as exc:
            raise PayloadCorruptionError(
                "payload {!r} failed to unpickle: {}".format(key, exc),
                key=key) from exc


def _payload_entry(key, handle):
    """This process's cached state for the payload ``key`` names.

    ``key`` is ``(manager epoch, graph, "full", version)``.
    The returned dict holds the resolved snapshot (``frozen``) and,
    lazily, every derived structure a job may need -- core numbers,
    the CL-tree, the truss map -- so an unchanged payload pays each
    once per worker, not once per query.  The cache keeps one entry
    per identity ``key[:3]``: a newer version evicts its predecessor
    (before resolving, so the attach can close the old mapping), and
    a late job for an older version is served without displacing the
    newer entry.
    """
    identity, version = key[:3], key[3:]
    cached = _WORKER_CACHE.get(identity)
    if cached is not None and cached[0] == version:
        return cached[1]
    newer = cached is None or version > cached[0]
    if newer:
        _WORKER_CACHE.pop(identity, None)
    cached = None
    entry = {"frozen": _loads_payload(key, handle)}
    if newer:
        if len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
            _WORKER_CACHE.clear()
        _WORKER_CACHE[identity] = (version, entry)
    return entry


def _entry_core(entry):
    """Core numbers of the entry's snapshot (computed once)."""
    core = entry.get("core")
    if core is None:
        with tracing.span("core_build"):
            core = entry["core"] = core_decomposition(entry["frozen"])
    return core


def _entry_cltree(entry):
    """CL-tree over the entry's snapshot (built once)."""
    tree = entry.get("cltree")
    if tree is None:
        core = _entry_core(entry)
        with tracing.span("cltree_build"):
            tree = entry["cltree"] = build_cltree(entry["frozen"],
                                                  core=core)
    return tree


def _entry_truss(entry):
    """Truss map of the entry's snapshot (computed once)."""
    truss = entry.get("truss")
    if truss is None:
        with tracing.span("truss_build"):
            truss = entry["truss"] = truss_decomposition(
                entry["frozen"])
    return truss


def full_query_job(key, payload, algorithm, q, k, keywords=None):
    """Run one **whole** community search in a worker process.

    The worker executes the complete query -- structural phase,
    keyword enumeration, verification -- against the cached frozen
    whole-graph snapshot; derived structures (core numbers, CL-tree,
    truss map) are cached per payload identity.  Returns the
    communities in :meth:`~repro.core.community.Community.to_wire`
    form; the parent rebinds them to its live graph object.
    Results are byte-identical to parent-side execution (the frozen
    equivalence the protocol suite proves).
    """
    from repro.algorithms.global_search import global_search
    from repro.algorithms.registry import get_cs_algorithm
    from repro.algorithms.truss_search import truss_community_search
    from repro.core.acq import acq_search

    check_deadline()
    entry = _payload_entry(key, payload)
    frozen = entry["frozen"]
    q0 = q if isinstance(q, int) else tuple(q)[0]
    if algorithm in ("acq", "acq-inc-s", "acq-inc-t"):
        variant = "dec" if algorithm == "acq" \
            else algorithm[len("acq-"):]
        index = _entry_cltree(entry)
        with tracing.span("algorithm", algorithm=algorithm):
            result = acq_search(frozen, q, k, keywords=keywords,
                                algorithm=variant, index=index)
    elif algorithm == "global":
        core = _entry_core(entry)
        with tracing.span("algorithm", algorithm=algorithm):
            result = global_search(frozen, q0, k, core=core)
    elif algorithm == "k-truss":
        truss = _entry_truss(entry)
        with tracing.span("algorithm", algorithm=algorithm):
            result = truss_community_search(frozen, q0, k, truss=truss)
    else:
        # Every other registered CS algorithm takes the plain
        # protocol call (atc, codicil, local, steiner, plug-ins).
        with tracing.span("algorithm", algorithm=algorithm):
            result = get_cs_algorithm(algorithm)(frozen, q, k,
                                                 keywords=keywords)
    return [community.to_wire() for community in result]


def batch_full_query_job(key, payload, specs, member_faults=None):
    """Run a whole *group* of community searches in one worker job.

    ``specs`` is a tuple of ``(algorithm, q, k, keywords)`` wire
    specs, all against the same frozen whole-graph snapshot: one
    payload ship, one worker-cache entry, every lazily built derived
    structure (core numbers, CL-tree, truss map) shared across the
    group -- the engine-side half of cross-query batching
    (:mod:`repro.engine.batching`).  Each spec still runs the exact
    :func:`full_query_job` pipeline, so per-query results are
    byte-identical to serial execution.

    Returns one ``("ok", wire-form community list)`` or ``("error",
    description)`` outcome per spec, in spec order: a member that
    fails (bad data surviving planning, or an injected fault from
    ``member_faults``) reports its own error instead of poisoning the
    clique -- the batching layer retries it solo.  Deadline expiry is
    the exception: it aborts the whole group, since every remaining
    member's caller has already given up.
    """
    check_deadline()
    answers = []
    for i, (algorithm, q, k, keywords) in enumerate(specs):
        check_deadline()
        keywords = set(keywords) if keywords is not None else None
        try:
            fault_injection.apply_worker_actions(
                member_faults[i] if member_faults else None)
            with tracing.span("batch_member", algorithm=algorithm,
                              k=k):
                answers.append(("ok", full_query_job(
                    key, payload, algorithm, q, k,
                    keywords=keywords)))
        except QueryTimeoutError:
            raise
        except Exception as exc:
            answers.append(("error", "{}: {}".format(
                type(exc).__name__, exc)))
    return answers


def component_detect_job(key, payload, algorithm, component, params):
    """Run one CD detection (or one component's slice of it) in a
    worker process.

    ``component`` is ``None`` for the whole graph, or the sorted
    global vertex ids of one connected component -- the worker carves
    the induced frozen subgraph straight out of the cached CSR
    snapshot and maps the resulting communities back to global ids.
    ``params`` is the detection's keyword arguments as a sorted item
    tuple (canonical and picklable).  Returns wire-form communities.
    """
    from repro.algorithms.registry import get_cd_algorithm

    check_deadline()
    entry = _payload_entry(key, payload)
    frozen = entry["frozen"]
    old_ids = None
    if component is not None:
        frozen, _ = frozen.induced_subgraph(component)
        old_ids = list(component)  # sorted: the id map is monotone
    with tracing.span("algorithm", algorithm=algorithm,
                      component=len(old_ids) if old_ids else None):
        result = get_cd_algorithm(algorithm)(frozen, **dict(params))
    wires = []
    for community in result:
        vertices, method, query_vertices, k, shared = \
            community.to_wire()
        if old_ids is not None:
            vertices = tuple(old_ids[v] for v in vertices)
        wires.append((vertices, method, query_vertices, k, shared))
    return wires


def build_index_job(frozen, core=None):
    """Build ``(core numbers, CL-tree)`` over a frozen graph.

    The returned tree's ``graph`` attribute still points at the frozen
    snapshot; the parent rebinds it to the live graph object before
    installing the snapshot (node structure, homed vertices and
    inverted lists are graph-object independent).
    """
    if core is None:
        core = core_decomposition(frozen)
    tree = build_cltree(frozen, core=core)
    return core, tree


# ----------------------------------------------------------------------
# the substrates
# ----------------------------------------------------------------------

class _InlineFuture:
    """A job the inline substrate accepted.  It runs, once, on the
    thread that asks for its result -- so the unstarted siblings of a
    failed fan-out can still be cancelled, exactly like jobs waiting
    in a pool's queue."""

    __slots__ = ("_call",)

    def __init__(self, call):
        self._call = call

    def cancel(self):
        self._call = None

    def done(self):
        return self._call is None

    def run(self):
        call, self._call = self._call, None
        if call is None:
            raise QueryCancelledError("inline job was cancelled")
        return _timed_job(*call)


class InlineBackend:
    """The substrate that always works: jobs run on the calling
    thread, through the same :func:`_timed_job` wrapper a worker
    process uses (drawn faults, cooperative deadline, span collection,
    child timing) -- the floor of the ``process -> inline`` ladder and
    the only substrate under ``backend="thread"``."""

    name = "inline"

    @staticmethod
    def submit_job(fn, args, fault=None, deadline=None):
        """Accept one job; it runs when its result is first asked
        for (see :class:`_InlineFuture`)."""
        return _InlineFuture((fn, args, fault, deadline))

    @staticmethod
    def job_result(future, budget=None):
        """Run the job and return its ``(child_seconds, spans,
        result)``; whatever it raises propagates as itself.  There
        is nothing to wait on, so ``budget`` is moot: the job's own
        cooperative deadline bounds it."""
        return future.run()


class ProcessBackend:
    """A lazily started process pool with per-job child timing.

    Thin by design: admission control, deadlines, retries, fan-out
    and stats stay in the :class:`~repro.engine.executor.QueryEngine`;
    this class only ships one picklable job at a time and reports its
    ``(child_seconds, spans, result)`` so the engine can separate
    compute from transport.
    """

    name = "process"

    def __init__(self, workers):
        self.workers = max(1, int(workers))
        self._pool = None

    def _ensure(self):
        if self._pool is None:
            try:
                import multiprocessing
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX hosts
                context = None
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context)
        return self._pool

    def submit_job(self, fn, args, fault=None, deadline=None):
        """Submit one job; returns its ``concurrent.futures`` future.

        ``fault`` ships worker-side fault actions drawn by the
        parent's plan; ``deadline`` is the caller's remaining
        wall-clock deadline (``time.time()`` based), installed in the
        worker so the job can self-cancel cooperatively.  Raises
        :class:`ProcessBackendError` when the *pool* cannot accept
        work (broken/shut down -- the substrate is at fault) and
        :class:`~repro.util.errors.JobPayloadError` when this job's
        arguments will not pickle (the job is at fault; the pool stays
        up and siblings are unaffected).
        """
        pool = self._ensure()
        try:
            return pool.submit(_timed_job, fn, args, fault, deadline)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise JobPayloadError(
                "job payload did not pickle: {}".format(exc)) from exc
        except (BrokenProcessPool, RuntimeError) as exc:
            self._break()
            raise ProcessBackendError(
                "process pool submission failed: {}".format(exc)) from exc

    def job_result(self, future, budget=None):
        """One job's ``(child_seconds, spans, result)``, with the
        error taxonomy callers dispatch on: :class:`QueryTimeoutError`
        past ``budget``, :class:`ProcessBackendError` for pool death
        (breaking the pool so the next use starts fresh),
        :class:`~repro.util.errors.JobPayloadError` for a payload that
        failed to pickle in the feeder thread (the pool survives; only
        this job fails -- unpicklable payloads used to take the whole
        fan-out down with a pool fallback), and any worker-raised
        exception as itself."""
        try:
            return future.result(budget)
        except _FutureTimeout:
            raise QueryTimeoutError(
                "process job did not finish within "
                "{:.3f}s".format(budget)) from None
        except BrokenProcessPool as exc:
            self._break()
            raise ProcessBackendError(
                "process pool died mid job: {}".format(exc)) from exc
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # An unpicklable payload surfaces on the future, not at
            # submit (the pool pickles in a feeder thread) -- and as
            # whatever the pickler raised (a local function is an
            # AttributeError, an unpicklable value a TypeError).
            raise JobPayloadError(
                "job payload did not pickle: {}".format(exc)) from exc

    def _break(self):
        """Drop a broken pool so the next use starts a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)

    def close(self):
        """Shut the pool down without waiting for stragglers."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)
