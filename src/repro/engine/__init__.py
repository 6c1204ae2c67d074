"""``repro.engine`` -- the query execution engine.

Why this layer exists
=====================

C-Explorer (Fang et al., PVLDB 2017) is an *interactive service*: many
concurrent users issue ACQ / k-core / k-truss searches against shared
graphs while uploads and edge edits mutate those graphs underneath.
The seed reproduction ran every ``/api/search`` inline on its HTTP
handler thread with no result reuse and ad-hoc lazy index builds --
fine for one user, hopeless for the ROADMAP's "heavy traffic from
millions of users".  This package is the execution layer between the
server and the algorithms; every later scaling step (an async
server, a process backend, a persistent cache) plugs into it.

Every graph is held whole: one versioned CL-tree / k-core index per
graph, the paper's design.

The modules
===========

``executor``
    :class:`~repro.engine.executor.QueryEngine`: a bounded worker pool
    with an admission-controlled request queue (full queue -> immediate
    :class:`~repro.util.errors.EngineBusyError`, surfaced as HTTP 429),
    per-query deadlines, best-effort cancellation, and a synchronous
    ``execute`` path for library callers.

``cache``
    :class:`~repro.engine.cache.ResultCache`: an LRU over
    ``(graph, algorithm, normalized query params)`` with
    hit/miss/eviction/invalidation counters and footprint-based
    *selective* invalidation, plus
    :class:`~repro.engine.cache.SubproblemMemo` for intermediates
    (core decompositions, CL-tree keyword lookups) shared across
    overlapping queries.

``index_manager``
    :class:`~repro.engine.index_manager.IndexManager`: explicit
    CL-tree/k-core/truss lifecycle -- build on upload, eagerly, or in
    the background; versioned immutable snapshots (the truss index is
    versioned independently); invalidation hooks wired into
    :class:`~repro.core.maintenance.CoreMaintainer` and
    :class:`~repro.core.truss_maintenance.TrussMaintainer` so
    incremental edge updates bump the versions and selectively evict
    cached results -- with both maintainers attached, even k-truss/ATC
    entries survive updates disjoint from their footprint.

``plans``
    :func:`~repro.engine.plans.plan_search`: picks the CS strategy
    (CL-tree-backed ACQ vs. index-free local expansion) from graph
    size, index readiness, and keyword constraints; powers the
    ``"algorithm": "auto"`` API.

``stats``
    :class:`~repro.engine.stats.EngineStats`: latency histograms
    (p50/p95) and throughput counters behind ``/v1/metrics``.

``backends``, ``retry``, ``payloads``
    The job pipeline under
    :meth:`~repro.engine.executor.QueryEngine.run_jobs`: the two
    substrates a job runs on (worker process, calling thread) and the
    picklable job functions; the retry / hedge / circuit-breaker
    policy applied to every dispatch; and the zero-copy transport
    (shared-memory segments, pickle where none can be created) that
    carries :class:`~repro.graph.frozen.FrozenGraph` payloads.

Choosing a backend
==================

``QueryEngine(backend="thread")`` (default) keeps everything
in-process: shared memory, no serialisation, lowest latency -- the
right choice for small graphs, warm-cache interactive traffic, and
single-core hosts.  ``backend="process"`` ships CPU-bound work (whole
queries, detections, CL-tree builds) to worker processes over frozen
:class:`~repro.graph.frozen.FrozenGraph` snapshots, dodging the GIL
-- pick it for multi-core hosts where cold structural queries and
index builds dominate.  Results are identical either way (a
property-tested invariant); the process backend transparently falls
back inline on any pool failure, and its overheads are observable as
``snapshot_build`` / ``shard_ipc`` / ``index_build_ipc`` latency ops
in ``/v1/metrics``::

    explorer = CExplorer(workers=4, backend="process")
    explorer.add_graph("dblp", generate_dblp_graph())
    explorer.search("acq", "Jim Gray", k=4)   # runs in the pool
    explorer.engine.snapshot()["backend"]     # "process"

Quickstart
==========

::

    from repro import CExplorer
    from repro.datasets import generate_dblp_graph

    explorer = CExplorer(workers=4)
    explorer.add_graph("dblp", generate_dblp_graph())

    future = explorer.engine.search("acq", "Jim Gray", k=4)
    communities = future.result(timeout=5.0)

    explorer.engine.snapshot()      # queue depth, hit rate, p50/p95

Mutations route through a maintainer so caches stay honest::

    maintainer = explorer.maintainer()      # wired CoreMaintainer
    maintainer.insert_edge(u, v)            # bumps the index version,
                                            # selectively evicts
"""

from repro.engine.backends import (
    BACKENDS,
    ProcessBackend,
    ProcessBackendError,
)
from repro.engine.cache import ResultCache, SubproblemMemo, query_key
from repro.engine.executor import EngineFuture, QueryEngine
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.index_manager import IndexManager, IndexSnapshot
from repro.engine.plans import QueryPlan, plan_search
from repro.engine.retry import (
    CircuitBreaker,
    ResiliencePlane,
    RetryPolicy,
)
from repro.engine.stats import EngineStats, LatencyHistogram
from repro.engine.tracing import QueryTrace, TraceRecorder

__all__ = [
    "BACKENDS",
    "CircuitBreaker",
    "EngineFuture",
    "EngineStats",
    "FaultPlan",
    "FaultRule",
    "IndexManager",
    "IndexSnapshot",
    "LatencyHistogram",
    "ProcessBackend",
    "ProcessBackendError",
    "QueryEngine",
    "QueryPlan",
    "QueryTrace",
    "ResiliencePlane",
    "ResultCache",
    "RetryPolicy",
    "SubproblemMemo",
    "TraceRecorder",
    "plan_search",
    "query_key",
]
