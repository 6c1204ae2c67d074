"""``repro.engine`` -- the query execution engine.

Why this layer exists
=====================

C-Explorer (Fang et al., PVLDB 2017) is an *interactive service*: many
concurrent users issue ACQ / k-core / k-truss searches against shared
graphs while uploads and edge edits mutate those graphs underneath.
The seed reproduction ran every search request inline on its HTTP
handler thread with no result reuse and ad-hoc lazy index builds --
fine for one user, hopeless for the ROADMAP's "heavy traffic from
millions of users".  This package is the execution layer between the
server and the algorithms; every later scaling step (an async
server, a process backend) plugs into it.

Every graph is held whole: one versioned CL-tree / k-core index per
graph, the paper's design.

The modules
===========

``executor``
    :class:`~repro.engine.executor.QueryEngine`: a bounded worker pool
    with an admission-controlled request queue (full queue -> immediate
    :class:`~repro.util.errors.EngineBusyError`, surfaced as HTTP 429),
    per-query deadlines, best-effort cancellation, and one blocking
    wait (``QueryEngine.wait``).

``cache``
    :class:`~repro.engine.cache.ResultCache`: an LRU over
    ``(graph, algorithm, normalized query params)`` with
    hit/miss/eviction/invalidation counters and footprint-based
    *selective* invalidation.

``index_manager``
    :class:`~repro.engine.index_manager.IndexManager`: the registry
    of graphs, one record per graph version holding its core numbers,
    CL-tree, truss map, frozen payload and derived values (``global``
    bodies, CODICIL partitions) shared across overlapping queries --
    each computed on the first query that needs it, once per version
    however many queries ask at once; invalidation hooks wired into
    :class:`~repro.core.maintenance.CoreMaintainer` and
    :class:`~repro.core.truss_maintenance.TrussMaintainer` so
    incremental edge updates bump the version and selectively evict
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

``backends``, ``faults``, ``payloads``
    The one-job pipeline under
    :meth:`~repro.engine.executor.QueryEngine.run_job`, which runs a
    whole ACQ-family search: the two substrates the job runs on
    (worker process, calling thread) and the picklable job function;
    the seeded fault plans that exercise its one failure rule (a job
    the pool cannot finish runs once more inline); and the zero-copy
    transport (shared-memory segments, pickle where none can be
    created) that carries :class:`~repro.graph.frozen.FrozenGraph`
    payloads.

Choosing a backend
==================

``QueryEngine(backend="thread")`` (default) keeps everything
in-process: shared memory, no serialisation, lowest latency -- the
right choice for small graphs, warm-cache interactive traffic, and
single-core hosts.  ``backend="process"`` ships whole ACQ-family
searches (``acq``, ``acq-inc-s``, ``acq-inc-t``) to worker processes
over frozen :class:`~repro.graph.frozen.FrozenGraph` snapshots,
dodging the GIL -- the one route measured winning there, distinct
cold ACQ misses on a multi-core host.  Every other search, every
detection and every CL-tree build runs on the engine's threads under
either backend.  Results are identical either way (a property-tested
invariant); a job the pool cannot finish runs once more inline
(``job_inline_fallbacks``), and its overheads are observable as
``snapshot_build`` / ``shard_ipc`` latency ops in ``/v1/metrics``::

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
from repro.engine.cache import ResultCache, query_key
from repro.engine.executor import QueryEngine
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.index_manager import IndexManager
from repro.engine.plans import QueryPlan, plan_search
from repro.engine.stats import EngineStats, LatencyHistogram
from repro.engine.tracing import QueryTrace, TraceRecorder

__all__ = [
    "BACKENDS",
    "EngineStats",
    "FaultPlan",
    "FaultRule",
    "IndexManager",
    "LatencyHistogram",
    "ProcessBackend",
    "ProcessBackendError",
    "QueryEngine",
    "QueryPlan",
    "QueryTrace",
    "ResultCache",
    "TraceRecorder",
    "plan_search",
    "query_key",
]
