"""Cross-query batching: the admission layer between the serving
front-end and the :class:`~repro.engine.executor.QueryEngine`.

A server handling concurrent traffic sees the same expensive work many
times in flight at once: eight users probing the same hub author all
miss the cache (none of them has finished yet, so none has filled it)
and all eight pay the full search -- the classic thundering herd.  And
even distinct queries repeat most of their cost: same graph, same
frozen payload round-trip, same core/CL-tree/truss decompositions in
the worker.  This module makes that concurrency *pay* instead of
multiplying work:

* an **admission window** -- a submitted query waits a few
  milliseconds for companions; everything that arrives inside the
  window is dispatched as one batch, so one cached
  :class:`~repro.engine.index_manager.GraphPayload` round-trip serves
  the whole batch;

* **single-flight dedup** -- queries with the same cache key share one
  execution: the first becomes the *leader*, the rest are *followers*
  resolved from the leader's result (counted as ``shared_answers``);

* a **query-intersection-graph (QIG) grouper** -- remaining distinct
  queries are clustered by overlapping ``(graph, version, algorithm
  family, k, keywords)`` signatures, litmus-style (SNIPPETS.md): two
  queries are QIG-adjacent when every component of their signatures is
  compatible, and a greedy clique cover turns the QIG into execution
  groups.  A group is answered from **one** engine job -- one queue
  hop, one payload ship, shared worker-side decompositions -- plus
  per-query finishing.

Batched execution is byte-identical to serial execution: each query in
a group still runs the exact whole-query pipeline
(:func:`~repro.engine.backends.batch_full_query_job`, which is
:func:`~repro.engine.backends.full_query_job` per spec) or the
plain :meth:`~repro.explorer.cexplorer.CExplorer.search` path --
grouping changes *where* the work runs and how often shared state is
rebuilt, never the per-query result (property-tested across
backends).

The batcher is front-end-agnostic: the async server awaits the
returned :class:`~repro.engine.executor.EngineFuture` through its
poll bridge, the sync server blocks a handler thread on it, and
library callers may use it directly for client-side batching.
"""

import threading
import time

from repro.engine.executor import EngineFuture
from repro.engine.plans import (
    ACQ_FAMILY,
    FULL_QUERY_ALGORITHMS,
    TRUSS_FAMILY,
    plan_search,
)
from repro.util.errors import (
    BatchMemberError,
    CExplorerError,
    EngineBusyError,
)

__all__ = ["QueryBatcher", "QueryIntersectionGraph", "signature_family"]


def signature_family(algorithm):
    """The sharing family of a concrete algorithm name.

    The ACQ variants share CL-tree/core structure, the triangle
    family shares truss structure; every other algorithm only shares
    with itself.
    """
    if algorithm in ACQ_FAMILY:
        return "acq"
    if algorithm in TRUSS_FAMILY:
        return "truss"
    return algorithm


class _BatchRequest:
    """One submitted query waiting in the admission window."""

    __slots__ = ("graph", "algorithm", "vertex", "k", "keywords",
                 "timeout", "future", "submitted_at",
                 # filled in at dispatch time
                 "plan", "q", "cache_key", "signature")

    def __init__(self, graph, algorithm, vertex, k, keywords, timeout):
        self.graph = graph
        self.algorithm = algorithm
        self.vertex = vertex
        self.k = k
        self.keywords = keywords
        self.timeout = timeout
        self.future = EngineFuture()
        self.submitted_at = time.perf_counter()
        self.plan = None
        self.q = None
        self.cache_key = None
        self.signature = None


class QueryIntersectionGraph:
    """The QIG over one batch: vertices are (leader) requests, edges
    connect requests whose signatures overlap.

    A signature is ``(graph, version, family, k, keywords)``; two
    signatures overlap when graph/version/family/k agree exactly and
    the keyword constraints are compatible (either side unconstrained,
    or a non-empty intersection).  :meth:`groups` covers the QIG with
    greedy cliques -- every member of a group is pairwise adjacent, so
    one fan-out's shared state (payload, decompositions, postings) is
    relevant to the whole group.
    """

    def __init__(self, requests):
        self.requests = list(requests)
        self._adjacent = {i: set() for i in range(len(self.requests))}
        for i, a in enumerate(self.requests):
            for j in range(i + 1, len(self.requests)):
                if self._overlap(a, self.requests[j]):
                    self._adjacent[i].add(j)
                    self._adjacent[j].add(i)

    @staticmethod
    def _overlap(a, b):
        """Whether two requests' signatures intersect."""
        (graph_a, version_a, family_a, k_a, kw_a) = a.signature
        (graph_b, version_b, family_b, k_b, kw_b) = b.signature
        if (graph_a, version_a, family_a, k_a) != \
                (graph_b, version_b, family_b, k_b):
            return False
        if kw_a is None or kw_b is None:
            return True
        return bool(kw_a & kw_b)

    def groups(self, max_size=16):
        """A greedy clique cover in submission order.

        Each request joins the first group it is adjacent to *every*
        member of (the clique constraint keeps a group's shared
        signature meaningful); otherwise it opens a new group.
        ``max_size`` caps a group so one giant clique cannot serialise
        the whole batch behind a single worker job.
        """
        groups = []
        for i in range(len(self.requests)):
            placed = False
            for group in groups:
                if len(group) >= max_size:
                    continue
                if all(j in self._adjacent[i] for j in group):
                    group.append(i)
                    placed = True
                    break
            if not placed:
                groups.append([i])
        return [[self.requests[i] for i in group] for group in groups]


class QueryBatcher:
    """Admission-window batching front for one explorer's engine.

    :meth:`submit` returns an :class:`~repro.engine.executor.
    EngineFuture` immediately; a background flusher collects everything
    that arrives within ``window`` seconds (or until ``max_batch``
    queued) and dispatches the batch: cache hits resolve inline,
    duplicates share a leader's execution, and the remaining distinct
    queries are QIG-grouped into one engine job per group.

    ``window=0`` still batches whatever is *concurrently* queued (the
    flusher takes the pending list whole) without adding latency.
    """

    def __init__(self, explorer, window=0.005, max_batch=64,
                 max_group=16):
        if window < 0:
            raise ValueError("window must be >= 0")
        self.explorer = explorer
        self.engine = explorer.engine
        self.window = window
        self.max_batch = max(1, int(max_batch))
        self.max_group = max(1, int(max_group))
        self._pending = []
        self._cond = threading.Condition()
        self._thread = None
        self._closed = False
        # Occupancy gauges the engine counters cannot express.
        self._lock = threading.Lock()
        self.last_batch_size = 0
        self.max_batch_size = 0
        self.last_group_sizes = []

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, algorithm, vertex, k=4, keywords=None,
               timeout=None):
        """Queue one search; returns a future resolving to its
        communities.

        Cache hits resolve immediately (no window latency, exactly
        like :meth:`~repro.engine.executor.QueryEngine.search`); a
        closed batcher degrades to the engine's unbatched path rather
        than failing the query.
        """
        explorer = self.explorer
        name = explorer._require_current()
        cached = explorer.peek_cached(algorithm, vertex, k=k,
                                     keywords=keywords)
        if cached is not None:
            return EngineFuture.resolved(cached)
        if self._closed:
            return self.engine.search(algorithm, vertex, k=k,
                                      keywords=keywords, timeout=timeout)
        request = _BatchRequest(name, algorithm, vertex, k, keywords,
                                timeout)
        with self._cond:
            if self._closed:
                return self.engine.search(algorithm, vertex, k=k,
                                          keywords=keywords,
                                          timeout=timeout)
            self._ensure_flusher()
            self._pending.append(request)
            self._cond.notify_all()
        return request.future

    def _ensure_flusher(self):
        """Start the window flusher on first use (caller holds the
        condition lock)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._flush_loop,
                                            name="query-batcher",
                                            daemon=True)
            self._thread.start()

    def close(self):
        """Stop the flusher; pending requests are still dispatched."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # the flusher
    # ------------------------------------------------------------------
    def _flush_loop(self):
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                # The admission window opens when the first query of
                # the batch arrived; late arrivals join but never
                # extend it, so worst-case added latency is `window`.
                deadline = self._pending[0].submitted_at + self.window
                while not self._closed \
                        and len(self._pending) < self.max_batch:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                batch, self._pending = self._pending, []
            try:
                self._dispatch(batch)
            except BaseException as exc:  # never kill the flusher
                for request in batch:
                    request.future.set_exception(exc)

    # ------------------------------------------------------------------
    # dispatch: plan, dedup, group, submit
    # ------------------------------------------------------------------
    def _dispatch(self, batch):
        engine = self.engine
        stats = engine.stats
        stats.count("batches")
        stats.count("batched_queries", len(batch))
        with self._lock:
            self.last_batch_size = len(batch)
            self.max_batch_size = max(self.max_batch_size, len(batch))
        now = time.perf_counter()
        for request in batch:
            stats.observe("batch_wait", now - request.submitted_at)
        leaders = {}
        followers = {}
        for request in batch:
            try:
                self._prepare(request)
            except Exception as exc:
                # Bad vertex / unknown algorithm / removed graph:
                # fail this request alone, keep the batch going.
                request.future.set_exception(exc)
                continue
            cached = self.explorer.cache.get(request.cache_key,
                                            record_miss=False)
            if cached is not None:
                # Filled since the window opened (by an earlier batch
                # or a direct library call).
                request.future.set_result(cached)
                continue
            leader = leaders.get(request.cache_key)
            if leader is None:
                leaders[request.cache_key] = request
            else:
                followers.setdefault(leader, []).append(request)
        if not leaders:
            return
        groups = QueryIntersectionGraph(
            leaders.values()).groups(self.max_group)
        stats.count("batch_groups", len(groups))
        with self._lock:
            self.last_group_sizes = [len(g) for g in groups]
        for group in groups:
            self._submit_group(group, followers)

    def _prepare(self, request):
        """Resolve the request against current graph/index state:
        concrete plan, canonical query, cache key, QIG signature."""
        from repro.algorithms.registry import get_cs_algorithm

        explorer = self.explorer
        name = request.graph
        graph = explorer.indexes.graph(name)
        if request.algorithm != "auto":
            # Fail unknown names here, in the flusher, instead of
            # spending a worker job to discover them.
            get_cs_algorithm(request.algorithm)
        request.q = explorer._resolve_query(request.vertex)
        request.plan = plan_search(
            request.algorithm, graph,
            index_ready=explorer.indexes.built(name),
            keywords=request.keywords,
            full_payload=self.engine.full_query_capable(name))
        algorithm = request.plan.algorithm
        request.cache_key = explorer.cache.key(
            name, algorithm, request.q, request.k, request.keywords)
        keywords = (frozenset(request.keywords)
                    if request.keywords else None)
        request.signature = (name, explorer.indexes.version(name),
                             signature_family(algorithm), request.k,
                             keywords)

    def _submit_group(self, group, followers):
        """One engine job for one QIG group (admission-controlled:
        a full queue fails the whole group fast, never hangs it)."""
        engine = self.engine
        timeouts = [r.timeout for r in group if r.timeout is not None]
        timeout = max(timeouts) if timeouts else engine.default_timeout
        trace = engine.tracer.begin(
            "batch", graph=group[0].graph,
            family=group[0].signature[2], queries=len(group),
            shared=sum(len(followers.get(r, ())) for r in group))
        for request in group:
            request.future.trace = trace
            for follower in followers.get(request, ()):
                follower.future.trace = trace
        try:
            engine.submit(self._execute_group, group, followers,
                          op="batch", timeout=timeout, trace=trace)
        except EngineBusyError as exc:
            engine.stats.count("batch_rejected", len(group))
            for request in group:
                request.future.set_exception(exc)
                for follower in followers.get(request, ()):
                    follower.future.set_exception(exc)

    # ------------------------------------------------------------------
    # group execution (runs on an engine worker)
    # ------------------------------------------------------------------
    def _execute_group(self, group, followers):
        """Answer every query of one group, sharing one payload
        round-trip when the whole-query pipeline is eligible.

        Every member future is guaranteed to resolve: a per-query
        failure (bad parameters surviving planning, an algorithm
        erroring at run time) fails that query and its followers
        alone, and an unexpected group-level failure fails whatever
        is still unresolved -- a batched client never hangs until the
        deadline on someone else's error.
        """
        try:
            return self._run_group(group, followers)
        except BaseException as exc:
            for request in group:
                self._fail(request, followers, exc)
            raise

    def _run_group(self, group, followers):
        from repro.engine import tracing

        engine = self.engine
        name = group[0].graph
        eligible = [r for r in group if self._batch_job_eligible(r)]
        results = {}
        if len(eligible) == len(group) and len(group) > 1 \
                and engine.full_query_capable(name):
            specs = [(r.plan.algorithm, r.q, r.k,
                      tuple(sorted(r.keywords))
                      if r.keywords else None) for r in group]
            try:
                with tracing.span("batch_execute", queries=len(group)):
                    answers = engine.search_full_query_batch(name, specs)
            except (CExplorerError, IndexError, KeyError, RuntimeError):
                # Unregistered-name race or torn snapshot: fall back
                # to the serial per-query path, visibly.
                engine.stats.count("batch_fallbacks")
            else:
                for request, answer in zip(group, answers):
                    if isinstance(answer, BatchMemberError):
                        # One member failed inside the worker: leave
                        # it out of ``results`` so the serial loop
                        # below retries it solo -- the rest of the
                        # group keeps its shared-round-trip answer.
                        engine.stats.count("batch_member_retries")
                        continue
                    footprint = {v for c in answer for v in c}
                    self.explorer.cache.put(request.cache_key, answer,
                                            vertices=footprint)
                    results[request] = answer
        for request in group:
            if request in results:
                continue
            try:
                with tracing.span("batch_query",
                                  algorithm=request.plan.algorithm,
                                  k=request.k):
                    results[request] = self.explorer.search(
                        request.algorithm, request.vertex,
                        k=request.k, keywords=request.keywords)
            except Exception as exc:
                self._fail(request, followers, exc)
        shared = 0
        for request in group:
            if request not in results:
                continue  # failed above; future already resolved
            answer = results[request]
            request.future.set_result(answer)
            for follower in followers.get(request, ()):
                follower.future.set_result(answer)
                shared += 1
        if shared:
            engine.stats.count("shared_answers", shared)
        return len(group)

    @staticmethod
    def _fail(request, followers, exc):
        """Resolve one request's (and its followers') still-pending
        futures with ``exc``."""
        for future in [request.future] + \
                [f.future for f in followers.get(request, ())]:
            if not future.done():
                future.set_exception(exc)

    def _batch_job_eligible(self, request):
        """Whether one request may ride the single batch worker job.

        Algorithms outside the whole-query protocol keep the plain
        search path (results are identical either way; this only picks
        the substrate).
        """
        return request.plan.algorithm in FULL_QUERY_ALGORITHMS

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self):
        """Occupancy and configuration for the metrics endpoint.

        Counters (``batches``, ``batched_queries``, ``batch_groups``,
        ``shared_answers``, ``batch_rejected``, ``batch_fallbacks``)
        live in the engine's shared :class:`~repro.engine.stats.
        EngineStats`; this document carries what only the batcher
        knows.
        """
        engine_stats = self.engine.stats
        with self._lock:
            doc = {
                "window_seconds": self.window,
                "max_batch": self.max_batch,
                "max_group": self.max_group,
                "last_batch_size": self.last_batch_size,
                "max_batch_size": self.max_batch_size,
                "last_group_sizes": list(self.last_group_sizes),
            }
        with self._cond:
            doc["pending"] = len(self._pending)
        doc["batches"] = engine_stats.get("batches")
        doc["batched_queries"] = engine_stats.get("batched_queries")
        doc["groups"] = engine_stats.get("batch_groups")
        doc["shared_answers"] = engine_stats.get("shared_answers")
        return doc
