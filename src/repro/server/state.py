"""Shared serving state: everything both HTTP front-ends hang onto.

The sync :mod:`~repro.server.app` (``ThreadingHTTPServer``) and the
async :mod:`~repro.server.async_app` (``asyncio``) serve the same
route table (:mod:`repro.server.routes`) over the same explorer; this
class is the substrate they share -- sessions, request counters, the
write lock, the metrics document, and the search submission path
(optionally through a cross-query
:class:`~repro.engine.batching.QueryBatcher`) -- so "two servers" is
purely a transport decision, not two serving stacks.
"""

import threading
import time

from repro.explorer.sessions import SessionStore


class ServerState:
    """One serving deployment's shared state around a CExplorer."""

    def __init__(self, explorer, query_timeout=30.0, batch_window=None):
        self.explorer = explorer
        self.engine = explorer.engine
        self.query_timeout = query_timeout
        self.sessions = SessionStore()
        self.started_at = time.time()
        self.request_counts = {}
        self.error_count = 0
        self.metrics_lock = threading.Lock()
        # The upload endpoint mutates the explorer; serialise writers.
        self.write_lock = threading.Lock()
        self.batcher = None
        if batch_window is not None:
            from repro.engine.batching import QueryBatcher
            self.batcher = QueryBatcher(explorer, window=batch_window)

    # ------------------------------------------------------------------
    # request accounting
    # ------------------------------------------------------------------
    def count_request(self, template):
        """Count one request under its **route template** (e.g.
        ``/api/traces/{query_id}``), never the raw path -- the raw
        path embeds client-chosen ids, and counting those grew
        ``request_counts`` without bound (one bucket per trace id)."""
        with self.metrics_lock:
            self.request_counts[template] = \
                self.request_counts.get(template, 0) + 1

    def count_error(self):
        """Count one request answered with an error status."""
        with self.metrics_lock:
            self.error_count += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def submit_search(self, algorithm, vertex, k=4, keywords=None):
        """One community search as an
        :class:`~repro.engine.executor.EngineFuture`.

        Routes through the cross-query batcher when one is enabled
        (the admission window coalesces concurrent queries; cache hits
        still resolve immediately) and through the engine's plan/cache
        path otherwise -- per-query results are identical either way.
        """
        if self.batcher is not None:
            return self.batcher.submit(algorithm, vertex, k=k,
                                       keywords=keywords,
                                       timeout=self.query_timeout)
        return self.engine.search(algorithm, vertex, k=k,
                                  keywords=keywords,
                                  timeout=self.query_timeout)

    def close(self):
        """Stop serving-owned machinery (the batcher's flusher); the
        explorer and engine belong to the caller and are left alone."""
        if self.batcher is not None:
            self.batcher.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics(self):
        """The ``/v1/metrics`` document.

        ``cache.invalidations_by_reason`` breaks evictions down into
        ``core-cascade`` / ``truss-cascade`` (footprint-scoped,
        reported by the attached maintainers) vs ``evict-all`` (the
        conservative fallback); ``truss_invalidations`` and
        ``truss_cascade_size`` summarise the truss maintenance
        subsystem.  With batching enabled, ``batching`` carries the
        admission-window occupancy next to the engine's ``batches`` /
        ``shared_answers`` counters.
        """
        with self.metrics_lock:
            requests = dict(self.request_counts)
            errors = self.error_count
        cache = self.explorer.cache.stats()
        cache["by_graph"] = self.explorer.cache.entries_by_graph()
        truss = self.explorer.indexes.truss_stats()
        doc = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": requests,
            "errors": errors,
            "sessions": len(self.sessions),
            "cache": cache,
            "truss_invalidations":
                cache["invalidations_by_reason"]["truss-cascade"],
            "truss_cascade_size": {
                "last": truss["last_cascade_size"],
                "max": truss["max_cascade_size"],
                "total": truss["changed_edges"],
                "updates": truss["updates"],
            },
            "engine": self.engine.snapshot(),
        }
        if self.batcher is not None:
            doc["batching"] = self.batcher.stats()
        return doc
