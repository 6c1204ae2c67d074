"""Shared serving state: everything both HTTP front-ends hang onto.

The sync :mod:`~repro.server.app` (``ThreadingHTTPServer``) and the
async :mod:`~repro.server.async_app` (``asyncio``) serve the same
route table (:mod:`repro.server.routes`) over the same explorer; this
class is the substrate they share -- sessions, request counters, the
write lock, the metrics document, and the engine with the
``query_timeout`` every engine future is awaited within -- so "two
servers" is purely a transport decision, not two serving stacks.
"""

import threading
import time

from repro.explorer.sessions import SessionStore


class ServerState:
    """One serving deployment's shared state around a CExplorer."""

    def __init__(self, explorer, query_timeout=30.0):
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

    # ------------------------------------------------------------------
    # request accounting
    # ------------------------------------------------------------------
    def count_request(self, template):
        """Count one request under its **route template** (e.g.
        ``/v1/traces/{query_id}``), never the raw path -- the raw
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
    # observability
    # ------------------------------------------------------------------
    def metrics(self):
        """The ``/v1/metrics`` document.

        ``cache`` counts the search answers held on each graph's
        current version record: ``entries`` and ``by_graph`` are their
        occupancy, ``capacity`` the bound per version.
        ``cache.invalidations_by_reason`` breaks the answers a version
        bump dropped down into ``core-cascade`` (footprint-scoped,
        reported by the attached maintainer) vs ``evict-all`` (the
        conservative fallback).
        """
        with self.metrics_lock:
            requests = dict(self.request_counts)
            errors = self.error_count
        cache = self.explorer.cache.stats()
        cache["by_graph"] = self.explorer.cache.entries_by_graph()
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "requests": requests,
            "errors": errors,
            "sessions": len(self.sessions),
            "cache": cache,
            "engine": self.engine.snapshot(),
        }
