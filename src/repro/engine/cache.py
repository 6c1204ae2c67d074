"""The engine's result cache.

Interactive exploration repeats itself: every ``display`` click
re-runs its search, compare screens re-run each method, and many users
probe the same hub authors.  FDB-style sharing of computation across
overlapping queries (PAPERS.md) is the win this module captures:

* :class:`ResultCache` -- an LRU over ``(graph, algorithm, normalized
  query params)`` with hit/miss/eviction/invalidation counters and
  *selective* invalidation: entries record the vertex footprint of
  their result, so a maintenance update only evicts entries whose
  footprint touches the affected region (for algorithm families where
  that is sound; everything else is dropped conservatively).
  Concurrent identical misses (many users landing on the same hub
  author at once) share one computation through the index manager's
  flight table (:meth:`~repro.engine.index_manager.IndexManager.once`),
  not through the cache.

Keys are produced by :func:`query_key`, which canonicalises parameter
order (multi-vertex queries and keyword sets are order-insensitive).
"""

import threading
import time
from collections import OrderedDict

from repro.engine import tracing

# Algorithm families for which footprint-based selective invalidation
# is sound.  Their communities are minimum-degree subgraphs: an edge
# update can only change results whose vertex set touches the edge's
# endpoints, the promoted/demoted vertices, or those vertices'
# neighbourhoods (component merges/splits pass through a changed
# vertex's neighbours).
SELECTIVE_SAFE_ALGORITHMS = frozenset(
    {"acq", "acq-inc-s", "acq-inc-t", "global"})

# Triangle-based families.  Their results cascade along triangle
# connectivity, which only a
# :class:`~repro.core.truss_maintenance.TrussMaintainer` tracks: when
# an invalidation event carries the truss-affected vertex set, entries
# whose footprint is disjoint from it survive; without one (core-only
# maintenance) they are dropped conservatively, exactly as before.
TRUSS_SELECTIVE_ALGORITHMS = frozenset({"k-truss", "atc"})

# Invalidation reason labels reported by :meth:`ResultCache.stats` --
# the metrics endpoint surfaces these so a deployment can see whether
# evictions are precise cascades or blind evict-alls.
INVALIDATION_REASONS = ("core-cascade", "truss-cascade", "evict-all")


def _canonical(value):
    """A hashable canonical form for one parameter value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def query_key(graph_name, algorithm, q, k, keywords=None, params=None):
    """Build the canonical cache key for one search.

    Multi-vertex queries and keyword sets are order-insensitive; extra
    ``params`` are normalised recursively (dicts by sorted key).
    """
    if isinstance(q, (list, tuple, set, frozenset)):
        q = tuple(sorted(q))
    kw = frozenset(keywords) if keywords is not None else None
    extras = _canonical(params) if params else ()
    return (graph_name, algorithm, q, k, kw, extras)


class _Entry:
    __slots__ = ("value", "vertices")

    def __init__(self, value, vertices):
        self.value = value
        self.vertices = vertices


class ResultCache:
    """Thread-safe LRU result cache with selective invalidation.

    ``put`` may record the result's vertex footprint (a set of vertex
    ids); :meth:`invalidate` with an ``affected`` set then keeps
    entries provably untouched by the update.  Entries stored without
    a footprint are always dropped on invalidation.

    :meth:`invalidate` also records the graph version it was told of,
    and a ``put`` carrying the version its computation began at is
    dropped when a bump has landed since: an answer that straddled an
    update may describe either side of it.
    """

    key = staticmethod(query_key)

    def __init__(self, capacity=512):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidations_by_reason = {
            reason: 0 for reason in INVALIDATION_REASONS}
        # graph name -> the version the last invalidation announced.
        self._versions = {}

    def get(self, key, record_miss=True):
        """The cached value or ``None``; refreshes LRU recency.

        ``record_miss=False`` marks a probe beside a real lookup (the
        engine's fast-path peek before it, the single-flight re-read
        after it): it counts a hit but no miss, and records no span,
        so a miss is counted and traced once.

        When a query trace is active on this thread a real lookup is
        recorded as a ``cache_lookup`` span tagged with the outcome
        (timing is only measured while traced -- the warm fast path
        pays one thread-local read otherwise).
        """
        trace = tracing.current_trace() if record_miss else None
        start = time.perf_counter() if trace is not None else 0.0
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                if record_miss:
                    self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        if trace is not None:
            trace.add_span("cache_lookup",
                           time.perf_counter() - start,
                           tags={"hit": entry is not None,
                                 "algorithm": key[1]})
        return entry.value if entry is not None else None

    def put(self, key, value, vertices=None, version=None):
        """Insert ``value``; ``vertices`` is the optional footprint
        that enables selective invalidation for this entry.  With the
        graph ``version`` the computation began at, the entry is
        dropped instead when an invalidation has announced another
        version of the graph since.  Recorded as a ``cache_store`` span
        when a query trace is active."""
        trace = tracing.current_trace()
        start = time.perf_counter() if trace is not None else 0.0
        with self._lock:
            if version is not None \
                    and self._versions.get(key[0], version) != version:
                return
            self._data[key] = _Entry(value, vertices)
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
        if trace is not None:
            trace.add_span("cache_store",
                           time.perf_counter() - start,
                           tags={"algorithm": key[1],
                                 "footprint": len(vertices)
                                 if vertices else 0})

    def invalidate(self, graph_name=None, affected=None,
                   truss_affected=None, version=None):
        """Evict entries made stale by an update to ``graph_name``.

        ``graph_name=None`` clears everything.  ``version`` is the
        graph's version after the update; later puts computed at any
        other version are dropped.
        ``affected`` is the core-cascade vertex region: entries of the
        minimum-degree families survive when their recorded footprint
        is disjoint from it.  ``truss_affected`` is the
        triangle-support cascade region a
        :class:`~repro.core.truss_maintenance.TrussMaintainer` reports:
        k-truss/ATC entries survive when their footprint is disjoint
        from *it*.  A family whose region was not supplied is dropped
        conservatively (the ``evict-all`` fallback, counted per reason
        in :meth:`stats`).  Returns the eviction count.
        """
        with self._lock:
            if graph_name is not None:
                self._versions[graph_name] = version
            stale = []
            reasons = []
            for key, entry in self._data.items():
                if graph_name is not None and key[0] != graph_name:
                    continue
                algorithm = key[1]
                if algorithm in TRUSS_SELECTIVE_ALGORITHMS:
                    region, reason = truss_affected, "truss-cascade"
                elif algorithm in SELECTIVE_SAFE_ALGORITHMS:
                    region, reason = affected, "core-cascade"
                else:
                    region, reason = None, "evict-all"
                # An *empty* footprint (a cached "no community"
                # answer) must not count as disjoint: the update may
                # be exactly what makes the query answerable.
                if (region is not None and entry.vertices
                        and entry.vertices.isdisjoint(region)):
                    continue
                stale.append(key)
                reasons.append(reason if region is not None
                               else "evict-all")
            for key, reason in zip(stale, reasons):
                del self._data[key]
                self.invalidations_by_reason[reason] += 1
            self.invalidations += len(stale)
            evicted = len(stale)
            reason_counts = {}
            for reason in reasons:
                reason_counts[reason] = reason_counts.get(reason, 0) + 1
        # Attributable in traces too: a maintenance event landing
        # inside a traced request shows up with its eviction reasons.
        tracing.add_span("cache_invalidate", 0.0, evicted=evicted,
                         reasons=reason_counts)
        return evicted

    def __len__(self):
        with self._lock:
            return len(self._data)

    def entries_by_graph(self):
        """``{graph_name: entry count}`` -- the per-graph occupancy
        the metrics endpoint reports, so a multi-graph deployment can
        see which graph owns the warm set."""
        with self._lock:
            counts = {}
            for key in self._data:
                counts[key[0]] = counts.get(key[0], 0) + 1
            return counts

    def stats(self):
        """Hit/miss/eviction counters for the metrics endpoint,
        including per-reason invalidation counts."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "invalidations_by_reason":
                    dict(self.invalidations_by_reason),
            }
