"""The engine's result cache and memoized subproblem store.

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

* :class:`SubproblemMemo` -- memoized shared subproblems (core
  decompositions, CL-tree keyword candidate lists, k-core membership
  sets) keyed by ``(graph, index version, kind, key)``, so overlapping
  queries rebuild none of the expensive intermediates.

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
        # Optional second tier: a
        # :class:`repro.engine.payloads.ResultSpill` the engine wires
        # in when it has a persistent store.  LRU evictees spill to
        # disk instead of vanishing; misses probe the spill and
        # readmit lazily.  ``None`` keeps the cache purely in-memory.
        self.spill = None
        self.spill_hits = 0

    def get(self, key, record_miss=True):
        """The cached value or ``None``; refreshes LRU recency.

        ``record_miss=False`` keeps a speculative probe (the engine's
        fast-path peek, which falls through to a real lookup) from
        double-counting misses.

        When a query trace is active on this thread the lookup is
        recorded as a ``cache_lookup`` span tagged with the outcome
        (timing is only measured while traced -- the warm fast path
        pays one thread-local read otherwise).
        """
        trace = tracing.current_trace()
        start = time.perf_counter() if trace is not None else 0.0
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                if record_miss:
                    self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        spilled = False
        if entry is None and self.spill is not None:
            found = self.spill.fetch(key)
            if found is not None:
                value, vertices = found
                entry = _Entry(value, vertices)
                spilled = True
                with self._lock:
                    self.spill_hits += 1
                    self._data[key] = entry
                    self._data.move_to_end(key)
                    evicted = self._evict_over_capacity()
                self._spill_entries(evicted)
        if trace is not None:
            trace.add_span("cache_lookup",
                           time.perf_counter() - start,
                           tags={"hit": entry is not None,
                                 "spill": spilled,
                                 "algorithm": key[1]})
        return entry.value if entry is not None else None

    def put(self, key, value, vertices=None):
        """Insert ``value``; ``vertices`` is the optional footprint
        that enables selective invalidation for this entry.  Recorded
        as a ``cache_store`` span when a query trace is active."""
        trace = tracing.current_trace()
        start = time.perf_counter() if trace is not None else 0.0
        with self._lock:
            self._data[key] = _Entry(value, vertices)
            self._data.move_to_end(key)
            evicted = self._evict_over_capacity()
        self._spill_entries(evicted)
        if trace is not None:
            trace.add_span("cache_store",
                           time.perf_counter() - start,
                           tags={"algorithm": key[1],
                                 "footprint": len(vertices)
                                 if vertices else 0})

    def _evict_over_capacity(self):
        """Pop LRU entries past capacity (lock held by the caller);
        returns the evicted ``(key, entry)`` pairs so they can spill
        to disk outside the lock."""
        evicted = []
        while len(self._data) > self.capacity:
            evicted.append(self._data.popitem(last=False))
            self.evictions += 1
        return evicted

    def _spill_entries(self, pairs):
        """Offer evicted entries to the spill tier (no-op without
        one).  Runs outside the cache lock: spill writes hit disk."""
        if self.spill is None or not pairs:
            return
        for key, entry in pairs:
            self.spill.offer(key, entry.value, entry.vertices)

    def flush_spill(self):
        """Write every live entry through to the spill tier (engine
        shutdown: the next process readmits the warm set lazily).
        Returns the number of entries offered."""
        if self.spill is None:
            return 0
        with self._lock:
            pairs = list(self._data.items())
        self._spill_entries(pairs)
        return len(pairs)

    def invalidate(self, graph_name=None, affected=None,
                   truss_affected=None):
        """Evict entries made stale by an update to ``graph_name``.

        ``graph_name=None`` clears everything.  ``affected`` is the
        core-cascade vertex region: entries of the minimum-degree
        families survive when their recorded footprint is disjoint
        from it.  ``truss_affected`` is the triangle-support cascade
        region a :class:`~repro.core.truss_maintenance.TrussMaintainer`
        reports: k-truss/ATC entries survive when their footprint is
        disjoint from *it*.  A family whose region was not supplied is
        dropped conservatively (the ``evict-all`` fallback, counted
        per reason in :meth:`stats`).  Returns the eviction count.
        """
        with self._lock:
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
                "spill_hits": self.spill_hits,
                "spill": self.spill.stats() if self.spill is not None
                else {"enabled": False},
            }


class SubproblemMemo:
    """LRU memo for expensive intermediates shared across queries.

    Keys carry the owning graph and its index *version*, so a
    maintenance update orphans old entries without any coordination;
    :meth:`invalidate` reclaims the memory eagerly.
    """

    def __init__(self, capacity=128):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, graph_name, version, kind, key, compute):
        """Return the memoized value, computing (and storing) on miss.

        ``compute`` runs outside the lock; concurrent first callers may
        compute twice but the result is consistent (last write wins).
        """
        full_key = (graph_name, version, kind, _canonical(key))
        with self._lock:
            if full_key in self._data:
                self._data.move_to_end(full_key)
                self.hits += 1
                return self._data[full_key]
            self.misses += 1
        value = compute()
        with self._lock:
            self._data[full_key] = value
            self._data.move_to_end(full_key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
        return value

    def invalidate(self, graph_name=None, version=None):
        """Drop stale entries (or everything, when nothing is known).

        ``graph_name=None`` clears the whole memo.  With only a graph
        name, every entry of that graph goes.  With the graph's
        *current* ``version`` supplied, an entry survives exactly when
        it is keyed at that version.
        """
        with self._lock:
            if graph_name is None:
                self._data.clear()
                return
            stale = []
            for key in self._data:
                if key[0] == graph_name and key[1] != version:
                    stale.append(key)
            for key in stale:
                del self._data[key]

    def __len__(self):
        with self._lock:
            return len(self._data)

    def stats(self):
        """Occupancy and hit-rate counters for the metrics endpoint."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
            }
