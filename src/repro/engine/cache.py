"""Search answers, held on the graph version they were computed from.

Interactive exploration repeats itself: every ``display`` click
re-runs its search, compare screens re-run each method, and many users
probe the same hub authors.  FDB-style sharing of computation across
overlapping queries (PAPERS.md) is the win this module captures:

* every :class:`~repro.engine.index_manager.VersionRecord` holds the
  answers computed against it in ``answers``: an LRU of ``query key ->
  (communities, vertex footprint)``, bounded per graph version;
* :class:`ResultCache` is the index manager's lookup, store and carry
  over those maps, with hit/miss/eviction/invalidation counters.  A
  version bump (:meth:`IndexManager.invalidate
  <repro.engine.index_manager.IndexManager.invalidate>`) hands the
  next record the answers the update provably did not touch -- those
  whose footprint is disjoint from the affected region, for the
  minimum-degree families where that is sound -- and drops the rest
  (the triangle families among them: no region is tracked for them).
  Concurrent identical misses (many users landing on the same hub
  author at once) share one computation through the index manager's
  flight table (:meth:`~repro.engine.index_manager.IndexManager.once`),
  not through the cache.

Keys are produced by :func:`query_key`, which canonicalises parameter
order (multi-vertex queries and keyword sets are order-insensitive).
"""

import time

from repro.engine import tracing

# Algorithm families for which footprint-based selective invalidation
# is sound.  Their communities are minimum-degree subgraphs: an edge
# update can only change results whose vertex set touches the edge's
# endpoints, the promoted/demoted vertices, or those vertices'
# neighbourhoods (component merges/splits pass through a changed
# vertex's neighbours).
SELECTIVE_SAFE_ALGORITHMS = frozenset(
    {"acq", "acq-inc-s", "acq-inc-t", "global"})

# Invalidation reason labels reported by :meth:`ResultCache.stats` --
# the metrics endpoint surfaces these so a deployment can see whether
# evictions are precise cascades or blind evict-alls.
INVALIDATION_REASONS = ("core-cascade", "evict-all")


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


class _Answer:
    __slots__ = ("value", "vertices")

    def __init__(self, value, vertices):
        self.value = value
        self.vertices = vertices


class ResultCache:
    """Thread-safe lookups and stores of the search answers on an
    index manager's version records, with LRU eviction per record,
    and selective invalidation.

    ``get`` and ``put`` act on the ``record`` a search pinned, by
    default on the current record of the key's graph.  ``put`` may
    record the answer's vertex footprint (a set of vertex ids);
    :meth:`invalidate` with an ``affected`` set then keeps answers
    provably untouched by the update.  Answers stored without a
    footprint are always dropped on invalidation.  Every operation
    runs under the manager's lock, so a bump's carry and the swap that
    publishes the next record are one step.
    """

    key = staticmethod(query_key)

    def __init__(self, indexes, capacity=256):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._indexes = indexes
        self._lock = indexes._lock
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.invalidations_by_reason = {
            reason: 0 for reason in INVALIDATION_REASONS}

    def get(self, key, record_miss=True, record=None):
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
            if record is None:
                record = self._indexes.record(key[0])
            answer = record.answers.get(key)
            if answer is None:
                if record_miss:
                    self.misses += 1
            else:
                record.answers.move_to_end(key)
                self.hits += 1
        if trace is not None:
            trace.add_span("cache_lookup",
                           time.perf_counter() - start,
                           tags={"hit": answer is not None,
                                 "algorithm": key[1]})
        return answer.value if answer is not None else None

    def put(self, key, value, vertices=None, record=None):
        """Store ``value`` on ``record``; ``vertices`` is the optional
        footprint that lets the answer survive a bump.  A put on a
        superseded record lands where no new reader looks.  Recorded
        as a ``cache_store`` span when a query trace is active."""
        trace = tracing.current_trace()
        start = time.perf_counter() if trace is not None else 0.0
        with self._lock:
            if record is None:
                record = self._indexes.record(key[0])
            answers = record.answers
            answers[key] = _Answer(value, vertices)
            answers.move_to_end(key)
            while len(answers) > self.capacity:
                answers.popitem(last=False)
                self.evictions += 1
        if trace is not None:
            trace.add_span("cache_store",
                           time.perf_counter() - start,
                           tags={"algorithm": key[1],
                                 "footprint": len(vertices)
                                 if vertices else 0})

    def invalidate(self, graph_name=None, affected=None):
        """Drop the current answers an update to ``graph_name`` could
        have changed -- on a bump, before they move to the next record.

        ``graph_name=None`` applies to every graph.
        ``affected`` is the core-cascade vertex region: answers of the
        minimum-degree families survive when their recorded footprint
        is disjoint from it.  Every other answer -- and every answer
        when no region is supplied -- is dropped conservatively (the
        ``evict-all`` fallback, counted per reason in :meth:`stats`).
        Returns the eviction count.
        """
        reason_counts = {}
        with self._lock:
            if graph_name is None:
                records = self._indexes.records().values()
            else:
                records = [self._indexes.record(graph_name)]
            for record in records:
                answers = record.answers
                for key, answer in list(answers.items()):
                    if affected is None or \
                            key[1] not in SELECTIVE_SAFE_ALGORITHMS:
                        reason = "evict-all"
                    # An *empty* footprint (a cached "no community"
                    # answer) must not count as disjoint: the update
                    # may be exactly what makes the query answerable.
                    elif answer.vertices \
                            and answer.vertices.isdisjoint(affected):
                        continue
                    else:
                        reason = "core-cascade"
                    del answers[key]
                    reason_counts[reason] = \
                        reason_counts.get(reason, 0) + 1
            evicted = sum(reason_counts.values())
            self.invalidations += evicted
            for reason, count in reason_counts.items():
                self.invalidations_by_reason[reason] += count
        # Attributable in traces too: a maintenance event landing
        # inside a traced request shows up with its eviction reasons.
        tracing.add_span("cache_invalidate", 0.0, evicted=evicted,
                         reasons=reason_counts)
        return evicted

    def __len__(self):
        return sum(self.entries_by_graph().values())

    def entries_by_graph(self):
        """``{graph_name: answer count}`` of each graph's current
        version -- the per-graph occupancy the metrics endpoint
        reports, so a multi-graph deployment can see which graph owns
        the warm set.  Graphs holding no answers are left out."""
        with self._lock:
            return {name: len(record.answers)
                    for name, record in self._indexes.records().items()
                    if record.answers}

    def stats(self):
        """Hit/miss/eviction counters for the metrics endpoint,
        including per-reason invalidation counts; ``entries`` counts
        the answers of every graph's current version, ``capacity`` is
        the bound on one version's."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 4) if total else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "invalidations_by_reason":
                    dict(self.invalidations_by_reason),
            }
