"""Sharded graph execution: partitioned CL-tree/k-core indexes plus
the engine-level fan-out/merge that queries them in parallel.

One large graph used to saturate one :class:`IndexManager` entry and
one worker: every structural query re-scanned the whole vertex set on
a single thread, and every maintenance update invalidated the single
monolithic index.  This module decomposes that work the way factorised
query engines decompose large instances (FDB in PAPERS.md) -- split
the graph once, push the per-partition work out to the worker pool,
and combine at the engine layer:

* :func:`partition_graph` / :class:`GraphPartitioner` -- edge-cut
  vertex partitioning.  The default is a deterministic multiplicative
  hash (stable across runs, O(n), oblivious to structure); the
  ``greedy`` method is a METIS-flavoured linear deterministic greedy
  balancer that places each vertex with the neighbours it already has,
  under a capacity penalty, cutting far fewer edges on
  community-structured graphs.  Partition skew is the failure mode the
  dynamic hash-join literature warns about (Jahangiri et al. in
  PAPERS.md); :meth:`Partition.stats` reports balance and cut so the
  metrics endpoint can surface it.

* :class:`ShardedIndexManager` -- an :class:`IndexManager` that, for a
  graph registered with ``shards > 1``, also materialises one induced
  subgraph **per shard** and registers each as its own versioned
  CL-tree/k-core index entry.  A :class:`CoreMaintainer` update is
  routed to the *owning shard only*: an intra-shard edge is applied to
  that shard's subgraph and bumps that shard's version; every other
  shard keeps its cached decomposition.  Shard-local core numbers are
  computed on a subgraph of ``G``, so they lower-bound the true core
  numbers -- which makes them sound *certificates*: a vertex whose
  shard-local core is ``>= k`` is guaranteed to be in the global
  k-core and never needs to be peeled again.

* :func:`sharded_structural_community` -- the exact decompose-then-
  combine query path.  Fan-out: each shard scans only its own
  vertices, classifying them as *certified* (shard-local core >= k),
  *dropped* (global degree < k) or *uncertain*.  Merge: the engine
  drains the peeling cascade over the uncertain vertices (certified
  vertices are immovable), takes the connected component of the query
  vertex, and re-verifies the k-core constraint on every
  boundary-crossing vertex of the merged community.  The result is
  provably the exact connected k-core component -- identical to the
  unsharded answer -- because certified vertices belong to the k-core
  by monotonicity and the cascade is the standard peel restricted to
  the only vertices that can still move.

* :func:`sharded_search` -- runs one shardable community search end to
  end: structural phase fanned out through
  :meth:`~repro.engine.executor.QueryEngine.run_jobs`, then the
  algorithm-specific finish (``global`` builds the community directly;
  every other family finishes through the whole-query job over the
  frozen payload, handed the merged base).  Any failure of the sharded
  plan hands the query back to the caller's unsharded path
  (``shard_fallbacks``).  With ``shards=1`` nothing here runs at all
  -- the engine keeps the exact pre-sharding code path.

* **one scan per shard, on every backend** -- :class:`ShardPayload`
  caches, per ``(graph, version, shard)``, a CSR
  :class:`~repro.graph.frozen.FrozenGraph` snapshot of the shard (plus
  id map and global degrees), and
  :func:`~repro.engine.backends.shard_candidates_job` /
  :func:`~repro.engine.backends.shard_truss_job` answer the
  certify/drop/classify probe over it -- in a ``multiprocessing``
  worker under ``backend="process"`` (the payload ships as a
  shared-memory ref), inline under ``backend="thread"`` (the payload
  object itself is the handle).  The payload is frozen once per shard
  version -- not per query -- and maintenance invalidates it exactly
  when it bumps the shard's index version.  Merge, cascade drain and
  boundary re-verification stay in the parent, so results are
  byte-identical to unsharded execution on either backend.
"""

import time

from repro.core.community import Community
from repro.engine.backends import shard_candidates_job, shard_truss_job
from repro.engine import tracing
from repro.engine.index_manager import GraphPayload, IndexManager
from repro.engine.plans import FANOUT_ALGORITHMS, TRUSS_FAMILY
from repro.graph.frozen import FrozenGraph
from repro.util.errors import (
    CExplorerError,
    QueryCancelledError,
    QueryError,
    QueryTimeoutError,
)

# Algorithms whose structural phase fans out over shards: the k-core
# families (structural phase = the connected k-core component) and,
# since the truss maintenance subsystem landed, the triangle families
# (structural phase = the global k-truss edge set, certified
# shard-locally and completed by peeling only uncertain/cut edges).
# `local` is already sublinear, so it runs unsharded.
SHARDABLE_ALGORITHMS = FANOUT_ALGORITHMS

PARTITION_METHODS = ("hash", "greedy")

_SHARD_SEP = "#shard"

# Knuth's multiplicative constant: spreads consecutive dense ids so a
# hash partition does not put every community on one shard.
_HASH_MULT = 2654435761
_HASH_MASK = 0xFFFFFFFF


def hash_shard(v, shards):
    """Deterministic shard owner of vertex id ``v`` (stable across
    runs and processes -- no reliance on Python's seeded ``hash``)."""
    return ((v * _HASH_MULT) & _HASH_MASK) % shards


class ShardMergeError(CExplorerError):
    """A merged community failed re-verification (a sharding bug --
    surfaced loudly instead of silently returning a wrong answer)."""


class Partition:
    """An edge-cut vertex partition of one graph.

    ``assignment[v]`` is the owning shard of vertex ``v``.  Vertices
    created after partitioning (online inserts) are assigned on demand
    by the deterministic hash rule, so ownership is total at all times.
    """

    __slots__ = ("shards", "method", "assignment", "cut_edges")

    def __init__(self, shards, method, assignment, cut_edges):
        self.shards = shards
        self.method = method
        self.assignment = assignment
        self.cut_edges = cut_edges

    def owner(self, v):
        """The shard owning ``v`` (hash-assigned when ``v`` postdates
        the partitioning pass)."""
        if v < len(self.assignment):
            return self.assignment[v]
        return hash_shard(v, self.shards)

    def assign(self, v):
        """Record ownership for a vertex created after partitioning;
        returns the owning shard."""
        while len(self.assignment) <= v:
            self.assignment.append(
                hash_shard(len(self.assignment), self.shards))
        return self.assignment[v]

    def members(self, shard):
        """Vertex ids owned by ``shard`` (in id order)."""
        return [v for v, s in enumerate(self.assignment) if s == shard]

    def sizes(self):
        """Vertex count per shard."""
        counts = [0] * self.shards
        for s in self.assignment:
            counts[s] += 1
        return counts

    def stats(self):
        """Balance/cut summary for the metrics endpoint."""
        sizes = self.sizes()
        mean = sum(sizes) / self.shards if self.shards else 0.0
        return {
            "shards": self.shards,
            "method": self.method,
            "sizes": sizes,
            "cut_edges": self.cut_edges,
            "balance": round(max(sizes) / mean, 4) if mean else 1.0,
        }


class GraphPartitioner:
    """Edge-cut partitioner with pluggable placement strategies.

    ``method="hash"`` (default) is the deterministic multiplicative
    hash: O(n), perfectly reproducible, structure-oblivious.
    ``method="greedy"`` is a METIS-style one-pass greedy balancer
    (linear deterministic greedy): each vertex goes to the shard
    holding most of its already-placed neighbours, penalised by how
    full that shard is, with deterministic tie-breaks -- fewer cut
    edges on graphs with community structure, same O(n + m) cost.
    """

    def __init__(self, shards, method="hash"):
        if shards < 1:
            raise CExplorerError("shards must be >= 1")
        if method not in PARTITION_METHODS:
            raise CExplorerError(
                "unknown partitioner {!r}; choose from {}".format(
                    method, PARTITION_METHODS))
        self.shards = shards
        self.method = method

    def partition(self, graph):
        """Partition ``graph``; returns a :class:`Partition`."""
        n = graph.vertex_count
        if self.shards == 1:
            assignment = [0] * n
        elif self.method == "hash":
            assignment = [hash_shard(v, self.shards) for v in range(n)]
        else:
            assignment = self._greedy(graph)
        cut = sum(1 for u, v in graph.edges()
                  if assignment[u] != assignment[v])
        return Partition(self.shards, self.method, assignment, cut)

    def _greedy(self, graph):
        n = graph.vertex_count
        shards = self.shards
        # Hard cap: no shard exceeds ceil(n / shards), so balance is
        # guaranteed and skew cannot hide behind a good cut.
        capacity = -(-n // shards)
        assignment = [-1] * n
        loads = [0] * shards
        # Highest-degree first: hubs seed shards, their neighbourhoods
        # follow them.  Ties break on vertex id for determinism.
        order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
        for v in order:
            placed = [0] * shards
            for u in graph.neighbors(v):
                if assignment[u] >= 0:
                    placed[assignment[u]] += 1
            best, best_key = 0, None
            for s in range(shards):
                if loads[s] >= capacity:
                    continue
                # Most already-placed neighbours wins; ties go to the
                # least-loaded shard, then the lowest index.
                key = (placed[s], -loads[s])
                if best_key is None or key > best_key:
                    best, best_key = s, key
            assignment[v] = best
            loads[best] += 1
        return assignment


def shard_entry_name(name, shard):
    """Index-entry name of one shard of graph ``name``."""
    return "{}{}{}".format(name, _SHARD_SEP, shard)


def parent_graph_name(entry_name):
    """The graph a (possibly shard-) entry name belongs to."""
    return entry_name.split(_SHARD_SEP, 1)[0]


class ShardReport:
    """One shard's contribution to a structural query: the fan-out
    payload the merge step consumes."""

    __slots__ = ("shard", "certified", "uncertain", "dropped")

    def __init__(self, shard, certified, uncertain, dropped):
        self.shard = shard
        self.certified = certified    # set: shard-local core >= k
        self.uncertain = uncertain    # dict v -> current degree
        self.dropped = dropped        # list: global degree < k


class TrussShardReport:
    """One shard's contribution to a truss structural query.

    ``certified`` edges have shard-local truss >= k, which certifies
    global truss >= k by subgraph monotonicity; ``uncertain`` is the
    rest of the shard's (intra-shard) edges.  Cross-shard (cut) edges
    belong to no shard and are classified at the merge.  All edges are
    ``(u, v)`` tuples with ``u < v`` in *global* vertex ids.
    """

    __slots__ = ("shard", "certified", "uncertain")

    def __init__(self, shard, certified, uncertain):
        self.shard = shard
        self.certified = certified
        self.uncertain = uncertain


class ShardPayload(GraphPayload):
    """One shard's frozen snapshot, ready to hand to a shard job.

    The payload bundles the ``(FrozenGraph, old_ids, global_degree)``
    triple a shard job needs; the transports are the parent class's
    (in-process object, one shared-memory segment per shard version,
    or the pickled triple).  ``key`` is the ``(manager epoch, graph,
    shard, version)`` identity workers cache the resolved triple (and
    its shard-local core/truss numbers) under -- the epoch keeps
    same-named graphs of different managers apart when jobs run
    inline in a shared parent process.
    """

    __slots__ = ("old_ids", "global_degree")

    def __init__(self, key, version, frozen, old_ids, global_degree,
                 build_seconds):
        super().__init__(key, version, frozen, build_seconds)
        self.old_ids = old_ids
        self.global_degree = global_degree

    def _extras(self):
        return (self.old_ids, self.global_degree)


class _ShardSet:
    """Partition bookkeeping for one sharded graph."""

    __slots__ = ("partition", "names", "graphs", "old_to_new", "routed")

    def __init__(self, partition, names, graphs, old_to_new):
        self.partition = partition
        self.names = names
        self.graphs = graphs          # per-shard induced subgraphs
        self.old_to_new = old_to_new  # per-shard {global id: local id}
        self.routed = None            # maintainer wired for routing


class ShardedIndexManager(IndexManager):
    """An :class:`IndexManager` that can hold a graph as shards.

    ``register(..., shards=n)`` additionally materialises the ``n``
    induced shard subgraphs and registers each under
    ``<name>#shard<i>`` -- a full versioned index entry of its own, so
    ``/v1/metrics`` reports per-shard versions for free (shard entries
    are always lazy: nothing reads a shard CL-tree).  With
    ``shards=1`` (the default) behaviour is exactly the parent's.
    """

    def __init__(self):
        super().__init__()
        self._parts = {}
        # (name, shard) -> ShardPayload, valid while the shard entry's
        # version matches; one latest payload per shard, so the cache
        # is bounded by the number of live shard entries.  The payload
        # epoch (worker-cache identity of same-named graphs across
        # managers) is inherited from :class:`IndexManager`.
        self._payloads = {}
        self._payload_stores.append(self._payloads)
        # name -> {edge: exact global support} for the edges no shard
        # owns (cut edges).  Kept exact under maintenance by the
        # :meth:`invalidate` override: an update only evicts the
        # entries its neighbourhood could have changed.
        self._cut_supports = {}
        self.cut_support_hits = 0
        self.cut_support_misses = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name, graph, build="lazy", shards=1,
                 partitioner="hash"):
        """Register ``name``; with ``shards > 1`` also partition it
        and register one index entry per shard subgraph."""
        if _SHARD_SEP in name:
            raise CExplorerError(
                "graph names may not contain {!r}".format(_SHARD_SEP))
        # Validate shard arguments (and compute the partition) *before*
        # touching the parent entry: a rejected registration must not
        # leave the manager holding a graph its caller rolled back.
        part = GraphPartitioner(shards, partitioner).partition(graph) \
            if shards > 1 else None
        version = super().register(name, graph, build=build)
        if part is not None:
            names, graphs, mappings = [], [], []
            for i in range(shards):
                sub, old_to_new = graph.induced_subgraph(part.members(i))
                entry = shard_entry_name(name, i)
                # Replaces a same-named entry from a previous sharded
                # registration in place -- no window where a shard
                # entry is missing.  Always lazy: shard entries exist
                # for their versions; nothing reads a shard CL-tree,
                # so ``build=`` applies to the parent entry alone.
                super().register(entry, sub, build="lazy")
                names.append(entry)
                graphs.append(sub)
                mappings.append(old_to_new)
            fresh = _ShardSet(part, names, graphs, mappings)
            with self._lock:
                old = self._parts.get(name)
                self._parts[name] = fresh
                self._cut_supports.pop(name, None)
                stale = self._drop_shard_payloads(name)
            leftovers = old.names[shards:] if old is not None else []
        else:
            with self._lock:
                old = self._parts.pop(name, None)
                self._cut_supports.pop(name, None)
                stale = self._drop_shard_payloads(name)
            leftovers = old.names if old is not None else []
        for payload in stale:
            payload.release()
        for entry in leftovers:
            super().unregister(entry)
        return version

    def _drop_shard_payloads(self, name, shard=None):
        """Pop cached shard payloads of ``name`` (one shard or all)
        and return them for release *outside* the manager lock."""
        stale = [key for key in self._payloads
                 if key[0] == name and (shard is None or key[1] == shard)]
        return [self._payloads.pop(key) for key in stale]

    def unregister(self, name):
        """Drop ``name``, its shard entries and its cached payloads
        (releasing their shared-memory segments)."""
        with self._lock:
            old = self._parts.pop(name, None)
            self._cut_supports.pop(name, None)
            stale = self._drop_shard_payloads(name)
        for payload in stale:
            payload.release()
        if old is not None:
            for entry in old.names:
                super().unregister(entry)
        super().unregister(name)

    def discard_payload(self, key):
        """Quarantine hook covering shard payloads too: a corrupt or
        unattachable per-shard payload is dropped from the cache and
        its segment unlinked, so the next fan-out re-freezes and
        re-publishes that shard."""
        if super().discard_payload(key):
            return True
        with self._lock:
            stale = None
            for cache_key, payload in list(self._payloads.items()):
                if payload.key == key:
                    stale = self._payloads.pop(cache_key)
                    break
        if stale is not None:
            stale.release()
            return True
        return False

    def release_payloads(self):
        """Shutdown hook: release shard payloads too."""
        with self._lock:
            stale = list(self._payloads.values())
            self._payloads.clear()
        for payload in stale:
            payload.release()
        super().release_payloads()

    # ------------------------------------------------------------------
    # shard reads
    # ------------------------------------------------------------------
    def shards(self, name):
        """Number of shards ``name`` is held as (1 = unsharded)."""
        part = self._parts.get(name)
        return part.partition.shards if part is not None else 1

    def partition(self, name):
        """The :class:`Partition` of ``name``, or ``None``."""
        part = self._parts.get(name)
        return part.partition if part is not None else None

    def shard_names(self, name):
        """Index-entry names of ``name``'s shards (empty when
        unsharded)."""
        part = self._parts.get(name)
        return list(part.names) if part is not None else []

    def shard_stats(self, name):
        """Partition + per-shard index lifecycle stats (metrics)."""
        part = self._parts.get(name)
        if part is None:
            return None
        doc = part.partition.stats()
        doc["indexes"] = [self.stats(entry) for entry in part.names]
        doc["cut_support_cache"] = {
            "entries": len(self._cut_supports.get(name, ())),
            # Manager-wide counters: how often truss merges found
            # their cut-edge supports warm vs had to intersect.
            "hits": self.cut_support_hits,
            "misses": self.cut_support_misses,
        }
        return doc

    def shard_payload(self, name, shard):
        """The frozen snapshot of one shard, cached per
        ``(graph, version, shard)``.

        Returns ``(payload, fresh)`` where ``fresh`` says the snapshot
        was (re)built by this call -- the engine records the build
        time under the ``snapshot_build`` latency op.  The payload
        bundles everything :func:`~repro.engine.backends.
        shard_candidates_job` needs to answer a level-``k`` probe: the
        shard subgraph as a CSR
        :class:`~repro.graph.frozen.FrozenGraph`, the local-to-global
        id map, and the owned vertices' *global* degrees (an edge
        update always bumps both endpoint owners' shard versions, so a
        version-matched payload never carries stale degrees).
        """
        start = time.perf_counter()
        with self._lock:
            part = self._parts.get(name)
            if part is None:
                raise CExplorerError(
                    "graph {!r} is not sharded".format(name))
            entry_name = part.names[shard]
            version = self.version(entry_name)
            cached = self._payloads.get((name, shard))
            if cached is not None and cached.version == version:
                return cached, False
            # Snapshot under the lock: maintenance routing mutates the
            # shard subgraphs under the same lock, so the frozen CSR
            # and the degree array are a consistent cut of one state.
            sub = part.graphs[shard]
            mapping = part.old_to_new[shard]
            graph = self.graph(name)
            with tracing.span("payload_freeze", graph=name,
                              shard=shard):
                frozen = FrozenGraph.from_graph(sub)
            old_ids = [0] * len(mapping)
            for old, new in mapping.items():
                old_ids[new] = old
            global_degree = [graph.degree(old) for old in old_ids]
        # Serialisation is lazy: in-process jobs take the payload
        # object itself and the payload plane ships the frozen arrays
        # zero-copy through a shared-memory segment, so the pickle
        # (``payload.blob``) only ever runs on the fallback rung.
        payload = ShardPayload(
            (self._payload_epoch, name, shard, version), version,
            frozen, old_ids, global_degree,
            time.perf_counter() - start)
        replaced = None
        with self._lock:
            fresh = self._parts.get(name)
            # Publish only when the snapshot still describes the live
            # shard set at the version it was cut at; an unpublished
            # (raced) payload is still a consistent snapshot of the
            # state it was cut from, so the in-flight query may use
            # it -- the same either-state semantics every query
            # concurrent with a mutation has.
            if fresh is part and self.version(entry_name) == version:
                replaced = self._payloads.get((name, shard))
                self._payloads[(name, shard)] = payload
        if replaced is not None:
            replaced.release()
        return payload, True

    # ------------------------------------------------------------------
    # cut-edge support cache
    # ------------------------------------------------------------------
    def cut_edge_supports(self, name, edges):
        """Exact global triangle supports of ``edges``, cached.

        Cut edges (endpoints on different shards) belong to no shard
        subgraph, so every sharded truss merge needs their exact
        global supports -- and they are the same edges query after
        query.  The cache holds them per graph; the
        :meth:`invalidate` override keeps it exact by evicting only
        the entries inside each update's affected neighbourhood (an
        edge's triangle count can only change when the update touches
        one of its endpoints' adjacencies).  Misses are computed here
        and cached; hits/misses are counted for :meth:`shard_stats`.
        """
        out = {}
        misses = []
        with self._lock:
            graph = self.graph(name)
            version = self.version(name)
            cache = self._cut_supports.setdefault(name, {})
            for edge in edges:
                support = cache.get(edge)
                if support is None:
                    misses.append(edge)
                else:
                    self.cut_support_hits += 1
                    out[edge] = support
        # Intersect outside the lock: a cold cache over many cut
        # edges is real work, and every concurrent version/payload
        # probe shares this lock (same reasoning as the out-of-lock
        # whole-graph freeze in ``IndexManager.full_payload``).
        for edge in misses:
            u, v = edge
            nu = graph.neighbors(u)
            if not isinstance(nu, set):
                nu = set(nu)
            out[edge] = len(nu.intersection(graph.neighbors(v)))
        if misses:
            with self._lock:
                self.cut_support_misses += len(misses)
                # Publish only when no maintenance landed while we
                # computed -- a concurrent update may have evicted
                # exactly these edges, and re-adding them would
                # resurrect stale counts.  The in-flight query still
                # uses the computed values: a consistent snapshot of
                # the state it read (either-state semantics).
                entry = self._entries.get(name)
                if entry is not None and entry.version == version \
                        and self._cut_supports.get(name) is cache:
                    for edge in misses:
                        cache[edge] = out[edge]
        return out

    def invalidate(self, name, affected=None, **kwargs):
        """Version bump plus cut-support eviction scoped to the
        update's neighbourhood.

        A cached cut-edge support can only change when the update
        touches one of the edge's endpoints, so an ``affected`` region
        evicts exactly the cache entries with an endpoint inside it;
        a region-less (conservative) bump clears the graph's whole
        cut cache.  Shard-entry bumps route to their parent graph's
        cache.
        """
        parent = parent_graph_name(name)
        stale_payloads = []
        with self._lock:
            cache = self._cut_supports.get(parent)
            if cache:
                if affected is None:
                    cache.clear()
                else:
                    stale = [edge for edge in cache
                             if edge[0] in affected
                             or edge[1] in affected]
                    for edge in stale:
                        del cache[edge]
            # A shard-entry bump makes the cached shard payload one
            # version stale: release it (and unlink its segment) now
            # rather than when the next fan-out replaces it.
            if parent != name and _SHARD_SEP in name:
                try:
                    shard = int(name.rsplit(_SHARD_SEP, 1)[1])
                except ValueError:
                    shard = None
                if shard is not None:
                    stale_payloads = self._drop_shard_payloads(
                        parent, shard)
        for payload in stale_payloads:
            payload.release()
        return super().invalidate(name, affected=affected, **kwargs)

    # ------------------------------------------------------------------
    # maintenance routing
    # ------------------------------------------------------------------
    def attach_maintainer(self, name, maintainer=None):
        """Parent wiring plus shard routing: each edge update is
        applied to -- and bumps the version of -- the owning shard
        only; the other shards keep their cached decompositions."""
        maintainer = super().attach_maintainer(name, maintainer)
        with self._lock:
            part = self._parts.get(name)
            # Idempotent per (shard set, maintainer): re-attaching
            # must not stack a second routing listener (each update
            # would bump shard versions twice, trashing the per-shard
            # core caches this class exists to keep).
            wire = part is not None and part.routed is not maintainer
            if wire:
                part.routed = maintainer
        if wire:
            def route(event):
                """Apply the update to the owning shard's subgraph."""
                self._route_update(name, event)
            maintainer.add_listener(route)
        return maintainer

    def _route_update(self, name, event):
        if not event["edge"]:
            # A vertex event: the isolated newcomer joins its hash
            # shard with its first edge (``_adopt_vertex`` below).
            return
        # The shard-subgraph mutation happens under the manager lock
        # so :meth:`shard_payload` (which snapshots a subgraph under
        # the same lock) can never observe a half-applied update and
        # freeze a torn CSR.
        with self._lock:
            part = self._parts.get(name)
            if part is None:
                return
            u, v = event["edge"]
            partition = part.partition
            graph = self.graph(name)
            adopted = set()
            for w in (u, v):
                if w >= len(partition.assignment):
                    adopted |= self._adopt_vertex(part, graph, w)
            su, sv = partition.owner(u), partition.owner(v)
            if su == sv:
                sub = part.graphs[su]
                mu = part.old_to_new[su][u]
                mv = part.old_to_new[su][v]
                if event["kind"] == "insert":
                    sub.add_edge(mu, mv)
                elif sub.has_edge(mu, mv):
                    sub.remove_edge(mu, mv)
        # A cross-shard edge lives in no shard subgraph; the owning
        # shards' certificates stay sound (their subgraphs are still
        # subgraphs of G), but their boundary changed, so their
        # versions bump and dependants re-read.  Shards that adopted a
        # new vertex bump too: their subgraph grew, so their cached
        # core decompositions are stale.
        for shard in sorted({su, sv} | adopted):
            self.invalidate(shard_entry_name(name, shard),
                            affected=set(event["edge"]))

    def _adopt_vertex(self, part, graph, v):
        """Assign a vertex created after partitioning to its hash
        shard and mirror it into that shard's subgraph; returns the
        set of shards that grew (their index entries must be
        invalidated by the caller)."""
        partition = part.partition
        first_new = len(partition.assignment)
        partition.assign(v)
        touched = set()
        for w in range(first_new, len(partition.assignment)):
            shard = partition.assignment[w]
            sub = part.graphs[shard]
            local = sub.add_vertex(graph.label(w), graph.keywords(w))
            part.old_to_new[shard][w] = local
            touched.add(shard)
        return touched


# ----------------------------------------------------------------------
# the exact decompose-then-combine structural query
# ----------------------------------------------------------------------

def merge_shard_reports(graph, reports, q, k, extra_vertices=()):
    """Combine per-shard candidate reports into the exact connected
    k-core component of ``q`` (or ``None``).

    ``extra_vertices`` covers vertices no shard reported (created
    after the partitioning pass and never routed through a
    maintainer); they are classified here so the merge stays total.

    The drain is the standard peel restricted to *uncertain* vertices:
    certified vertices are in the global k-core by monotonicity
    (shard-local core numbers lower-bound global ones), so they are
    immovable and their degrees are never tracked.
    """
    certified = set()
    uncertain = {}
    queue = []
    for report in reports:
        certified |= report.certified
        uncertain.update(report.uncertain)
        queue.extend(report.dropped)
    for v in extra_vertices:
        degree = graph.degree(v)
        if degree < k:
            queue.append(v)
        else:
            uncertain[v] = degree
    removed = set(queue)
    while queue:
        d = queue.pop()
        for u in graph.neighbors(d):
            if u in uncertain and u not in removed:
                uncertain[u] -= 1
                if uncertain[u] < k:
                    removed.add(u)
                    queue.append(u)
    if q in removed or (q not in certified and q not in uncertain):
        return None
    # Component of q over the survivors, on the full adjacency.
    component = {q}
    frontier = [q]
    while frontier:
        u = frontier.pop()
        for w in graph.neighbors(u):
            if w in component or w in removed:
                continue
            if w in certified or w in uncertain:
                component.add(w)
                frontier.append(w)
    return component


def verify_boundary(graph, partition, component, k):
    """Re-verify the k-core constraint on the merged community.

    One pass over the full-graph adjacency recomputes every member's
    within-community degree -- boundary-crossing vertices included,
    which is where a bad merge would first show.  A violation raises
    :class:`ShardMergeError` rather than returning a silently wrong
    community (:func:`sharded_search` answers it by handing the query
    back to the unsharded path).
    """
    for v in component:
        internal = sum(1 for u in graph.neighbors(v) if u in component)
        if internal < k:
            raise ShardMergeError(
                "vertex {} (shard {}) has internal degree {} < k={} "
                "after merge".format(v, partition.owner(v), internal,
                                     k))


def _run_shard_jobs(engine, name, shards, job, k):
    """Fan ``job`` out over every shard's cached frozen payload
    through the engine's job pipeline; returns the raw per-shard
    results in shard order."""
    jobs = []
    for shard in range(shards):
        payload, fresh = engine.indexes.shard_payload(name, shard)
        jobs.append((job, (payload.key,
                           engine.payload_arg(payload, fresh), k)))
    return engine.run_jobs(jobs, op="shard", graph=name)


def sharded_structural_community(engine, name, q, k):
    """The exact connected k-core component of ``q`` at level ``k``,
    computed shard-parallel through ``engine``'s job pipeline.

    Fan-out: one :func:`~repro.engine.backends.shard_candidates_job`
    per shard (certify / drop / classify, each scanning only its own
    vertices).  Merge: drain the peeling cascade, take ``q``'s
    component, re-verify boundary crossers.  Returns ``None`` when
    ``q`` is not in the k-core; raises when the graph is (no longer)
    sharded or the merge fails re-verification.
    """
    indexes = engine.indexes
    graph = indexes.graph(name)
    partition = indexes.partition(name)
    if partition is None:
        raise CExplorerError("graph {!r} is not sharded".format(name))
    raw = _run_shard_jobs(engine, name, partition.shards,
                          shard_candidates_job, k)
    reports = [
        ShardReport(shard, set(certified), dict(uncertain),
                    list(dropped))
        for shard, (certified, uncertain, dropped) in enumerate(raw)
    ]
    extra = range(len(partition.assignment), graph.vertex_count)
    with tracing.span("merge", shards=partition.shards, kind="core"):
        component = merge_shard_reports(graph, reports, q, k,
                                        extra_vertices=extra)
        if component is not None:
            verify_boundary(graph, partition, component, k)
    return component


# ----------------------------------------------------------------------
# the exact decompose-then-combine truss query
# ----------------------------------------------------------------------

def merge_truss_reports(graph, reports, k, extra_edges=(),
                        known_supports=None):
    """Combine per-shard truss reports into the exact global k-truss
    edge set.

    ``extra_edges`` covers the edges no shard reported: cut edges
    (their endpoints live on different shards) and edges of vertices
    created after partitioning.  The peel is the standard truss peel
    restricted to *uncertain* edges: certified edges are in the global
    k-truss by monotonicity (shard-local truss numbers lower-bound
    global ones), so they are immovable and their supports are never
    tracked.  Supports of uncertain edges are exact global triangle
    counts over the full adjacency; ``known_supports`` optionally
    carries already-exact counts (the manager's cut-edge support
    cache) so recurring cut edges skip the intersection.

    Returns ``(strong, suspects)``: the k-truss edge set and the
    subset of it that survived as uncertain (the boundary region
    :func:`verify_truss_boundary` re-verifies).
    """
    certified = set()
    uncertain = set()
    for report in reports:
        certified.update(report.certified)
        uncertain.update(report.uncertain)
    for edge in extra_edges:
        uncertain.add(edge)
    uncertain -= certified
    nbrs = graph.neighbors
    known = known_supports or {}
    support = {}
    for u, v in uncertain:
        s = known.get((u, v))
        support[(u, v)] = s if s is not None \
            else len(nbrs(u) & nbrs(v))
    threshold = k - 2
    queue = [e for e, s in support.items() if s < threshold]
    removed = set(queue)
    # ``removed`` dedupes the queue; ``gone`` tracks edges whose
    # triangles have been torn down.  They must differ: a triangle
    # whose two tracked edges are *enqueued together* still has to
    # decrement its third edge exactly once, which only the
    # processed-edge set can decide.
    gone = set()
    while queue:
        e = queue.pop()
        u, v = e
        gone.add(e)
        for w in nbrs(u) & nbrs(v):
            a = (u, w) if u < w else (w, u)
            b = (v, w) if v < w else (w, v)
            if a in gone or b in gone:
                continue  # triangle already torn down
            for other in (a, b):
                s = support.get(other)
                if s is None:
                    continue  # certified partner: immovable
                support[other] = s - 1
                if s - 1 < threshold and other not in removed:
                    removed.add(other)
                    queue.append(other)
    suspects = uncertain - removed
    return certified | suspects, suspects


def verify_truss_boundary(graph, strong, suspects, k):
    """Re-verify the merged k-truss on its uncertain survivors.

    Certified edges carry a shard-local proof; the ``suspects`` (cut
    edges and under-certified intra-shard edges that survived the
    merge peel) are where a bad merge would first show.  Each must
    close at least ``k - 2`` triangles whose other two edges are in
    ``strong``; a violation raises :class:`ShardMergeError` rather
    than returning a silently wrong truss (:func:`sharded_search`
    answers it by handing the query back to the unsharded path).
    """
    nbrs = graph.neighbors
    for u, v in suspects:
        count = 0
        for w in nbrs(u) & nbrs(v):
            a = (u, w) if u < w else (w, u)
            b = (v, w) if v < w else (w, v)
            if a in strong and b in strong:
                count += 1
        if count < k - 2:
            raise ShardMergeError(
                "edge ({}, {}) has {} in-truss triangles < k-2={} "
                "after merge".format(u, v, count, k - 2))


def sharded_truss_edge_set(engine, name, k):
    """The exact global k-truss edge set of graph ``name``, computed
    shard-parallel over ``engine``'s worker pool.

    Fan-out: one :func:`~repro.engine.backends.shard_truss_job` per
    shard over the
    cached frozen shard payloads (the CSR support-counting kernel).
    Merge: peel the uncertain and cut edges with
    exact global supports (cut-edge supports come from the manager's
    per-graph cache, invalidated only by each update's
    neighbourhood), then re-verify the survivors.  The merged edge
    set is memoized per ``(graph, truss_version, k)`` in the engine's
    :class:`~repro.engine.cache.SubproblemMemo` -- queries for
    different vertices at the same level share one fan-out, and the
    truss-version key means the entry survives anything that does not
    move the truss index.  Raises when the graph is (no longer)
    sharded or the merge fails re-verification.
    """
    indexes = engine.indexes
    truss_version = indexes.truss_version(name)
    return engine.memo.get_or_compute(
        name, truss_version, "ktruss-strong", k,
        lambda: _compute_sharded_truss_edge_set(engine, name, k))


def _compute_sharded_truss_edge_set(engine, name, k):
    """The uncached fan-out/merge behind
    :func:`sharded_truss_edge_set`."""
    indexes = engine.indexes
    graph = indexes.graph(name)
    partition = indexes.partition(name)
    if partition is None:
        raise CExplorerError("graph {!r} is not sharded".format(name))
    raw = _run_shard_jobs(engine, name, partition.shards,
                          shard_truss_job, k)
    reports = [
        TrussShardReport(shard, set(certified), set(uncertain))
        for shard, (certified, uncertain) in enumerate(raw)
    ]
    # Cut edges and post-partition edges belong to no shard subgraph;
    # classify them at the merge so coverage stays total.
    assigned = len(partition.assignment)
    extra = []
    for u, v in graph.edges():
        if (u >= assigned or v >= assigned
                or partition.assignment[u] != partition.assignment[v]):
            extra.append((u, v))
    # Cut edges recur in every truss merge of this graph; their exact
    # global supports come from the manager's per-(graph) cache,
    # which maintenance invalidates by the update's neighbourhood
    # only (see ShardedIndexManager.cut_edge_supports).
    known_supports = indexes.cut_edge_supports(name, extra)
    with tracing.span("merge", shards=partition.shards, kind="truss"):
        strong, suspects = merge_truss_reports(
            graph, reports, k, extra_edges=extra,
            known_supports=known_supports)
        verify_truss_boundary(graph, strong, suspects, k)
    return strong


def sharded_search(engine, name, algorithm, q, k, keywords=None):
    """Run one shardable community search; results are identical to
    the unsharded path (the equivalence the tests prove).

    The structural phase fans out over the shards and is merged
    here: the connected k-core component of ``q`` for the k-core
    families, the global k-truss edge set for the triangle families
    (``k-truss``/``atc``; a level-``k`` query only ever asks "is this
    edge's truss >= k").  ``global``: the merged component *is* the
    answer.  Every other algorithm finishes -- keyword enumeration,
    triangle-connectivity BFS -- through the whole-query job over the
    frozen payload, handed the merged phase as its structural base.

    The sharded plan has one escape hatch: any failure that is not a
    deadline, a cancellation or a query validation error -- a shard
    set mutated under the fan-out by a concurrent re-registration, a
    lost payload, a merge that failed re-verification, a finish that
    broke -- counts ``shard_fallbacks`` and returns ``None``, and the
    caller answers with its unsharded path.
    """
    if algorithm not in SHARDABLE_ALGORITHMS:
        raise CExplorerError(
            "algorithm {!r} does not support sharded execution"
            .format(algorithm))
    # Match the serial implementations' validation errors exactly.
    if algorithm == "k-truss" and k < 2:
        raise QueryError("k must be >= 2 for a k-truss community")
    if algorithm == "atc" and k < 2:
        raise QueryError("truss order k must be >= 2")
    if algorithm not in TRUSS_FAMILY and k < 0:
        raise QueryError("degree constraint k must be >= 0")
    q0 = q if isinstance(q, int) else tuple(q)[0]
    try:
        if algorithm in TRUSS_FAMILY:
            strong = sharded_truss_edge_set(engine, name, k)
            base = ("edges", tuple(sorted(strong)))
        else:
            component = sharded_structural_community(engine, name,
                                                     q0, k)
            if algorithm == "global":
                if component is None:
                    return []
                return [Community(engine.indexes.graph(name),
                                  component, method="Global",
                                  query_vertices=(q0,), k=k)]
            # ``("component", None)``: no structural community
            # exists; the finish still runs for its validation.
            base = ("component", None if component is None
                    else tuple(sorted(component)))
        return engine.search_full_query(name, algorithm, q, k,
                                        keywords=keywords, base=base)
    except (QueryTimeoutError, QueryCancelledError, QueryError):
        # Deadline/cancellation signals belong to admission control
        # and validation errors are identical on every path; never
        # convert either into more (serial) work.
        raise
    except (CExplorerError, IndexError, KeyError, RuntimeError):
        engine.stats.count("shard_fallbacks")
        return None
