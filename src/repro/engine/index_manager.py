"""Explicit index lifecycle: one record per graph version.

The :class:`IndexManager` is the registry of every graph the system
serves, and of what each graph's current version has derived so far --
the way Polynesia (PAPERS.md) separates index maintenance from the
query path and lets analytics read one consistent version:

* **register** a graph; nothing is built until a query needs it;
* each graph holds one :class:`VersionRecord` per *version*: the core
  numbers, the CL-tree (carrying its build time), the ``{edge: truss}``
  map behind the triangle families, the frozen whole-graph payload and
  the ``derived`` values shared answers are built from (the dataset
  panel, the CODICIL partition, the ``global`` bodies).  Each is
  computed on first use, on the reader's thread, and stored on the
  record it was read from; concurrent first readers of one value share
  one computation (:meth:`IndexManager.once`, the only compute-once
  primitive, which concurrent identical search misses share too);
* **invalidate** swaps in the next version's record, releases the
  superseded record's payload segment and notifies subscribers (the
  engine's result cache selectively evicts).  A superseded record is
  never handed to a new reader, so a value derived from an older
  version is never read as current, and nothing derived needs
  invalidating;
* **attach_maintainer** wires a
  :class:`~repro.core.maintenance.CoreMaintainer` so that every
  incremental edge update bumps the version automatically, hands the
  patched core numbers to the new record for free, and reports the
  affected region (changed vertices + their neighbourhoods) for
  selective cache eviction;
* **attach_truss_maintainer** additionally wires a
  :class:`~repro.core.truss_maintenance.TrussMaintainer` behind the
  same mutation gateway: each applied update patches per-edge support
  and trussness incrementally -- the next record reads its truss map
  off the maintainer instead of recomputing it -- and reports the
  *truss-affected* region, so cached k-truss/ATC results survive
  unrelated updates instead of being evicted wholesale.

Versions are per-graph monotonic integers; anything keyed by
``(graph, version)`` is immune to stale reads by construction.
"""

import itertools
import pickle
import threading
import time
import weakref

from repro.core.cltree import build_cltree
from repro.core.kcore import core_decomposition
from repro.core.ktruss import truss_decomposition
from repro.core.maintenance import CoreMaintainer
from repro.core.truss_maintenance import (
    TrussMaintainer,
    truss_affected_vertices,
)
from repro.engine import payloads, tracing
from repro.graph.frozen import FrozenGraph
from repro.util.errors import CExplorerError


class VersionRecord:
    """One version of a graph and what has been derived from it so far.

    ``core``, ``cltree``, ``truss`` and ``payload`` stay ``None`` until
    a reader first needs them; the CL-tree carries its build time as
    ``cltree.build_seconds``.  ``derived`` maps ``(kind, key)`` to the
    values :meth:`IndexManager.derived` computed for this version.
    """

    __slots__ = ("version", "core", "cltree", "truss", "payload",
                 "derived")

    def __init__(self, version, core=None, truss=None):
        self.version = version
        self.core = core
        self.cltree = None
        self.truss = truss
        self.payload = None
        self.derived = {}


def _held(record, slot):
    """What ``record`` holds for ``slot`` (``None`` when nothing): a
    structure attribute named by a string, or the ``derived`` value
    of a ``(kind, key)`` tuple."""
    if type(slot) is str:
        return getattr(record, slot)
    return record.derived.get(slot)


class _IndexEntry:
    """A registered graph: what lives across its versions."""

    __slots__ = ("graph", "maintainer", "truss_maintainer",
                 "build_count", "record")

    def __init__(self, graph, version):
        self.graph = graph
        self.maintainer = None
        self.truss_maintainer = None
        self.build_count = 0
        self.record = VersionRecord(version)


class GraphPayload:
    """A whole graph, frozen and ready to hand to a job.

    ``frozen`` is the CSR snapshot; :meth:`job_arg` is the handle a
    job carries for it -- the payload object itself when the job runs
    in this process, else a zero-copy payload-plane ref
    (:mod:`repro.engine.payloads`: the snapshot is published once into
    a shared-memory segment) or, when no segment can be created, the
    pickled ``blob``.  ``key`` is the ``(manager epoch, graph,
    "full", version)`` identity workers cache the resolved payload --
    and the core numbers and CL-tree built over it -- under, so
    repeated jobs against an unchanged graph pay neither the transfer
    nor the builds.
    """

    __slots__ = ("key", "version", "frozen", "_blob", "_segment",
                 "_unlink", "_transport_lock", "build_seconds",
                 "__weakref__")

    def __init__(self, key, version, frozen, build_seconds):
        self.key = key
        self.version = version
        self.frozen = frozen
        self._blob = None
        self._segment = None
        self._unlink = None
        self._transport_lock = threading.Lock()
        self.build_seconds = build_seconds

    @property
    def blob(self):
        """The pickled snapshot (serialised once, on first use)."""
        if self._blob is None:
            with tracing.span("payload_pickle"):
                self._blob = pickle.dumps(
                    self.frozen, protocol=pickle.HIGHEST_PROTOCOL)
        return self._blob

    def ref(self):
        """The payload-plane locator, publishing on first use (one
        segment per payload, guarded against concurrent queries).
        The segment is released by :meth:`release` or, at the latest,
        when the payload is collected.  ``None`` when no segment can
        be created."""
        with self._transport_lock:
            if self._segment is None:
                self._segment = payloads.publish(self.key, self.frozen)
                if self._segment is not None:
                    self._unlink = weakref.finalize(
                        self, self._segment.release)
            return self._segment.ref if self._segment is not None \
                else None

    def job_arg(self, shipped=True):
        """The handle a job should carry: the zero-copy ref (else the
        pickled blob) when it ships to a worker process, the payload
        object itself -- no serialisation hop to pay -- when it runs
        in this one."""
        if not shipped:
            return self.frozen
        ref = self.ref()
        return ref if ref is not None else self.blob

    def release(self):
        """Drop this payload's segment reference (unlinks at zero).
        Idempotent; called on version bump, corruption discard and
        engine shutdown."""
        with self._transport_lock:
            self._segment = None
            unlink, self._unlink = self._unlink, None
        if unlink is not None:
            unlink()


class IndexManager:
    """The registry of graphs and of each graph's current version."""

    # Distinguishes payloads of same-named graphs held by *different*
    # managers: worker-side caches key on the payload identity, and an
    # in-process (fallback) execution shares one cache across every
    # engine in the parent, so (name, version) alone could collide.
    _payload_epochs = itertools.count(1)

    def __init__(self):
        self._entries = {}
        self._lock = threading.RLock()
        # The one flight table (see once): key -> Event of the
        # computation in flight; ``(record, slot)`` for a derived
        # value, ``(cache key, version)`` for a search miss.
        self._flights = {}
        self._subscribers = []
        self._payload_epoch = next(self._payload_epochs)
        # Size of the most recent truss cascade across *all* maintained
        # graphs (per-maintainer counters cannot say which update was
        # last when several graphs are maintained).
        self.last_truss_cascade_size = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name, graph):
        """Register (or replace) ``name``; returns the new version.

        Replacing a graph bumps the version and notifies subscribers,
        so every cache keyed on this graph is invalidated.
        """
        with self._lock:
            old = self._entries.get(name)
            version = old.record.version + 1 if old is not None else 1
            self._entries[name] = _IndexEntry(graph, version)
        if old is not None:
            self._drop_payload(old.record)
        self._notify(name, version, None)
        return version

    def names(self):
        """Sorted names of every registered graph."""
        with self._lock:
            return sorted(self._entries)

    def _entry(self, name):
        try:
            return self._entries[name]
        except KeyError:
            raise CExplorerError(
                "no graph named {!r} registered".format(name)) from None

    def _current(self, name):
        """``(entry, record)`` of ``name``'s current version."""
        with self._lock:
            entry = self._entry(name)
            return entry, entry.record

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def version(self, name):
        """The current (monotonic) version of ``name``."""
        with self._lock:
            return self._entry(name).record.version

    def graph(self, name):
        """The registered graph object for ``name``.  Lock-free: an
        entry's graph never changes (re-registering swaps the entry),
        and every cache probe reads it."""
        return self._entry(name).graph

    def built(self, name):
        """Whether the current version's CL-tree exists right now."""
        with self._lock:
            return self._entry(name).record.cltree is not None

    def once(self, key, held, compute):
        """``held()``, or else ``compute()`` run by one caller per
        ``key`` at a time -- the one compute-once primitive, behind
        every derived value (:meth:`_derive`) and every cacheable
        search miss (:meth:`CExplorer.search
        <repro.explorer.cexplorer.CExplorer.search>`).  Returns
        ``(value, computed)``.

        ``held()`` reads what is stored for ``key`` (``None`` for
        nothing) under the manager lock, so it must be a cheap read;
        ``compute()`` stores what ``held()`` reads.  The first caller
        that finds nothing held opens ``key``'s flight and computes
        outside the lock, so version/built probes (every request's
        cache fast path) never stall behind a cold computation; a
        concurrent caller waits for the flight to land and reads
        ``held()`` again.  A leader that raises lands its flight all
        the same, and the next caller that finds nothing held
        computes.
        """
        while True:
            with self._lock:
                value = held()
                if value is not None:
                    return value, False
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = threading.Event()
                    break
            flight.wait()
        try:
            return compute(), True
        finally:
            with self._lock:
                del self._flights[key]
            flight.set()

    def _derive(self, record, slot, compute):
        """``record``'s ``slot``, calling ``compute()`` when it is
        missing and storing the result on ``record``; a ``slot`` is a
        structure attribute's name or a ``(kind, key)`` of
        ``record.derived``.  Returns ``(value, computed)``.

        A value already held is a lock-free read; otherwise concurrent
        first readers of one ``(record, slot)`` share one computation
        through :meth:`once`.
        """
        value = _held(record, slot)
        if value is not None:
            return value, False

        def compute_and_store():
            value = compute()
            with self._lock:
                if type(slot) is str:
                    setattr(record, slot, value)
                else:
                    record.derived[slot] = value
            return value
        return self.once((record, slot), lambda: _held(record, slot),
                         compute_and_store)

    def _core(self, entry, record):
        """Core numbers of ``record``: the attached maintainer's
        incrementally patched array, else one decomposition."""
        maintainer = entry.maintainer
        return self._derive(
            record, "core",
            lambda: maintainer.core_numbers() if maintainer is not None
            else core_decomposition(entry.graph))[0]

    def core(self, name):
        """Current core numbers (cheap path: no CL-tree build)."""
        return self._core(*self._current(name))

    def truss(self, name):
        """Current truss numbers ``{(u, v): t}`` of graph ``name``.

        The triangle-family counterpart of :meth:`core`: with a truss
        maintainer attached this is its incrementally patched map,
        otherwise one decomposition per version.  Callers must treat
        the returned map as read-only.
        """
        entry, record = self._current(name)
        maintainer = entry.truss_maintainer
        return self._derive(
            record, "truss",
            lambda: maintainer.truss_numbers() if maintainer is not None
            else truss_decomposition(entry.graph))[0]

    def full_payload(self, name):
        """The current version's whole-graph frozen payload.

        Returns ``(payload, fresh)`` where ``fresh`` says the snapshot
        was frozen by this call (the engine records the freeze time
        under the ``snapshot_build`` latency op).  This is what the
        whole-query execution path ships to workers: one immutable CSR
        snapshot per graph version, against which a worker runs an
        entire ACQ search and caches the core numbers and CL-tree it
        builds under the payload's identity.
        """
        entry, record = self._current(name)

        def freeze():
            start = time.perf_counter()
            with tracing.span("payload_freeze", graph=name):
                frozen = FrozenGraph.from_graph(entry.graph)
            return GraphPayload(
                (self._payload_epoch, name, "full", record.version),
                record.version, frozen, time.perf_counter() - start)
        return self._derive(record, "payload", freeze)

    def derived(self, name, kind, key, compute):
        """The current version's ``(kind, key)`` value: ``compute()``
        once per version, shared by every reader of that version (the
        dataset panel, the CODICIL partition, the ``global`` bodies).
        A version bump swaps the record, so a value never outlives its
        version."""
        return self._derive(self._current(name)[1], (kind, key),
                            compute)[0]

    def drop_derived(self):
        """Forget every graph's current ``derived`` values; core
        numbers, CL-trees, truss maps and payloads stay."""
        with self._lock:
            for entry in self._entries.values():
                entry.record.derived = {}

    def _drop_payload(self, record, key=None):
        """Detach ``record``'s payload -- only if its identity is
        ``key``, when given -- and release its segment.  Returns
        whether one was dropped."""
        with self._lock:
            payload = record.payload
            if payload is None or key not in (None, payload.key):
                return False
            record.payload = None
        payload.release()
        return True

    def discard_payload(self, key):
        """Drop the current payload whose identity is ``key``.

        The corruption hook: when a worker reports a payload that
        failed to attach or unpickle, the engine discards exactly that
        ``(epoch, graph, "full", version)`` payload -- and unlinks its
        shared-memory segment -- before rerunning the job inline, so
        the next query re-freezes and re-publishes from the live graph
        instead of re-shipping poisoned bytes.  Returns whether
        anything was dropped.
        """
        with self._lock:
            entry = self._entries.get(key[1])
        return entry is not None and self._drop_payload(entry.record, key)

    def release_payloads(self):
        """Drop every payload and unlink its segment (engine shutdown:
        nothing may leak into ``/dev/shm``)."""
        with self._lock:
            records = [entry.record for entry in self._entries.values()]
        for record in records:
            self._drop_payload(record)

    def snapshot(self, name):
        """The current :class:`VersionRecord`, with its CL-tree built.

        The build runs on the calling thread, so its ``index_build``
        span lands in the caller's trace.  Concurrent first readers
        of one version share one build.
        """
        entry, record = self._current(name)
        self._derive(record, "cltree",
                     lambda: self._build(name, entry, record))
        return record

    def cltree(self, name):
        """The current CL-tree (building it when needed)."""
        return self.snapshot(name).cltree

    def stats(self, name):
        """Lifecycle stats of the current version, for
        ``/v1/graphs/{name}`` and the metrics endpoint."""
        with self._lock:
            entry = self._entry(name)
            record = entry.record
            tm = entry.truss_maintainer
            truss = {"built": record.truss is not None,
                     "maintained": tm is not None}
            if tm is not None:
                truss["cascades"] = tm.updates
                truss["last_cascade_size"] = tm.last_cascade_size
                truss["max_cascade_size"] = tm.max_cascade_size
            cltree = record.cltree
            return {
                "version": record.version,
                "built": cltree is not None,
                "building": (record, "cltree") in self._flights,
                "builds": entry.build_count,
                "build_seconds": round(cltree.build_seconds, 6)
                if cltree is not None else None,
                "maintained": entry.maintainer is not None,
                "truss": truss,
            }

    def truss_stats(self):
        """Aggregate truss-maintenance counters across every graph.

        Feeds ``/v1/metrics``' ``engine.truss``: how many
        updates the attached truss maintainers absorbed and how large
        their trussness cascades were.
        """
        with self._lock:
            maintainers = [entry.truss_maintainer
                           for entry in self._entries.values()
                           if entry.truss_maintainer is not None]
        doc = {"maintained_graphs": len(maintainers), "updates": 0,
               "changed_edges": 0,
               "last_cascade_size": self.last_truss_cascade_size,
               "max_cascade_size": 0}
        for tm in maintainers:
            doc["updates"] += tm.updates
            doc["changed_edges"] += tm.total_cascade_size
            doc["max_cascade_size"] = max(doc["max_cascade_size"],
                                          tm.max_cascade_size)
        return doc

    # ------------------------------------------------------------------
    # builds
    # ------------------------------------------------------------------
    def _build(self, name, entry, record):
        """Build and return ``record``'s CL-tree (the compute of its
        ``cltree`` flight)."""
        start = time.perf_counter()
        cltree = build_cltree(entry.graph, core=self._core(entry, record))
        cltree.build_seconds = time.perf_counter() - start
        tracing.add_span("index_build", cltree.build_seconds, graph=name)
        with self._lock:
            entry.build_count += 1
        return cltree

    def install(self, name, cltree, core=None, build_seconds=0.0):
        """Install a prebuilt CL-tree (e.g. loaded from disk) on the
        current record, skipping the build."""
        entry, record = self._current(name)
        if core is None:
            core = getattr(cltree, "core", None) \
                or self._core(entry, record)
        cltree.build_seconds = build_seconds
        with self._lock:
            record.core = core
            record.cltree = cltree
        return record

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, name, affected=None, core=None,
                   truss_affected=None, truss=None):
        """Bump ``name``'s version after a mutation.

        ``affected`` is the vertex region the mutation could have
        touched (forwarded to subscribers for selective eviction);
        ``core`` optionally carries already-patched core numbers so the
        new record skips the decomposition.  ``truss_affected`` is the
        triangle-support cascade region a truss maintainer reported
        (``None`` means unknown: subscribers must evict triangle-family
        entries conservatively), and ``truss`` optionally carries the
        already-patched truss map.
        """
        with self._lock:
            entry = self._entry(name)
            superseded = entry.record
            entry.record = VersionRecord(superseded.version + 1,
                                         core=core, truss=truss)
            version = entry.record.version
        # The superseded payload is one version behind: release it (and
        # its shared-memory segment) now rather than at collection.
        self._drop_payload(superseded)
        self._notify(name, version, affected, truss_affected)
        return version

    def attach_maintainer(self, name, maintainer=None):
        """Route ``name``'s mutations through a
        :class:`CoreMaintainer` wired into version bumps.

        Every edge insert/delete bumps the version, reuses the
        maintainer's patched core numbers, and reports the affected
        region: the edge's endpoints, every promoted/demoted vertex,
        and the changed vertices' neighbourhoods (a component merge or
        split must pass through one of those).  A vertex added through
        the maintainer bumps the version the same way (region: the new
        vertex), so no index built without it answers for it.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.maintainer is not None and \
                    maintainer in (None, entry.maintainer):
                # Re-attaching (implicitly or with the already-wired
                # maintainer) is a no-op: a second listener would bump
                # versions twice per update.
                return entry.maintainer
            if maintainer is None:
                maintainer = CoreMaintainer(entry.graph)
            entry.maintainer = maintainer
            entry.record.core = maintainer.core_numbers()

        def on_update(event):
            """Per-update hook: patch truss state, then invalidate."""
            graph = maintainer.graph
            affected = set(event["edge"])
            for w in event["changed"]:
                affected.add(w)
                affected.update(graph.neighbors(w))
            truss_affected = None
            tm = self._truss_maintainer_for(name, graph)
            if tm is not None and event["edge"]:
                # The core maintainer already applied the edge update
                # to the graph; patch the truss structures for it and
                # collect the support cascade's vertex footprint.  The
                # patched map itself is *not* copied here -- the new
                # record's first :meth:`truss` read copies it from the
                # maintainer, so an update costs its cascade, not O(m).
                # (A vertex event has no edge and nothing to patch;
                # triangle-family entries are evicted conservatively.)
                truss_event = tm.apply(event["kind"], *event["edge"])
                truss_affected = truss_affected_vertices(graph,
                                                         truss_event)
                self.last_truss_cascade_size = len(
                    truss_event["changed"])
            self.invalidate(name, affected=affected,
                            core=maintainer.core_numbers(),
                            truss_affected=truss_affected)

        maintainer.add_listener(on_update)
        return maintainer

    def attach_truss_maintainer(self, name, maintainer=None):
        """Track ``name``'s triangle support and trussness incrementally.

        Attaches (or creates) a
        :class:`~repro.core.truss_maintenance.TrussMaintainer` behind
        the graph's :class:`CoreMaintainer` mutation gateway -- one is
        attached automatically when missing.  Every edge update through
        the gateway then additionally patches per-edge support and
        truss numbers and reports the truss-affected vertex region, so
        cached k-truss/ATC results survive updates that provably cannot
        touch them.  Returns the (idempotently attached) truss
        maintainer; mutations must keep flowing through the core
        gateway, never through ``TrussMaintainer.add_edge`` directly.
        """
        with self._lock:
            entry = self._entry(name)
            current = entry.truss_maintainer
            if current is not None and maintainer in (None, current):
                return current
            graph = entry.graph
        # The core maintainer is the single mutation gateway; its
        # listener drives the truss patching (see on_update above).
        self.attach_maintainer(name)
        if maintainer is None:
            maintainer = TrussMaintainer(graph)
        with self._lock:
            entry = self._entry(name)
            entry.truss_maintainer = maintainer
            entry.record.truss = maintainer.truss_numbers()
        return maintainer

    def _truss_maintainer_for(self, name, graph):
        """The attached truss maintainer, if it still tracks ``graph``."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return None
            tm = entry.truss_maintainer
        if tm is not None and tm.graph is graph:
            return tm
        return None

    def subscribe(self, callback):
        """``callback(name, version, affected, truss_affected)`` runs
        after every version bump (``truss_affected=None`` means
        triangle-family caches must be evicted conservatively)."""
        self._subscribers.append(callback)

    def _notify(self, name, version, affected, truss_affected=None):
        for callback in list(self._subscribers):
            callback(name, version, affected, truss_affected)
