"""Explicit index lifecycle: versioned CL-tree/k-core snapshots.

The seed system built indexes lazily and ad hoc: whichever request
first touched a graph paid the CL-tree build on its own thread, and
nothing noticed when maintenance mutated the graph underneath.  The
:class:`IndexManager` makes the lifecycle explicit, the way Polynesia
(PAPERS.md) separates index maintenance from the query path:

* **register** a graph with a build policy -- ``lazy`` (first query
  pays), ``eager`` (build-on-upload, synchronously), or
  ``background`` (a builder thread runs while queries fall back to
  index-free execution);
* **snapshot** returns an immutable :class:`IndexSnapshot` (core
  numbers + CL-tree) at a specific *version*;
* **invalidate** bumps the version, marks the snapshot stale, and
  notifies subscribers (the engine's result cache selectively evicts);
* **attach_maintainer** wires a
  :class:`~repro.core.maintenance.CoreMaintainer` so that every
  incremental edge update bumps the version automatically, hands the
  patched core numbers to the next rebuild for free, and reports the
  affected region (changed vertices + their neighbourhoods) for
  selective cache eviction;
* **attach_truss_maintainer** additionally wires a
  :class:`~repro.core.truss_maintenance.TrussMaintainer` behind the
  same mutation gateway: each applied update patches per-edge support
  and trussness incrementally and reports the *truss-affected* region,
  so cached k-truss/ATC results survive unrelated updates instead of
  being evicted wholesale.

Versions are per-graph monotonic integers; anything keyed by
``(graph, version)`` is immune to stale reads by construction.  The
**truss index** (the ``{edge: truss}`` map behind the triangle
families) is versioned independently of the CL-tree snapshot: it has
its own monotonic ``truss_version``, and with a truss maintainer
attached it never goes stale under maintenance -- updates patch it in
place while the CL-tree snapshot is rebuilt lazily.
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


class IndexSnapshot:
    """One immutable build of a graph's derived index structures."""

    __slots__ = ("name", "version", "core", "cltree", "built_at",
                 "build_seconds")

    def __init__(self, name, version, core, cltree, build_seconds):
        self.name = name
        self.version = version
        self.core = core
        self.cltree = cltree
        self.built_at = time.time()
        self.build_seconds = build_seconds


class _IndexEntry:
    __slots__ = ("name", "graph", "version", "snapshot", "core",
                 "maintainer", "builder", "build_count",
                 "truss_maintainer", "truss", "truss_version",
                 "truss_built_version")

    def __init__(self, name, graph):
        self.name = name
        self.graph = graph
        self.version = 1
        self.snapshot = None
        self.core = None            # core numbers, possibly sans cltree
        self.maintainer = None
        self.builder = None         # in-flight background build thread
        self.build_count = 0
        self.truss_maintainer = None
        self.truss = None           # cached {edge: truss} map
        self.truss_version = 1      # independent truss-index version
        self.truss_built_version = 0


class GraphPayload:
    """A whole graph, frozen and ready to hand to a job.

    ``frozen`` is the CSR snapshot; :meth:`job_arg` is the handle a
    job carries for it -- the payload object itself when the job runs
    in this process, else a zero-copy payload-plane ref
    (:mod:`repro.engine.payloads`: the snapshot is published once into
    a shared-memory segment) or, when no segment can be created, the
    pickled ``blob``.  ``key`` is the ``(manager epoch, graph,
    "full", version)`` identity workers cache the resolved payload --
    and every derived structure (core numbers, CL-tree, truss map) --
    under, so repeated jobs against an unchanged graph pay neither
    the transfer nor the decompositions.
    """

    __slots__ = ("key", "version", "frozen", "_blob", "_segment",
                 "_transport_lock", "build_seconds")

    def __init__(self, key, version, frozen, build_seconds):
        self.key = key
        self.version = version
        self.frozen = frozen
        self._blob = None
        self._segment = None
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
        ``None`` when no segment can be created."""
        with self._transport_lock:
            if self._segment is None:
                self._segment = payloads.publish(self.key, self.frozen)
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
        Idempotent; called on version bump, eviction, quarantine
        discard, unregister, and engine shutdown."""
        with self._transport_lock:
            segment, self._segment = self._segment, None
        if segment is not None:
            segment.release()


def _release_orphaned(lock, payloads_by_name):
    """GC finalizer for a manager dropped without ``shutdown()``: its
    cached payloads must not pin shared-memory segments until the
    atexit sweep.  ``payloads_by_name`` is the manager's payload dict,
    captured without a reference to the manager itself."""
    with lock:
        stale = list(payloads_by_name.values())
        payloads_by_name.clear()
    for payload in stale:
        payload.release()


class IndexManager:
    """Versioned, invalidation-aware index store for many graphs."""

    BUILD_MODES = ("lazy", "eager", "background")

    # Distinguishes payloads of same-named graphs held by *different*
    # managers: worker-side caches key on the payload identity, and an
    # in-process (fallback) execution shares one cache across every
    # engine in the parent, so (name, version) alone could collide.
    _payload_epochs = itertools.count(1)

    def __init__(self):
        self._entries = {}
        self._lock = threading.RLock()
        self._subscribers = []
        # name -> GraphPayload, valid while the entry's version
        # matches; one latest payload per graph, so the cache is
        # bounded by the number of registered graphs.
        self._full_payloads = {}
        self._payload_epoch = next(self._payload_epochs)
        # Drained when this manager is collected without an explicit
        # ``release_payloads`` (an engine dropped without shutdown).
        self._payload_finalizer = weakref.finalize(
            self, _release_orphaned, self._lock, self._full_payloads)
        # Optional build delegate ``(graph, core=None) -> (core,
        # cltree)``; the engine's process backend installs one so
        # CL-tree builds run in worker processes instead of under the
        # GIL.  Any executor failure falls back to the in-process
        # build below.
        self.build_executor = None
        # How many delegated builds failed and fell back locally --
        # surfaced through the engine snapshot so a permanently broken
        # process-backend build path cannot degrade silently.
        self.build_fallbacks = 0
        # Size of the most recent truss cascade across *all* maintained
        # graphs (per-maintainer counters cannot say which update was
        # last when several graphs are maintained).
        self.last_truss_cascade_size = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name, graph, build="lazy"):
        """Register (or replace) ``name``; returns the new version.

        Replacing a graph bumps the version and notifies subscribers,
        so every cache keyed on this graph is invalidated.
        """
        if build not in self.BUILD_MODES:
            raise CExplorerError(
                "unknown build mode {!r}; choose from {}".format(
                    build, self.BUILD_MODES))
        with self._lock:
            old = self._entries.get(name)
            entry = _IndexEntry(name, graph)
            if old is not None:
                entry.version = old.version + 1
                entry.truss_version = old.truss_version + 1
            self._entries[name] = entry
            version = entry.version
        self._notify(name, version, None)
        if build == "eager":
            self.snapshot(name)
        elif build == "background":
            self.build_async(name)
        return version

    def unregister(self, name):
        """Drop ``name`` and notify subscribers (caches evict)."""
        with self._lock:
            self._entries.pop(name, None)
            stale = self._full_payloads.pop(name, None)
        if stale is not None:
            stale.release()
        self._notify(name, None, None)

    def names(self):
        """Sorted names of every registered index entry."""
        with self._lock:
            return sorted(self._entries)

    def _entry(self, name):
        try:
            return self._entries[name]
        except KeyError:
            raise CExplorerError(
                "no graph named {!r} registered".format(name)) from None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def version(self, name):
        """The current (monotonic) index version of ``name``."""
        with self._lock:
            return self._entry(name).version

    def graph(self, name):
        """The registered graph object for ``name``."""
        with self._lock:
            return self._entry(name).graph

    def built(self, name):
        """Whether a current-version snapshot exists right now."""
        with self._lock:
            entry = self._entry(name)
            return (entry.snapshot is not None
                    and entry.snapshot.version == entry.version)

    def core(self, name):
        """Current core numbers (cheap path: no CL-tree build).

        With a maintainer attached this is the incrementally patched
        array; otherwise it is computed once per version and cached.
        The decomposition itself runs outside the manager lock so
        version/built probes (every request's cache fast path) never
        stall behind a cold build.
        """
        with self._lock:
            entry = self._entry(name)
            if entry.core is not None:
                return entry.core
            maintainer = entry.maintainer
            graph = entry.graph
            version = entry.version
        if maintainer is not None:
            core = maintainer.core_numbers()
        else:
            core = core_decomposition(graph)
        with self._lock:
            fresh = self._entries.get(name)
            if fresh is entry and entry.version == version:
                if entry.core is None:
                    entry.core = core
                return entry.core
        return core

    def truss(self, name):
        """Current truss numbers ``{(u, v): t}`` of graph ``name``.

        The triangle-family counterpart of :meth:`core`: with a truss
        maintainer attached this is the incrementally patched map;
        otherwise it is recomputed once per truss version and cached.
        Callers must treat the returned map as read-only.  The
        decomposition runs outside the manager lock so version probes
        never stall behind a cold build.
        """
        with self._lock:
            entry = self._entry(name)
            if (entry.truss is not None
                    and entry.truss_built_version == entry.truss_version):
                return entry.truss
            maintainer = entry.truss_maintainer
            graph = entry.graph
            tversion = entry.truss_version
        if maintainer is not None:
            truss = maintainer.truss_numbers()
        else:
            truss = truss_decomposition(graph)
        with self._lock:
            fresh = self._entries.get(name)
            if fresh is entry and entry.truss_version == tversion:
                entry.truss = truss
                entry.truss_built_version = tversion
                return entry.truss
        return truss

    def truss_version(self, name):
        """The independent truss-index version of ``name``."""
        with self._lock:
            return self._entry(name).truss_version

    def full_payload(self, name):
        """The whole-graph frozen payload, cached per
        ``(graph, version)``.

        Returns ``(payload, fresh)`` where ``fresh`` says the snapshot
        was (re)built by this call (the engine records the build time
        under the ``snapshot_build`` latency op).  This is what the
        whole-query execution path ships to workers: one immutable CSR
        snapshot per graph version, against which a worker runs an
        entire search or detection and caches every derived structure
        (core numbers, CL-tree, truss map) under the payload's
        identity.  Maintenance invalidates it exactly when it bumps
        the graph's version.
        """
        start = time.perf_counter()
        with self._lock:
            entry = self._entry(name)
            version = entry.version
            graph = entry.graph
            cached = self._full_payloads.get(name)
            if cached is not None and cached.version == version:
                return cached, False
        # Freeze outside the lock: an O(V + E) snapshot must not
        # stall every concurrent version/built probe.  The manager
        # lock would not serialise graph mutations anyway (the
        # maintainer gateway mutates the parent graph before its
        # listeners take this lock); the version-checked publish
        # below keeps the cache coherent, and a racing bump simply
        # leaves the payload unpublished -- the in-flight query may
        # still use its consistent snapshot of the prior state.
        with tracing.span("payload_freeze", graph=name):
            frozen = FrozenGraph.from_graph(graph)
        payload = GraphPayload(
            (self._payload_epoch, name, "full", version), version,
            frozen, 0.0)
        payload.build_seconds = time.perf_counter() - start
        replaced = None
        with self._lock:
            fresh = self._entries.get(name)
            if fresh is not None and fresh.graph is graph \
                    and fresh.version == version:
                replaced = self._full_payloads.get(name)
                self._full_payloads[name] = payload
        if replaced is not None:
            replaced.release()
        return payload, True

    def seed_payload(self, name, frozen):
        """Adopt ``frozen`` (e.g. an mmap-loaded store snapshot) as
        the current whole-graph payload -- the warm-restart path that
        skips the freeze.  Returns the seeded :class:`GraphPayload`.
        """
        with self._lock:
            entry = self._entry(name)
            payload = GraphPayload(
                (self._payload_epoch, name, "full", entry.version),
                entry.version, frozen, 0.0)
            replaced = self._full_payloads.get(name)
            self._full_payloads[name] = payload
        if replaced is not None:
            replaced.release()
        return payload

    def discard_payload(self, key):
        """Drop any cached payload whose identity is ``key``.

        The corruption-quarantine hook: when a worker reports a
        payload that failed to attach or unpickle, the engine discards
        exactly that ``(epoch, graph, ..., version)`` entry -- and
        unlinks its shared-memory segment -- so the next query
        re-freezes and re-publishes from the live graph instead of
        re-shipping poisoned bytes.  Returns whether anything was
        dropped.
        """
        with self._lock:
            stale = None
            for name, payload in list(self._full_payloads.items()):
                if payload.key == key:
                    stale = self._full_payloads.pop(name)
                    break
        if stale is not None:
            stale.release()
            return True
        return False

    def release_payloads(self):
        """Drop every cached payload and unlink its segment (engine
        shutdown: nothing may leak into ``/dev/shm``)."""
        with self._lock:
            stale = list(self._full_payloads.values())
            self._full_payloads.clear()
        for payload in stale:
            payload.release()

    def full_payload_ready(self, name):
        """Whether a current-version whole-graph payload is cached."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                return False
            cached = self._full_payloads.get(name)
            return cached is not None and cached.version == entry.version

    def snapshot(self, name, rebuild=False):
        """The current :class:`IndexSnapshot`, building when needed.

        ``rebuild=True`` forces a fresh build at the same version (the
        explorer's ``index(rebuild=True)``).  Lazy builds are
        deduplicated: concurrent first queries share one builder
        thread instead of each constructing the same CL-tree.
        """
        with self._lock:
            entry = self._entry(name)
            snap = entry.snapshot
            if (snap is not None and snap.version == entry.version
                    and not rebuild):
                return snap
        if rebuild:
            return self._build(name)
        self.build_async(name).join()
        with self._lock:
            fresh = self._entries.get(name)
            if fresh is not None:
                snap = fresh.snapshot
                if snap is not None and snap.version == fresh.version:
                    return snap
        # The build raced a version bump; build at the new version.
        return self._build(name)

    def cltree(self, name, rebuild=False):
        """The current CL-tree (building the snapshot when needed)."""
        return self.snapshot(name, rebuild=rebuild).cltree

    def stats(self, name):
        """Lifecycle stats for the metrics endpoint."""
        with self._lock:
            entry = self._entry(name)
            snap = entry.snapshot
            current = snap is not None and snap.version == entry.version
            tm = entry.truss_maintainer
            truss = {
                "version": entry.truss_version,
                "built": (entry.truss is not None
                          and entry.truss_built_version
                          == entry.truss_version),
                "maintained": tm is not None,
            }
            if tm is not None:
                truss["cascades"] = tm.updates
                truss["last_cascade_size"] = tm.last_cascade_size
                truss["max_cascade_size"] = tm.max_cascade_size
            return {
                "version": entry.version,
                "built": current,
                "building": entry.builder is not None,
                "builds": entry.build_count,
                "build_seconds": round(snap.build_seconds, 6)
                if snap else None,
                "maintained": entry.maintainer is not None,
                "truss": truss,
            }

    def truss_stats(self):
        """Aggregate truss-maintenance counters across every graph.

        Feeds the server's ``truss_cascade_size`` metric: how many
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
    def _build(self, name):
        with self._lock:
            entry = self._entry(name)
            graph = entry.graph
            version = entry.version
            cached_core = entry.core
        start = time.perf_counter()
        core = cltree = None
        executor = self.build_executor
        if executor is not None:
            try:
                # Delegated (process-backend) build: core numbers are
                # computed in the worker too when not already cached,
                # so a cold build pays nothing GIL-bound here.
                core, cltree = executor(graph, core=cached_core)
            except Exception:
                # Deliberately broad: whatever broke the delegate
                # (pool death, pickling, timeout), the build must
                # still succeed locally -- but visibly.
                self.build_fallbacks += 1
                core = cltree = None
        if cltree is None:
            core = self.core(name)
            cltree = build_cltree(graph, core=core)
        build_seconds = time.perf_counter() - start
        tracing.add_span("index_build", build_seconds, graph=name)
        # Compatibility: callers historically read build time off the
        # tree itself.
        cltree.build_seconds = build_seconds
        snap = IndexSnapshot(name, version, core, cltree, build_seconds)
        with self._lock:
            entry = self._entries.get(name)
            # Only publish when nothing newer happened while building.
            if entry is not None and entry.version == version:
                entry.snapshot = snap
                entry.build_count += 1
                if entry.core is None:
                    entry.core = core
        return snap

    def install(self, name, cltree, core=None, build_seconds=0.0):
        """Install a prebuilt CL-tree (e.g. loaded from disk) as the
        current snapshot, skipping the build."""
        with self._lock:
            entry = self._entry(name)
            if core is None:
                core = getattr(cltree, "core", None) \
                    or core_decomposition(entry.graph)
            snap = IndexSnapshot(name, entry.version, core, cltree,
                                 build_seconds)
            entry.snapshot = snap
            entry.core = core
            return snap

    def build_async(self, name):
        """Kick off (or join onto) a background build; returns the
        builder thread."""
        with self._lock:
            entry = self._entry(name)
            if entry.builder is not None:
                return entry.builder

            def run():
                """Builder-thread body: build, then clear the slot."""
                try:
                    self._build(name)
                finally:
                    with self._lock:
                        fresh = self._entries.get(name)
                        if fresh is entry:
                            fresh.builder = None

            thread = threading.Thread(
                target=run, name="cltree-build-{}".format(name),
                daemon=True)
            entry.builder = thread
            # Start before publishing (i.e. before releasing the
            # lock): a concurrent caller must never receive a thread
            # it cannot join yet.
            thread.start()
        return thread

    def wait(self, name, timeout=None):
        """Block until any in-flight background build finishes."""
        with self._lock:
            builder = self._entry(name).builder
        if builder is not None:
            builder.join(timeout)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, name, affected=None, core=None,
                   truss_affected=None, truss=None):
        """Bump ``name``'s version after a mutation.

        ``affected`` is the vertex region the mutation could have
        touched (forwarded to subscribers for selective eviction);
        ``core`` optionally carries already-patched core numbers so the
        next snapshot build skips the decomposition.  ``truss_affected``
        is the triangle-support cascade region a truss maintainer
        reported (``None`` means unknown: subscribers must evict
        triangle-family entries conservatively), and ``truss``
        optionally carries the already-patched truss map so the truss
        index stays built across the bump.
        """
        with self._lock:
            entry = self._entry(name)
            entry.version += 1
            entry.core = core
            entry.truss_version += 1
            entry.truss = truss
            if truss is not None:
                entry.truss_built_version = entry.truss_version
            version = entry.version
            # The cached payload is now one version behind: release
            # it (and its shared-memory segment) eagerly instead of
            # leaving the unlink to the next full_payload replacement.
            stale = self._full_payloads.pop(name, None)
        if stale is not None:
            stale.release()
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
            entry.core = maintainer.core_numbers()

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
                # patched map itself is *not* copied here -- the next
                # :meth:`truss` read refetches it from the maintainer
                # lazily, so an update costs its cascade, not O(m).
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
            entry.truss = maintainer.truss_numbers()
            entry.truss_built_version = entry.truss_version
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
        after every version bump (``version=None`` means unregistered;
        ``truss_affected=None`` means triangle-family caches must be
        evicted conservatively)."""
        self._subscribers.append(callback)

    def _notify(self, name, version, affected, truss_affected=None):
        for callback in list(self._subscribers):
            callback(name, version, affected, truss_affected)
