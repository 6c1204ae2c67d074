"""The ``CExplorer`` facade: the paper's API (Section 3.1, Figure 4).

The Java interface the paper publishes is::

    public interface CExplorer {
        public void upload(String filePath);
        public List<Community> search(CSAlgorithm algo, Query query);
        public List<Community> detect(CDAlgorithm algo);
        public void analyze(Community community);
        public void display(Community community);
    }

This class is its Python equivalent, extended with the surrounding
system behaviour the paper describes: graph management (several named
graphs can be uploaded, Figure 3 shows Facebook and DBLP side by
side), versioned CL-tree indexing per graph through the engine's
:class:`~repro.engine.index_manager.IndexManager`, the profile store,
and keyword/degree suggestions for the left panel of the UI.

Execution runs through :mod:`repro.engine`: searches are planned
(:mod:`repro.engine.plans`), cached in the engine's
:class:`~repro.engine.cache.ResultCache` (with selective invalidation
when maintenance mutates a graph), and the facade's
:attr:`CExplorer.engine` exposes the bounded worker pool the server
submits concurrent queries through.
"""

import os

from repro.algorithms.registry import (
    get_cd_algorithm,
    get_cs_algorithm,
    list_cd_algorithms,
    list_cs_algorithms,
)
from repro.analysis.comparison import compare_methods
from repro.analysis.graph_stats import graph_summary
from repro.analysis.metrics import cmf, community_conductance, \
    community_density, cpj
from repro.core.community import Community
from repro.engine import payloads as payload_plane
from repro.engine import tracing
from repro.engine.executor import QueryEngine
from repro.engine.index_manager import IndexManager
from repro.engine.plans import plan_search
from repro.explorer.autocomplete import NameIndex
from repro.explorer.profiles import ProfileStore
from repro.graph.io import load_graph
from repro.graph.validation import validate_graph
from repro.util.errors import CExplorerError, EngineError, QueryError
from repro.viz.layout import circular_layout, ego_layout, spring_layout
from repro.viz.render import render_ascii, render_svg


class _GraphEntry:
    """A registered graph plus its lazily built derived structures.

    Index structures (core numbers, the CL-tree) live in the engine's
    :class:`~repro.engine.index_manager.IndexManager`; only the purely
    presentational lazies stay here.
    """

    __slots__ = ("name", "graph", "names", "summary")

    def __init__(self, name, graph):
        self.name = name
        self.graph = graph
        self.names = None
        self.summary = None


class CExplorer:
    """The C-Explorer system facade.

    >>> from repro.datasets import generate_dblp_graph
    >>> explorer = CExplorer()
    >>> explorer.add_graph("dblp", generate_dblp_graph())
    'dblp'
    >>> communities = explorer.search("acq", "Jim Gray", k=4)
    """

    def __init__(self, profiles=None, cache_size=256, workers=2,
                 max_queue=64, backend="thread", faults=None,
                 store_dir=None):
        self._graphs = {}
        self._current = None
        self.profiles = profiles if profiles is not None else ProfileStore()
        self.indexes = IndexManager()
        # Persistent warm store: ``store_dir`` (or REPRO_STORE_DIR)
        # names an on-disk :class:`~repro.engine.payloads.GraphStore`.
        # Registered graphs whose fingerprint matches a stored
        # snapshot restart warm -- the frozen payload mmaps in and the
        # serialised CL-tree installs without a rebuild -- and the
        # engine's result cache spills evicted entries there.
        if store_dir is None:
            store_dir = os.environ.get(payload_plane.ENV_STORE)
        self.store = payload_plane.GraphStore(store_dir) \
            if store_dir else None
        self._persisted = {}
        # ``backend="process"`` runs whole queries and CL-tree
        # builds in a multiprocessing pool over frozen CSR snapshots
        # (see repro.engine.backends); results are identical to the
        # default thread backend.  ``faults`` installs a seeded
        # fault-injection plan (see repro.engine.faults) for chaos
        # testing; None reads REPRO_FAULT_PLAN from the environment.
        self.engine = QueryEngine(explorer=self, workers=workers,
                                  max_queue=max_queue,
                                  cache_size=cache_size,
                                  index_manager=self.indexes,
                                  backend=backend,
                                  faults=faults,
                                  store=self.store)
        # The engine owns the result cache; exposed here because the
        # facade has always published ``explorer.cache``.
        self.cache = self.engine.cache

    # ------------------------------------------------------------------
    # graph management ("upload" in the paper API)
    # ------------------------------------------------------------------
    def upload(self, file_path, name=None, shards=1):
        """Load a graph file (edge list or JSON) and select it.

        Returns the registered graph name.  The paper API's
        ``upload(String filePath)``.  Every graph is held whole, by one
        CL-tree.  ``shards`` is kept only because existing callers
        (the end-to-end benchmark's launcher among them) pass
        ``shards=1``; any other value raises
        :class:`~repro.util.errors.CExplorerError`.
        """
        if shards != 1:
            raise CExplorerError(
                "every graph is held whole; shards must be 1, "
                "got {!r}".format(shards))
        graph = load_graph(file_path)
        validate_graph(graph)
        if name is None:
            name = str(file_path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return self.add_graph(name, graph)

    def add_graph(self, name, graph, select=True, build="lazy"):
        """Register an in-memory graph under ``name``.

        Re-registering a name replaces the graph, bumps its index
        version, and invalidates every cached result for it.  ``build``
        picks the index policy: ``"lazy"`` (first query pays),
        ``"eager"`` (build-on-upload), or ``"background"`` (a builder
        thread runs while queries fall back to index-free plans).
        """
        # Register indexes first: a rejected build mode must not leave
        # a phantom half-registered graph behind.  Registration
        # notifies the engine, which evicts the graph's cached results
        # and memoized subproblems.
        self.indexes.register(name, graph, build=build)
        self._graphs[name] = _GraphEntry(name, graph)
        if self.store is not None:
            self._warm_restore(name, graph)
        if select or self._current is None:
            self._current = name
        return name

    def _warm_restore(self, name, graph):
        """Warm restart from the persistent store: when the stored
        snapshot's fingerprint matches the live graph, adopt the
        mmap-loaded frozen payload (workers attach it without a
        freeze) and install the serialised CL-tree without a rebuild.
        Any mismatch or read error simply leaves the cold path --
        correctness never depends on the store.
        """
        from repro.graph.frozen import FrozenGraph
        try:
            frozen = FrozenGraph.from_graph(graph)
            if not self.store.matches(name, frozen):
                return
            mapped = self.store.load_frozen(name)
            self.indexes.seed_payload(name, mapped)
            if self.store.has_cltree(name):
                cltree = self.store.load_cltree(name, graph)
                # Compatibility: callers historically read build time
                # off the tree; a restored tree paid none.
                cltree.build_seconds = 0.0
                self.indexes.install(name, cltree,
                                     core=list(cltree.core))
            self._persisted[name] = self.indexes.version(name)
            self.engine.stats.count("warm_restores")
        except Exception:
            # Deliberately broad: a torn artefact, a format drift, a
            # filesystem error -- the upload must still succeed cold.
            self.engine.stats.count("warm_restore_failures")

    def select_graph(self, name):
        """Switch the active graph (the UI's dataset picker)."""
        if name not in self._graphs:
            raise CExplorerError("no graph named {!r} uploaded".format(name))
        self._current = name

    def graph_names(self):
        """Names of the uploaded graphs, sorted."""
        return sorted(self._graphs)

    @property
    def graph(self):
        """The active graph."""
        if self._current is None:
            raise CExplorerError("no graph uploaded yet")
        return self._graphs[self._current].graph

    # ------------------------------------------------------------------
    # indexing module
    # ------------------------------------------------------------------
    def index(self, rebuild=False):
        """The CL-tree of the active graph, built on first use.

        Delegates to the engine's versioned
        :class:`~repro.engine.index_manager.IndexManager`; maintenance
        updates mark the snapshot stale so the next call rebuilds.
        With a persistent store attached, a freshly built tree is
        written through (frozen payload + serialised CL-tree) so the
        next process restarts warm.
        """
        name = self._require_current()
        cltree = self.indexes.snapshot(name, rebuild=rebuild).cltree
        self._persist_index(name, cltree)
        return cltree

    def _persist_index(self, name, cltree):
        """Write the built index through to the persistent store,
        once per graph version."""
        if self.store is None:
            return
        try:
            version = self.indexes.version(name)
            if self._persisted.get(name) == version:
                return
            payload, _ = self.indexes.full_payload(name)
            self.store.save(name, payload.frozen, cltree)
            self._persisted[name] = version
            self.engine.stats.count("store_saves")
        except Exception:
            self.engine.stats.count("store_errors")

    def core_numbers(self):
        """Core decomposition of the active graph (cached, and kept
        current by an attached maintainer)."""
        return self.indexes.core(self._require_current())

    def maintainer(self, name=None):
        """A :class:`~repro.core.maintenance.CoreMaintainer` for a
        graph, wired into index versioning: every edge update through
        it bumps the index version and selectively evicts cached
        results (the mutation gateway for online graphs)."""
        if name is None:
            name = self._require_current()
        if name not in self._graphs:
            raise CExplorerError("no graph named {!r} uploaded"
                                 .format(name))
        return self.indexes.attach_maintainer(name)

    def truss_maintainer(self, name=None):
        """Enable incremental truss maintenance for a graph.

        Attaches a
        :class:`~repro.core.truss_maintenance.TrussMaintainer` behind
        the graph's :meth:`maintainer` gateway: every edge update then
        additionally patches per-edge triangle support and truss
        numbers and reports the truss-affected region, so cached
        k-truss/ATC results survive unrelated updates instead of being
        evicted wholesale.  Returns the mutation gateway (the wired
        :class:`~repro.core.maintenance.CoreMaintainer`) -- route all
        edge updates through it, exactly as with :meth:`maintainer`.
        """
        if name is None:
            name = self._require_current()
        if name not in self._graphs:
            raise CExplorerError("no graph named {!r} uploaded"
                                 .format(name))
        self.indexes.attach_truss_maintainer(name)
        return self.indexes.attach_maintainer(name)

    def keyword_candidates(self, vertex, k, keyword):
        """Vertices carrying ``keyword`` in the query vertex's k-core
        component -- the CL-tree inverted-index lookup, memoized in the
        engine so overlapping queries share it."""
        name = self._require_current()
        q = self.resolve_vertex(vertex)
        version = self.indexes.version(name)

        def compute():
            tree = self.index()
            root = tree.component_root(q, k)
            if root is None:
                return ()
            return tuple(tree.vertices_with_keyword(root, keyword))

        return self.engine.memo.get_or_compute(
            name, version, "cltree-keyword", (q, k, keyword), compute)

    def name_index(self):
        """Prefix index over the active graph's names (lazy)."""
        entry = self._graphs[self._require_current()]
        if entry.names is None:
            entry.names = NameIndex.from_graph(entry.graph)
        return entry.names

    def suggest_names(self, prefix, limit=10):
        """Autocomplete for the query box."""
        return self.name_index().suggest(prefix, limit=limit)

    def summary(self):
        """The dataset panel (whole-graph statistics), cached."""
        entry = self._graphs[self._require_current()]
        if entry.summary is None:
            entry.summary = graph_summary(entry.graph)
        return entry.summary

    # ------------------------------------------------------------------
    # the left panel: query construction helpers
    # ------------------------------------------------------------------
    def resolve_vertex(self, vertex):
        """Accept a vertex id, exact label, or case-insensitive label.

        The demo lets the user type "jim gray"; this does that lookup.
        """
        graph = self.graph
        if isinstance(vertex, int):
            if vertex not in graph:
                raise QueryError("vertex id {} out of range".format(vertex))
            return vertex
        if graph.has_label(vertex):
            return graph.id_of(vertex)
        lowered = str(vertex).strip().lower()
        for label, vid in graph.labels().items():
            if label.lower() == lowered:
                return vid
        raise QueryError("no author named {!r}".format(vertex))

    def query_options(self, vertex):
        """What the left panel shows once a name is typed (Figure 1):
        the degree constraints available and the author's keywords."""
        graph = self.graph
        v = self.resolve_vertex(vertex)
        core = self.core_numbers()
        return {
            "vertex": v,
            "name": graph.display_name(v),
            "degree": graph.degree(v),
            "max_k": core[v],
            "degree_choices": list(range(1, core[v] + 1)),
            "keywords": sorted(graph.keywords(v)),
        }

    # ------------------------------------------------------------------
    # search / detect (the paper API)
    # ------------------------------------------------------------------
    def _resolve_query(self, vertex):
        """Resolve one vertex or a multi-vertex query list."""
        if isinstance(vertex, (list, tuple, set)):
            q = [self.resolve_vertex(v) for v in vertex]
            return q[0] if len(q) == 1 else q
        return self.resolve_vertex(vertex)

    def peek_cached(self, algorithm, vertex, k=4, keywords=None,
                    **params):
        """The cached result for this query, or ``None`` -- without
        running anything.  The engine's fast path: cache hits bypass
        the worker queue (and its admission control) entirely.
        """
        if params or self._current is None:
            return None
        try:
            q = self._resolve_query(vertex)
        except CExplorerError:
            return None
        name = self._current
        # Deliberately untraced: this probe runs on every cache hit,
        # where even a no-op span context costs real money; on misses
        # the engine attaches the whole probe as one post-hoc
        # ``cache_lookup`` span and the executing worker records the
        # authoritative ``plan`` span.
        plan = plan_search(algorithm, self.graph,
                           index_ready=self.indexes.built(name),
                           keywords=keywords)
        key = self.cache.key(name, plan.algorithm, q, k, keywords)
        return self.cache.get(key, record_miss=False)

    def search(self, algorithm, vertex, k=4, keywords=None,
               use_cache=True, **params):
        """Run a CS algorithm: ``search(CSAlgorithm algo, Query query)``.

        ``vertex`` may be an id, a label, or a list of either (the
        multi-vertex "+" button).  ``algorithm`` may be ``"auto"``:
        the planner picks the strategy from graph size, keyword
        constraints, and index readiness.  ACQ variants receive the
        versioned CL-tree when the plan calls for it.  Results are
        cached per (graph, algorithm, q, k, S) with their vertex
        footprint recorded, so maintenance updates evict exactly the
        entries they could have changed -- unless extra ``params`` are
        given or ``use_cache=False``.

        ``global`` answers for different query vertices of one
        connected k-core component are distinct communities around
        one shared :class:`~repro.core.community.CommunityBody` (see
        :meth:`_component_bodies`): the component, its statistics and
        its JSON text are computed once per graph version.

        Every search runs under a query trace: when the engine's
        queue path submitted this call its trace is already active on
        the thread; direct library calls open (and finish) a root
        trace of their own through the engine's recorder.
        """
        name = self._require_current()
        with self.engine.tracer.trace("search", graph=name,
                                      algorithm=algorithm, k=k) as trace:
            return self._search_planned(trace, name, algorithm, vertex,
                                        k, keywords, use_cache, params)

    def _search_planned(self, trace, name, algorithm, vertex, k,
                        keywords, use_cache, params):
        """The traced body of :meth:`search` (``trace`` may be
        ``None`` when the recorder is disabled)."""
        graph = self.graph
        q = self._resolve_query(vertex)
        with tracing.span("plan", graph=name):
            plan = plan_search(algorithm, graph,
                               index_ready=self.indexes.built(name),
                               keywords=keywords,
                               full_payload=self.engine
                               .full_query_capable(name))
        algo = get_cs_algorithm(plan.algorithm)
        if trace is not None:
            trace.tag(graph=name, algorithm=plan.algorithm, k=k,
                      worker_full_query=plan.worker_full_query)
        cache_key = None
        if use_cache and not params:
            cache_key = self.cache.key(name, algo.name, q, k, keywords)
            cached = self.cache.get(cache_key)
            if cached is not None:
                return cached
        result = None
        if plan.worker_full_query and not params:
            # Whole-query worker execution: the entire search --
            # structural phase included -- runs against the cached
            # frozen payload (in a worker process under the process
            # backend).  Any pipeline failure falls through to the
            # inline path below; results are identical either way.
            try:
                result = self.engine.search_full_query(
                    name, plan.algorithm, q, k, keywords=keywords)
            except (QueryError, EngineError):
                # Validation and admission-control errors are
                # identical inline; surface them directly.
                raise
            except (CExplorerError, IndexError, KeyError,
                    RuntimeError):
                # Unregistered-name race, or a snapshot torn by a
                # concurrent out-of-gateway mutation: run inline,
                # visibly.
                self.engine.stats.count("full_query_fallbacks")
        bodies = None
        if result is None and algo.name == "global" and not params \
                and isinstance(q, int):
            bodies = self._component_bodies(name, k)
            body = next((b for b in bodies if q in b.vertices), None)
            if trace is not None:
                trace.tag(shared_body=body is not None)
            if body is not None:
                result = [Community(graph, body, method="Global",
                                    query_vertices=(q,), k=k)]
        if result is None:
            if plan.use_index and algo.name.startswith("acq") \
                    and "index" not in params:
                params["index"] = self.index()
            elif algo.name == "global" and "core" not in params:
                # Global's answer is the connected k-core component;
                # hand it the versioned decomposition (cached per
                # graph version, patched by maintenance) so it skips
                # the O(n + m) whole-graph peel per query.
                params["core"] = self.indexes.core(name)
            elif algo.name == "k-truss" and "truss" not in params:
                # Same reuse for the triangle family: the versioned
                # truss index (patched in place by an attached truss
                # maintainer) replaces the per-query O(m^1.5)
                # decomposition.
                params["truss"] = self.indexes.truss(name)
            result = algo(graph, q, k, keywords=keywords, **params)
            if bodies is not None and result:
                bodies.append(result[0].body)
        if cache_key is not None:
            # A one-community answer's footprint is its (possibly
            # shared) member frozenset, not a copy of it per entry.
            footprint = result[0].vertices if len(result) == 1 \
                else {v for c in result for v in c}
            self.cache.put(cache_key, result, vertices=footprint)
        return result

    def _component_bodies(self, name, k):
        """The ``global`` answers computed so far on graph ``name`` at
        degree ``k``: a list of
        :class:`~repro.core.community.CommunityBody`, one per
        connected k-core component already asked for.

        Connected k-core components partition the k-core, so every
        query vertex of one component has the same members and its
        answer is *the* body that contains it.  The list lives in the
        engine's memo under ``(graph, version, k)``: a maintenance
        update bumps the version, which orphans it whole.  It is
        keyed by membership, not by CL-tree node, so reading it needs
        no current tree -- a ``global`` read after an update never
        pays an index rebuild.  Two threads racing a component's
        first query may each append a body; either one is correct.
        """
        return self.engine.memo.get_or_compute(
            name, self.indexes.version(name), "global-bodies", k, list)

    def detect(self, algorithm, per_component=False, **params):
        """Run a CD algorithm on the whole active graph.

        Detections route through the engine's frozen-payload pipeline
        whenever that pays (always under the process backend -- the
        whole detection escapes the GIL; under the thread backend once
        a payload is cached): the worker runs the registered algorithm
        against the CSR snapshot and ships plain results back, byte-
        identical to inline execution.  ``per_component=True``
        additionally fans the detection out as one worker job per
        connected component -- a deterministic plan of its own whose
        output concatenates the per-component results (identical to
        the whole-graph output exactly when the graph is connected).
        Any pipeline failure falls back to inline detection.
        """
        algo = get_cd_algorithm(algorithm)
        name = self._require_current()
        with self.engine.tracer.trace(
                "detect", graph=name, algorithm=algo.name,
                per_component=per_component or None):
            if per_component or self.engine.full_query_capable(name):
                try:
                    return self.engine.detect(
                        name, algo.name, params=params,
                        per_component=per_component)
                except (QueryError, EngineError):
                    raise
                except (CExplorerError, TypeError, IndexError,
                        KeyError, RuntimeError):
                    # Per-component output is a plan of its own (it
                    # only coincides with whole-graph detection on
                    # connected graphs), so an explicit request for it
                    # must never silently degrade to the inline
                    # whole-graph run.
                    if per_component:
                        raise
                    # Unregistered-name race, unpicklable params, or a
                    # snapshot torn by an out-of-gateway mutation: run
                    # inline, visibly.
                    self.engine.stats.count("full_query_fallbacks")
            return algo(self.graph, **params)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(self, community, query_vertex=None):
        """Quality metrics for one community (the `analyze` API call)."""
        metrics = {
            "vertices": community.vertex_count,
            "edges": community.edge_count,
            "average_degree": round(community.average_degree, 2),
            "min_internal_degree": community.minimum_internal_degree(),
            "density": round(community_density(community), 4),
            "conductance": round(community_conductance(community), 4),
            "cpj": round(cpj(community), 4),
        }
        qv = query_vertex
        if qv is None and community.query_vertices:
            qv = community.query_vertices[0]
        if qv is not None:
            metrics["cmf"] = round(cmf(community, query_vertex=qv), 4)
        return metrics

    def compare(self, vertex, k=4, methods=("global", "local", "codicil",
                                            "acq"), keywords=None,
                method_params=None):
        """The Comparison Analysis screen (Figure 6) as a report object."""
        q = self.resolve_vertex(vertex)
        params = dict(method_params or {})
        if any(m.startswith("acq") for m in methods):
            for m in methods:
                if m.startswith("acq"):
                    params.setdefault(m, {}).setdefault("index", self.index())
        return compare_methods(self.graph, q, k, methods=methods,
                               keywords=keywords, method_params=params)

    # ------------------------------------------------------------------
    # display / profiles
    # ------------------------------------------------------------------
    def display(self, community, fmt="svg", layout="ego", **kwargs):
        """Compute a layout and render (the `display` API call).

        ``fmt``: ``"svg"``, ``"ascii"`` or ``"positions"`` (raw layout
        dict, which is what the original API returns to the browser).
        """
        layouts = {"ego": ego_layout, "circular": circular_layout,
                   "spring": spring_layout}
        if layout not in layouts:
            raise CExplorerError("unknown layout {!r}; choose from {}"
                                 .format(layout, sorted(layouts)))
        positions = layouts[layout](community)
        if fmt == "positions":
            return positions
        if fmt == "svg":
            return render_svg(community, layout=positions, **kwargs)
        if fmt == "ascii":
            return render_ascii(community, layout=positions, **kwargs)
        raise CExplorerError("unknown display format {!r}".format(fmt))

    def profile(self, vertex):
        """The Figure 2 author-profile card for a vertex or name."""
        v = self.resolve_vertex(vertex)
        return self.profiles.get(self.graph.display_name(v))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @staticmethod
    def available_algorithms():
        """Registered algorithm names: the UI's drop-downs."""
        return {"cs": list_cs_algorithms(), "cd": list_cd_algorithms()}

    def _require_current(self):
        if self._current is None:
            raise CExplorerError("no graph uploaded yet")
        return self._current
