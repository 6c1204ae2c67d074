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
submits concurrent queries through.  All of that state lives in
memory: a restarted process registers its graphs and builds their
CL-trees again.
"""

from repro.algorithms.registry import (
    get_cd_algorithm,
    get_cs_algorithm,
    list_cd_algorithms,
    list_cs_algorithms,
)
from repro.analysis.comparison import DEFAULT_METHODS, report
from repro.analysis.graph_stats import graph_summary
from repro.analysis.metrics import cmf, community_conductance, \
    community_density
from repro.analysis.statistics import body_cpj
from repro.core.community import Community
from repro.engine import tracing
from repro.engine.executor import QueryEngine
from repro.engine.index_manager import IndexManager
from repro.engine.plans import plan_search
from repro.explorer.autocomplete import NameIndex
from repro.explorer.profiles import ProfileStore
from repro.graph.io import load_graph
from repro.graph.validation import validate_graph
from repro.util.errors import CExplorerError, QueryError
from repro.viz.layout import circular_layout, ego_layout, spring_layout
from repro.viz.render import render_ascii, render_svg


class CExplorer:
    """The C-Explorer system facade.

    >>> from repro.datasets import generate_dblp_graph
    >>> explorer = CExplorer()
    >>> explorer.add_graph("dblp", generate_dblp_graph())
    'dblp'
    >>> communities = explorer.search("acq", "Jim Gray", k=4)
    """

    def __init__(self, profiles=None, cache_size=256, workers=2,
                 max_queue=64, backend="thread", faults=None):
        self._current = None
        # graph name -> its name index (autocomplete and the
        # case-insensitive lookup), extended as vertices are appended
        # (every other per-graph structure lives in ``self.indexes``,
        # the registry of graphs).
        self._name_indexes = {}
        self.profiles = profiles if profiles is not None else ProfileStore()
        self.indexes = IndexManager()
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
                                  faults=faults)
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

    def add_graph(self, name, graph, select=True):
        """Register an in-memory graph under ``name``.

        Re-registering a name replaces the graph, bumps its index
        version, and invalidates every cached result for it.  Nothing
        is built here: the first query that needs the CL-tree builds
        it (:meth:`index` builds it up front).
        """
        # Registration notifies the engine, which evicts the graph's
        # cached results; the new version starts with nothing derived.
        self.indexes.register(name, graph)
        self._name_indexes.pop(name, None)
        if select or self._current is None:
            self._current = name
        return name

    def select_graph(self, name):
        """Switch the active graph (the UI's dataset picker)."""
        self.indexes.graph(name)        # raises for an unknown name
        self._current = name

    def graph_names(self):
        """Names of the uploaded graphs, sorted."""
        return self.indexes.names()

    @property
    def graph(self):
        """The active graph."""
        return self.indexes.graph(self._require_current())

    # ------------------------------------------------------------------
    # indexing module
    # ------------------------------------------------------------------
    def index(self):
        """The CL-tree of the active graph, built on first use.

        Delegates to the engine's versioned
        :class:`~repro.engine.index_manager.IndexManager`; maintenance
        updates mark the snapshot stale so the next call rebuilds.
        Nothing is written to disk: a restarted process builds the
        tree again (``repro index --out`` saves one explicitly).
        """
        name = self._require_current()
        return self.indexes.cltree(name)

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
        self.indexes.attach_truss_maintainer(name)
        return self.indexes.attach_maintainer(name)

    def name_index(self):
        """Prefix index over the active graph's names: built on first
        use, then extended by the vertices appended since (vertex ids
        only ever grow, so nothing indexed goes stale)."""
        name = self._require_current()
        index = self._name_index_of(name)
        index.extend(self.indexes.graph(name))
        return index

    def _name_index_of(self, name):
        index = self._name_indexes.get(name)
        if index is None:
            index = self._name_indexes[name] = NameIndex()
        return index

    def suggest_names(self, prefix, limit=10):
        """Autocomplete for the query box."""
        return self.name_index().suggest(prefix, limit=limit)

    def summary(self):
        """The dataset panel (whole-graph statistics) of the active
        graph's current version, memoized per version like the
        ``global`` bodies."""
        name = self._require_current()
        graph = self.indexes.graph(name)
        return self.indexes.derived(name, "summary", (),
                                    lambda: graph_summary(graph))

    # ------------------------------------------------------------------
    # the left panel: query construction helpers
    # ------------------------------------------------------------------
    def resolve_vertex(self, vertex):
        """Accept a vertex id, exact label, or case-insensitive label.

        The demo lets the user type "jim gray"; this does that lookup
        (through the graph's :class:`NameIndex`, whose lowercase map is
        built on the first such lookup).
        """
        name = self._require_current()
        graph = self.indexes.graph(name)
        if isinstance(vertex, int):
            if vertex not in graph:
                raise QueryError("vertex id {} out of range".format(vertex))
            return vertex
        if graph.has_label(vertex):
            return graph.id_of(vertex)
        vid = self._name_index_of(name).find(graph, str(vertex))
        if vid is None:
            raise QueryError("no author named {!r}".format(vertex))
        return vid

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
        trace of their own through the engine's recorder.  A search
        inside another operation's trace (one method of a
        :meth:`compare`) is a child ``search`` span of it, and its
        tags go on that span, not on the root.
        """
        name = self._require_current()
        with self.engine.tracer.trace("search", graph=name,
                                      algorithm=algorithm, k=k) as trace:
            if trace.op == "search":
                return self._search_planned(trace, name, algorithm,
                                            vertex, k, keywords,
                                            use_cache, params)
            with trace.span("search", algorithm=algorithm,
                            k=k) as span:
                return self._search_planned(span, name, algorithm,
                                            vertex, k, keywords,
                                            use_cache, params)

    def _search_planned(self, tagged, name, algorithm, vertex, k,
                        keywords, use_cache, params):
        """The traced body of :meth:`search`.  ``tagged`` is the
        trace or span this search's tags go on.

        A cacheable miss runs single-flight, through the index
        manager's one flight table
        (:meth:`~repro.engine.index_manager.IndexManager.once`): the
        first caller computes under the flight of the cache key at the
        index version its miss began at, and a concurrent caller of
        the same key waits for it and answers from the cache (counted
        as ``shared_answers`` and traced ``shared=true``).  The answer
        is stored at the flight's version only: an update landing
        mid-computation drops the store.  A waiter that finds nothing
        stored (the leader failed or its store was dropped) computes
        the answer itself.
        """
        graph = self.graph
        q = self._resolve_query(vertex)
        with tracing.span("plan", graph=name):
            plan = plan_search(algorithm, graph,
                               index_ready=self.indexes.built(name),
                               keywords=keywords,
                               full_payload=self.engine
                               .full_query_capable())
        algo = get_cs_algorithm(plan.algorithm)
        tagged.tag(graph=name, algorithm=plan.algorithm,
                   reason=plan.reason, k=k,
                   worker_full_query=plan.worker_full_query)
        if not use_cache or params:
            return self._run_search(tagged, name, graph, plan, algo, q,
                                    k, keywords, params)
        cache_key = self.cache.key(name, algo.name, q, k, keywords)
        cached = self.cache.get(cache_key)
        if cached is not None:
            return cached
        version = self.indexes.version(name)

        def compute():
            result = self._run_search(tagged, name, graph, plan, algo,
                                      q, k, keywords, params)
            # A one-community answer's footprint is its (possibly
            # shared) member frozenset, not a copy of it per entry.
            footprint = result[0].vertices if len(result) == 1 \
                else {v for c in result for v in c}
            self.cache.put(cache_key, result, vertices=footprint,
                           version=version)
            return result
        result, computed = self.indexes.once(
            (cache_key, version),
            lambda: self.cache.get(cache_key, record_miss=False),
            compute)
        if not computed:
            self.engine.stats.count("shared_answers")
            tagged.tag(shared=True)
        return result

    def _run_search(self, tagged, name, graph, plan, algo, q, k,
                    keywords, params):
        """Compute one planned search: on the frozen payload when the
        plan says so, from the shared ``global`` body when one holds
        the query vertex, by the registered algorithm otherwise."""
        if plan.worker_full_query and not params:
            # Whole-query worker execution (ACQ family, process
            # backend): the entire search -- structural phase
            # included -- runs against the cached frozen payload in a
            # worker process; a job the pool cannot finish reruns
            # inline.
            return self.engine.search_full_query(
                name, plan.algorithm, q, k, keywords=keywords)
        bodies = None
        if algo.name == "global" and not params and isinstance(q, int):
            bodies = self._component_bodies(name, k)
            body = next((b for b in bodies if q in b.vertices), None)
            tagged.tag(shared_body=body is not None)
            if body is not None:
                return [Community(graph, body, method="Global",
                                  query_vertices=(q,), k=k)]
        if plan.use_index and algo.name.startswith("acq") \
                and "index" not in params:
            params["index"] = self.index()
        elif algo.name == "global" and "core" not in params:
            # Global's answer is the connected k-core component; hand
            # it the versioned decomposition (cached per graph version,
            # patched by maintenance) so it skips the O(n + m)
            # whole-graph peel per query.
            params["core"] = self.indexes.core(name)
        elif algo.name == "k-truss" and "truss" not in params:
            # Same reuse for the triangle family: the versioned truss
            # index (patched in place by an attached truss maintainer)
            # replaces the per-query O(m^1.5) decomposition.
            params["truss"] = self.indexes.truss(name)
        elif algo.name == "codicil" and not params:
            # CODICIL is a whole-graph detection: partition the graph
            # once per version and answer every query vertex from it.
            params["partition"] = self.indexes.derived(
                name, "codicil", (),
                lambda: get_cd_algorithm("codicil")(graph))
        result = algo(graph, q, k, keywords=keywords, **params)
        if bodies is not None and result:
            bodies.append(result[0].body)
        return result

    def _component_bodies(self, name, k):
        """The ``global`` answers computed so far on graph ``name`` at
        degree ``k``: a list of
        :class:`~repro.core.community.CommunityBody`, one per
        connected k-core component already asked for.

        Connected k-core components partition the k-core, so every
        query vertex of one component has the same members and its
        answer is *the* body that contains it.  The list is a derived
        value of the current version record, keyed ``("global-bodies",
        k)``: a maintenance update swaps the record, which orphans it
        whole.  It is keyed by membership, not by CL-tree node, so
        reading it needs no current tree -- a ``global`` read after an
        update never pays an index rebuild.  Two threads racing a
        component's first query may each append a body; either one is
        correct.
        """
        return self.indexes.derived(name, "global-bodies", k, list)

    def detect(self, algorithm, **params):
        """Run a CD algorithm on the whole active graph, on the calling
        thread, under either backend."""
        algo = get_cd_algorithm(algorithm)
        name = self._require_current()
        with self.engine.tracer.trace(
                "detect", graph=name, algorithm=algo.name):
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
            "cpj": round(body_cpj(community), 4),
        }
        qv = query_vertex
        if qv is None and community.query_vertices:
            qv = community.query_vertices[0]
        if qv is not None:
            metrics["cmf"] = round(cmf(community, query_vertex=qv), 4)
        return metrics

    def compare(self, vertex, k=4, methods=DEFAULT_METHODS,
                keywords=None):
        """The Comparison Analysis screen (Figure 6) as a report object.

        Each method is one :meth:`search` of ``(vertex, k, keywords)``
        on the calling thread -- never a job on the engine queue, which
        a compare already occupies -- so a cached answer costs its
        lookup, ``global`` reads the shared body and concurrent
        identical misses compute once.  The compare is one root trace
        with a child ``search`` span per method.  Errors follow
        :func:`~repro.analysis.comparison.report`'s rule: a negative
        ``k``, an unknown vertex or method raises, a method raising
        :class:`~repro.util.errors.QueryError` gets an empty row.
        """
        name = self._require_current()
        with self.engine.tracer.trace("compare") as trace:
            trace.tag(graph=name, k=k)
            q = self.resolve_vertex(vertex)
            return report(q, k, methods, self.search, keywords=keywords)

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
