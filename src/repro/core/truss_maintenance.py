"""Dynamic maintenance of triangle support and truss numbers.

:class:`~repro.core.maintenance.CoreMaintainer` keeps *core* numbers
current under edge updates, which is what makes the engine's selective
cache invalidation sound for the minimum-degree algorithm families
(ACQ, Global).  The triangle-based families (k-truss, ATC) were left
behind: core maintenance does not track how triangle support cascades,
so every maintenance update blindly evicted their cached results.
This module closes that gap.

:class:`TrussMaintainer` keeps two structures exact while the graph
mutates through it:

* **per-edge triangle support** -- patched purely locally: inserting
  ``{u, v}`` bumps the support of ``(u, w)``/``(v, w)`` for every
  common neighbour ``w`` (those are exactly the new triangles), and
  deletion undoes the same set;

* **per-edge truss numbers** -- patched by a *localized fixed-point
  iteration*.  Truss numbers are the unique maximal fixed point of the
  triangle h-index operator

  ``t(e) = 2 + H({min(t(f), t(g)) - 2 : triangles (e, f, g)})``

  (Sariyuce et al., the nucleus-decomposition generalisation of the
  coreness h-index result), and iterating ``v <- min(v, T(v))`` from
  any upper bound converges to it.  A single edge update changes any
  truss number by at most 1 (Huang et al., SIGMOD 2014), so:

  - **deletion** starts from the current values (already an upper
    bound) and drains a worklist seeded with the edges that lost a
    triangle -- only edges whose constraint actually weakens are ever
    re-evaluated;
  - **insertion** first grows a conservative *promotion region* --
    edges triangle-reachable from the new edge through triangles whose
    other two edges sit at the candidate's level or above (the truss
    analogue of the subcore) -- bumps their upper bounds by 1, and
    drains the same worklist; edges outside the region provably cannot
    change, so their values anchor the iteration.

Both paths are property-tested identical to a from-scratch
:func:`~repro.core.ktruss.truss_decomposition` after every update, and
:meth:`TrussMaintainer.verify` is the full-recompute fallback check.

The listener protocol mirrors :class:`CoreMaintainer`: subscribers see
``{"kind", "edge", "changed", "support_changed"}`` where ``changed``
is the set of edges whose truss number moved and ``support_changed``
the support cascade (every edge that gained or lost a triangle).  The
:class:`~repro.engine.index_manager.IndexManager` turns those into the
truss-affected vertex footprint that lets cached k-truss/ATC results
survive unrelated updates.
"""

from repro.core.ktruss import edge_support, truss_decomposition


def edge_key(u, v):
    """Canonical ``(min, max)`` key for the undirected edge ``{u, v}``."""
    return (u, v) if u < v else (v, u)


def _h_index(values):
    """Largest ``h`` such that at least ``h`` of ``values`` are >= ``h``."""
    ordered = sorted(values, reverse=True)
    h = 0
    for i, x in enumerate(ordered):
        if x >= i + 1:
            h = i + 1
        else:
            break
    return h


class TrussMaintainer:
    """Keeps per-edge support and trussness current under edge updates.

    Standalone use (the maintainer as mutation gateway)::

        maintainer = TrussMaintainer(graph)
        maintainer.add_edge(u, v)      # graph.add_edge + truss patch
        maintainer.remove_edge(u, v)
        maintainer.truss(u, v)         # always exact

    When attached through
    :meth:`~repro.engine.index_manager.IndexManager.attach_truss_maintainer`
    the :class:`~repro.core.maintenance.CoreMaintainer` stays the single
    mutation gateway and the index manager forwards each applied update
    via :meth:`apply` -- do not mix both gateways on one graph.

    ``updates`` counts patched operations; ``promotions``/``demotions``
    count edges whose truss number moved; the ``*_cascade_size``
    counters feed the ``truss_cascade_size`` metric.
    """

    def __init__(self, graph):
        self.graph = graph
        self._support = edge_support(graph)
        # The peel consumes its support map destructively; hand it a
        # copy so one support pass serves both structures.
        self._truss = truss_decomposition(graph,
                                          support=dict(self._support))
        self.updates = 0
        self.promotions = 0
        self.demotions = 0
        self.last_cascade_size = 0
        self.max_cascade_size = 0
        self.total_cascade_size = 0
        self._listeners = []

    # ------------------------------------------------------------------
    # invalidation hooks
    # ------------------------------------------------------------------
    def add_listener(self, callback):
        """Subscribe to mutations: ``callback(event)`` runs after each
        applied edge update with ``{"kind", "edge", "changed",
        "support_changed"}`` -- ``changed`` is the frozenset of edges
        whose truss number moved, ``support_changed`` the frozenset of
        edges whose triangle support moved (the support cascade).
        """
        self._listeners.append(callback)

    def _notify(self, kind, u, v, changed, support_changed):
        if not self._listeners:
            return
        event = {"kind": kind, "edge": (u, v),
                 "changed": frozenset(changed),
                 "support_changed": frozenset(support_changed)}
        for callback in list(self._listeners):
            callback(event)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def truss(self, u, v):
        """Current truss number of edge ``{u, v}``."""
        return self._truss[edge_key(u, v)]

    def truss_numbers(self):
        """A copy of the full ``{edge: truss}`` map (u < v keys)."""
        return dict(self._truss)

    def support(self, u, v):
        """Current triangle support of edge ``{u, v}``."""
        return self._support[edge_key(u, v)]

    def supports(self):
        """A copy of the full ``{edge: support}`` map."""
        return dict(self._support)

    # ------------------------------------------------------------------
    # mutations (gateway mode)
    # ------------------------------------------------------------------
    def add_vertex(self, label=None, keywords=()):
        """Add an isolated vertex (no truss state changes)."""
        return self.graph.add_vertex(label, keywords)

    def add_edge(self, u, v):
        """Add edge ``{u, v}`` and patch support/trussness locally."""
        if not self.graph.add_edge(u, v):
            return False
        self._applied_insert(u, v)
        return True

    def remove_edge(self, u, v):
        """Remove edge ``{u, v}`` and patch support/trussness locally."""
        self.graph.remove_edge(u, v)
        self._applied_remove(u, v)

    def apply(self, kind, u, v):
        """Patch for an edge update already applied to the graph.

        The observer entry point used when a
        :class:`~repro.core.maintenance.CoreMaintainer` is the mutation
        gateway: ``kind`` is ``"insert"`` or ``"remove"`` and the graph
        must already reflect the update.  Returns the event dict that
        listeners received.
        """
        if kind == "insert":
            return self._applied_insert(u, v)
        return self._applied_remove(u, v)

    # ------------------------------------------------------------------
    # the insertion cascade
    # ------------------------------------------------------------------
    def _applied_insert(self, u, v):
        self.updates += 1
        adj = self.graph.neighbors
        e0 = edge_key(u, v)
        common = adj(u) & adj(v)
        support = self._support
        support_changed = {e0}
        for w in common:
            for e in (edge_key(u, w), edge_key(v, w)):
                support[e] = support.get(e, 0) + 1
                support_changed.add(e)
        support[e0] = len(common)

        # Conservative promotion region: an existing edge g at level
        # t(g) can only rise to t(g)+1 through a triangle whose other
        # two edges can reach t(g)+1 -- i.e. whose upper bounds
        # (old value + 1, or support+2 for the new edge) allow it.
        # BFS from e0 over that relation; everything outside the
        # region provably keeps its truss number.
        truss = self._truss
        bound0 = len(common) + 2
        region = {e0: bound0}
        stack = [e0]
        while stack:
            f = stack.pop()
            a, b = f
            bf = region[f]
            for w in adj(a) & adj(b):
                fa, fb = edge_key(a, w), edge_key(b, w)
                for g, h in ((fa, fb), (fb, fa)):
                    if g in region:
                        continue
                    tg = truss[g]
                    ubh = region.get(h, truss.get(h, 0) + 1)
                    if tg + 1 <= bf and tg + 1 <= ubh:
                        region[g] = tg + 1
                        stack.append(g)
        changed = self._settle(region)
        self.promotions += len(changed)
        self._record_cascade(changed)
        self._notify("insert", u, v, changed, support_changed)
        return {"kind": "insert", "edge": (u, v),
                "changed": frozenset(changed),
                "support_changed": frozenset(support_changed)}

    # ------------------------------------------------------------------
    # the deletion cascade
    # ------------------------------------------------------------------
    def _applied_remove(self, u, v):
        self.updates += 1
        adj = self.graph.neighbors
        e0 = edge_key(u, v)
        self._truss.pop(e0, None)
        self._support.pop(e0, None)
        # Common neighbours are unaffected by removing {u, v} itself,
        # so the lost triangles are still enumerable post-removal.
        common = adj(u) & adj(v)
        support = self._support
        support_changed = {e0}
        seeds = []
        for w in common:
            for e in (edge_key(u, w), edge_key(v, w)):
                support[e] -= 1
                support_changed.add(e)
                seeds.append(e)
        # Current values upper-bound the new ones (deletion only
        # lowers trussness); drain from the edges that lost a triangle.
        changed = self._settle({}, worklist=seeds)
        self.demotions += len(changed)
        self._record_cascade(changed)
        self._notify("remove", u, v, changed, support_changed)
        return {"kind": "remove", "edge": (u, v),
                "changed": frozenset(changed),
                "support_changed": frozenset(support_changed)}

    # ------------------------------------------------------------------
    # the shared fixed-point drain
    # ------------------------------------------------------------------
    def _settle(self, bounds, worklist=None):
        """Drain ``v <- min(v, T(v))`` to its fixed point.

        ``bounds`` maps region edges to bumped upper bounds
        (insertion); ``worklist`` seeds extra edges to re-evaluate at
        their current values (deletion).  Returns the list of edges
        whose stored truss number changed (new edges excluded).
        """
        truss = self._truss
        adj = self.graph.neighbors
        overlay = dict(bounds)

        def val(e):
            """Current (overlaid) truss bound of edge ``e``."""
            got = overlay.get(e)
            return got if got is not None else truss.get(e, 2)

        stack = list(bounds)
        if worklist:
            stack.extend(worklist)
        queued = set(stack)
        while stack:
            f = stack.pop()
            queued.discard(f)
            a, b = f
            mins = []
            for w in adj(a) & adj(b):
                mins.append(min(val(edge_key(a, w)),
                                val(edge_key(b, w))) - 2)
            new = 2 + _h_index(mins)
            if new >= val(f):
                continue
            if f not in overlay and f not in truss:
                continue
            overlay[f] = new
            # Only triangle partners sitting above the new value can
            # lose a qualifying triangle; everything else keeps its
            # h-index evidence.
            for w in adj(a) & adj(b):
                for g in (edge_key(a, w), edge_key(b, w)):
                    if g not in queued and val(g) > new:
                        stack.append(g)
                        queued.add(g)
        changed = []
        for e, value in overlay.items():
            before = truss.get(e)
            if before != value:
                truss[e] = value
                if before is not None:
                    changed.append(e)
        return changed

    def _record_cascade(self, changed):
        size = len(changed)
        self.last_cascade_size = size
        self.total_cascade_size += size
        if size > self.max_cascade_size:
            self.max_cascade_size = size

    # ------------------------------------------------------------------
    # verification helper (used by tests and the bench)
    # ------------------------------------------------------------------
    def verify(self):
        """Recompute from scratch and compare; returns True when both
        the maintained supports and truss numbers are exact."""
        return (self._support == edge_support(self.graph)
                and self._truss == truss_decomposition(self.graph))


def truss_affected_vertices(graph, event):
    """The vertex footprint a truss-maintenance ``event`` could touch.

    Endpoints of the updated edge, of every support-changed edge, and
    of every truss-changed edge -- plus their one-hop neighbourhoods
    (community growth or shrink must pass through a neighbour of a
    changed endpoint).  Cached k-truss/ATC results whose vertex sets
    are disjoint from this region are provably unaffected.
    """
    points = set(event["edge"])
    for a, b in event["support_changed"]:
        points.add(a)
        points.add(b)
    for a, b in event["changed"]:
        points.add(a)
        points.add(b)
    affected = set(points)
    for p in points:
        if p in graph:
            affected.update(graph.neighbors(p))
    return affected
