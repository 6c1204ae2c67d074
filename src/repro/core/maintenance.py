"""Dynamic maintenance of core numbers under edge updates.

The paper's server keeps an index over graphs that users keep
uploading and editing; rebuilding the whole core decomposition (and
CL-tree) on every edge change would defeat the online story.  This
module maintains core numbers incrementally:

* **Insertion** uses the subcore/traversal insight (Sariyuce et al.):
  when edge ``{u, v}`` arrives with ``k = min(core(u), core(v))``,
  only vertices with core number exactly ``k`` that are reachable from
  the lower endpoint through core-``k`` vertices can be promoted, and
  each promotion is by exactly 1.  A local peel over that candidate
  set decides who is promoted -- no global work.

* **Deletion** demotes conservatively: only core-``k`` vertices in the
  same core-``k``-connected region can drop, and by exactly 1; we
  re-peel that region locally.

Both paths are property-tested against full recomputation.
:class:`CoreMaintainer` also tracks an attached CL-tree's staleness so
:class:`~repro.explorer.cexplorer.CExplorer` can rebuild lazily.
"""

from repro.core.kcore import core_decomposition
from repro.graph.frozen import neighbor_function


class CoreMaintainer:
    """Keeps ``core[v]`` current while the graph mutates through it.

    Use it as the single mutation gateway::

        maintainer = CoreMaintainer(graph)
        maintainer.insert_edge(u, v)   # graph.add_edge + core patch
        maintainer.remove_edge(u, v)
        maintainer.core_numbers()      # always up to date

    ``updates`` counts patched operations; ``promotions``/``demotions``
    count vertices whose core number actually changed (useful in the
    maintenance bench).
    """

    def __init__(self, graph):
        self.graph = graph
        self._core = core_decomposition(graph)
        self.updates = 0
        self.promotions = 0
        self.demotions = 0
        self._listeners = []

    # ------------------------------------------------------------------
    # invalidation hooks
    # ------------------------------------------------------------------
    def add_listener(self, callback):
        """Subscribe to mutations: ``callback(event)`` runs after each
        applied update with ``{"kind", "edge", "changed"}``.  For an
        edge update ``kind`` is ``"insert"``/``"remove"`` and
        ``changed`` is the set of vertices whose core number moved;
        for :meth:`add_vertex` ``kind`` is ``"vertex"``, ``edge`` is
        ``()`` and ``changed`` holds the new vertex.

        The index manager uses this to bump index versions and evict
        affected cache entries without polling.
        """
        self._listeners.append(callback)

    def _notify(self, kind, edge, changed):
        if not self._listeners:
            return
        event = {"kind": kind, "edge": edge,
                 "changed": frozenset(changed)}
        for callback in list(self._listeners):
            callback(event)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def core_numbers(self):
        """A copy of the full core-number array."""
        return list(self._core)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def add_vertex(self, label=None, keywords=()):
        """Add an isolated vertex (core number 0) to the graph.

        Listeners hear of it like of an edge update: every index built
        before the call (core array, CL-tree, its inverted lists) is
        one vertex short and must not answer for the new vertex.
        """
        vid = self.graph.add_vertex(label, keywords)
        self._core.append(0)
        self._notify("vertex", (), {vid})
        return vid

    def insert_edge(self, u, v):
        """Add edge ``{u, v}`` and patch core numbers locally.

        Traversal with MCD pruning: a core-``k`` vertex can only be
        promoted when it has *more than k* neighbours of core >= k
        (its max-core degree), and promotion evidence propagates only
        through such vertices, so the BFS from the lower endpoint never
        enters the rest of the k-shell.
        """
        if not self.graph.add_edge(u, v):
            return False
        self.updates += 1
        core = self._core
        k = min(core[u], core[v])
        roots = [w for w in (u, v) if core[w] == k]
        candidates = self._promotable_region(roots, k)
        promoted = self._settle(candidates, k)
        for w in promoted:
            core[w] = k + 1
            self.promotions += 1
        self._notify("insert", (u, v), promoted)
        return True

    def remove_edge(self, u, v):
        """Remove edge ``{u, v}`` and patch core numbers locally.

        Purely local cascade: only core-``k`` vertices can drop (each
        by exactly 1), and only when their count of core->=k neighbours
        falls below ``k``; each drop decrements its same-shell
        neighbours' counts, so the cascade touches exactly the vertices
        that change plus their neighbourhoods.
        """
        self.graph.remove_edge(u, v)
        self.updates += 1
        core = self._core
        k = min(core[u], core[v])
        if k == 0:
            self._notify("remove", (u, v), ())
            return
        cd = {}

        def support(w):
            """Neighbours of ``w`` at core level >= k (memoized)."""
            if w not in cd:
                cd[w] = sum(1 for x in self.graph.neighbors(w)
                            if core[x] >= k)
            return cd[w]

        queue = [w for w in (u, v)
                 if core[w] == k and support(w) < k]
        dropped = set(queue)
        while queue:
            w = queue.pop()
            core[w] = k - 1
            self.demotions += 1
            for x in self.graph.neighbors(w):
                if core[x] == k and x not in dropped:
                    if x in cd:
                        # Cached count still includes w: subtract it.
                        cd[x] -= 1
                    else:
                        # Fresh count: w is already demoted, so it is
                        # excluded automatically.
                        support(x)
                    if cd[x] < k:
                        dropped.add(x)
                        queue.append(x)
        self._notify("remove", (u, v), dropped)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _promotable_region(self, roots, k):
        """The pruned subcore: candidates for promotion past ``k``.

        Two pruning levels (Sariyuce et al.):

        * **MCD**: a vertex with at most ``k`` neighbours of core >= k
          cannot reach core k+1;
        * **PCD** ("purecore degree"): a vertex needs more than ``k``
          neighbours that could themselves sit in the new (k+1)-core --
          i.e. neighbours with core > k, or core == k *and* MCD > k.
          Traversal only passes through vertices with PCD > k.

        Together these keep single-edge updates local even when the
        k-shell spans a third of the graph.
        """
        core = self._core
        adj = neighbor_function(self.graph)  # no per-call bounds check
        mcd_cache = {}

        def mcd(w):
            """Max-core degree of ``w`` (memoized)."""
            value = mcd_cache.get(w)
            if value is None:
                value = 0
                for x in adj(w):
                    if core[x] >= k:
                        value += 1
                mcd_cache[w] = value
            return value

        def pcd(w):
            """Pure-core degree of ``w``."""
            value = 0
            for x in adj(w):
                cx = core[x]
                if cx > k or (cx == k and mcd(x) > k):
                    value += 1
            return value

        seen = set()
        stack = []
        eligible = set()
        for r in roots:
            if core[r] == k and r not in seen:
                seen.add(r)
                if mcd(r) > k:
                    eligible.add(r)
                    if pcd(r) > k:
                        stack.append(r)
        while stack:
            w = stack.pop()
            for x in adj(w):
                if core[x] == k and x not in seen:
                    seen.add(x)
                    if mcd(x) > k:
                        eligible.add(x)
                        if pcd(x) > k:
                            stack.append(x)
        return eligible

    def _settle(self, candidates, k):
        """Vertices of ``candidates`` that keep strictly more than ``k``
        neighbours counting higher-core vertices and surviving
        candidates (the local peel)."""
        core = self._core
        alive = set(candidates)
        deg = {}
        queue = []
        for w in alive:
            d = 0
            for x in self.graph.neighbors(w):
                if x in alive or core[x] > k:
                    d += 1
            deg[w] = d
            if d <= k:
                queue.append(w)
        removed = set(queue)
        while queue:
            w = queue.pop()
            alive.discard(w)
            for x in self.graph.neighbors(w):
                if x in alive:
                    deg[x] -= 1
                    if deg[x] <= k and x not in removed:
                        removed.add(x)
                        queue.append(x)
        return alive

    # ------------------------------------------------------------------
    # verification helper (used by tests and the bench)
    # ------------------------------------------------------------------
    def verify(self):
        """Recompute from scratch and compare; returns True when the
        maintained numbers are exact."""
        return self._core == core_decomposition(self.graph)
