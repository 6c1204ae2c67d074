"""The CL-tree index (Section 3.2, Figure 5(b)).

The CL-tree ("Core Label tree") organises all k-cores of the graph and
their keywords in one tree:

* each node represents a connected component of some k-core ``H_k``;
* the subtree rooted at a node contains exactly the vertices of that
  component;
* a vertex is *homed* at the unique node whose ``k`` equals the
  vertex's core number;
* every node carries an inverted index ``keyword -> sorted vertex ids``
  over its homed vertices, so "which vertices of this k-core contain
  keyword w" is answered by walking one subtree and unioning short
  lists.

Because k-cores are nested (a (k+1)-core is contained in a k-core),
child components always have strictly larger ``k`` than their parent.
Levels at which a component neither gains vertices nor merges with a
sibling are skipped, keeping the tree linear in the vertex count.

Following the paper (Figure 5(b)), the 0-core -- the entire graph,
connected or not -- is represented by a *single* root when the graph
has isolated vertices or several components; its homed vertices are
exactly the core-number-0 (isolated) vertices, like ``J`` in the
example.  Every node at ``k >= 1`` represents a genuinely connected
component of ``H_k``; only the k=0 root may span disconnected parts,
so :meth:`CLTree.community_vertices` special-cases ``k = 0``.

Two builders are provided, mirroring the ACQ paper:

* :func:`build_cltree_basic` -- top-down recursive component splitting;
  simple, O(m * k_max) worst case.  Used as the test oracle.
* :func:`build_cltree` (advanced) -- bottom-up over vertices in
  decreasing core number with an anchored union-find forest, the
  linear-time construction the paper's "built in linear space and time
  cost" claim refers to.
"""

from repro.core.kcore import core_decomposition
from repro.graph.frozen import neighbor_function
from repro.util.unionfind import UnionFind


class CLTreeNode:
    """One CL-tree node: a connected component of the ``k``-core."""

    __slots__ = ("k", "vertices", "children", "parent", "inverted",
                 "node_id")

    def __init__(self, node_id, k, vertices, graph):
        self.node_id = node_id
        self.k = k
        self.vertices = sorted(vertices)
        self.children = []
        self.parent = None
        # Inverted keyword index over homed vertices (Fig. 5(b)).
        inverted = {}
        for v in self.vertices:
            for w in graph.keywords(v):
                inverted.setdefault(w, []).append(v)
        self.inverted = inverted

    def subtree_nodes(self):
        """Iterate this node and all descendants (preorder)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def subtree_vertices(self):
        """Iterate all vertices of the component this node represents."""
        for node in self.subtree_nodes():
            for v in node.vertices:
                yield v

    def __repr__(self):
        return "CLTreeNode(id={}, k={}, homed={}, children={})".format(
            self.node_id, self.k, len(self.vertices), len(self.children))


class CLTree:
    """The assembled index: a forest (one root per connected component)."""

    def __init__(self, graph, roots, node_of_vertex, core):
        self.graph = graph
        self.roots = roots
        self._node_of = node_of_vertex
        self.core = core

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def node_count(self):
        """Total number of CL-tree nodes across all roots."""
        return sum(1 for root in self.roots for _ in root.subtree_nodes())

    def component_root(self, q, k):
        """Node whose subtree is the k-core component containing ``q``.

        Returns ``None`` when ``core(q) < k`` (no such k-core exists).
        This is the index lookup that replaces a full peeling pass when
        answering a query -- O(tree depth).  For ``k = 0`` the returned
        root covers the whole 0-core, which may span several connected
        components (paper convention); use :meth:`community_vertices`
        when the connected component itself is wanted.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        if self.core[q] < k:
            return None
        node = self._node_of[q]
        while node.parent is not None and node.parent.k >= k:
            node = node.parent
        return node

    def community_vertices(self, q, k):
        """Vertex set of the *connected* k-core containing ``q`` (or None)."""
        if k == 0:
            return self.graph.connected_component(q)
        root = self.component_root(q, k)
        if root is None:
            return None
        return set(root.subtree_vertices())

    # ------------------------------------------------------------------
    # keyword operations (what makes it a *CL* tree)
    # ------------------------------------------------------------------
    def keyword_vertex_sets(self, q, k, keywords):
        """``{w: vertices of q's k-core component carrying w}``.

        The ACQ family's qualifying-vertex-set lookup: one walk of
        :meth:`component_root`'s subtree, unioning each node's
        inverted list per keyword -- no scan of the component, which
        is never materialised.  Returns ``None`` when ``core(q) < k``.
        For ``k = 0`` the root covers the whole 0-core, so the sets
        may span several connected components; ACQ verification takes
        the query's component inside the set before anything else.
        """
        root = self.component_root(q, k)
        if root is None:
            return None
        sets = {w: set() for w in keywords}
        for node in root.subtree_nodes():
            inverted = node.inverted
            for w, members in sets.items():
                homed = inverted.get(w)
                if homed:
                    members.update(homed)
        return sets

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def describe(self):
        """Human-readable dump used by tests and the `analyze` endpoint."""
        lines = []

        def visit(node, depth):
            """Append one indented line per subtree node."""
            names = ", ".join(self.graph.display_name(v)
                              for v in node.vertices)
            lines.append("{}[k={}] {{{}}}".format("  " * depth, node.k,
                                                  names))
            for child in sorted(node.children, key=lambda c: c.vertices):
                visit(child, depth + 1)

        for root in sorted(self.roots, key=lambda r: r.vertices):
            visit(root, 0)
        return "\n".join(lines)

    def index_size(self):
        """Approximate entry count: homed vertices + inverted postings."""
        vertices = 0
        postings = 0
        for root in self.roots:
            for node in root.subtree_nodes():
                vertices += len(node.vertices)
                postings += sum(len(lst) for lst in node.inverted.values())
        return {"nodes": self.node_count(), "vertex_entries": vertices,
                "postings": postings}


def build_cltree(graph, core=None):
    """Advanced (linear-time) CL-tree construction.

    Processes core-number levels from the largest down.  An anchored
    union-find forest maintains, for every partially assembled
    component, the tree node currently at its top ("anchor", Figure
    5(b)).  When vertices of core number ``k`` join, components of
    higher-k cores can only merge *through* those new vertices, so each
    union-find set that received new vertices becomes exactly one new
    node whose children are the anchors of the merged sets.

    Accepts either a mutable :class:`AttributedGraph` or a frozen CSR
    snapshot; the frozen case walks the flat ``indptr``/``indices``
    arrays directly (a process-backend worker builds its CL-tree over
    the frozen snapshot it was shipped, see
    :mod:`repro.engine.backends`).
    """
    if core is None:
        core = core_decomposition(graph)
    n = graph.vertex_count
    if n == 0:
        return CLTree(graph, [], [], [])
    neighbors = neighbor_function(graph)

    by_core = {}
    for v in range(n):
        by_core.setdefault(core[v], []).append(v)

    uf = UnionFind()
    anchors = {}          # union-find root -> set of child CLTreeNodes
    node_of = [None] * n
    next_id = 0

    def merge(a, b):
        """Union two components, re-anchoring their child nodes."""
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        ca = anchors.pop(ra, None)
        cb = anchors.pop(rb, None)
        root = uf.union(ra, rb)
        merged = set()
        if ca:
            merged |= ca
        if cb:
            merged |= cb
        if merged:
            anchors[root] = merged

    for k in sorted(by_core, reverse=True):
        if k == 0:
            break  # isolated vertices are homed at the global root below
        newly = by_core[k]
        for v in newly:
            uf.add(v)
        for v in newly:
            for u in neighbors(v):
                if core[u] >= k and u in uf:
                    merge(v, u)
        # Group the level's vertices by their (final) component.
        groups = {}
        for v in newly:
            groups.setdefault(uf.find(v), []).append(v)
        for root, homed in groups.items():
            node = CLTreeNode(next_id, k, homed, graph)
            next_id += 1
            for child in sorted(anchors.get(root, ()),
                                key=lambda c: c.node_id):
                child.parent = node
                node.children.append(child)
            anchors[root] = {node}
            for v in homed:
                node_of[v] = node

    tops = sorted(
        {node for group in anchors.values() for node in group},
        key=lambda nd: nd.node_id,
    )
    zero_homed = by_core.get(0, [])
    if zero_homed or len(tops) != 1:
        # Paper convention: one root for the whole 0-core.
        root = CLTreeNode(next_id, 0, zero_homed, graph)
        for child in tops:
            child.parent = root
            root.children.append(child)
        for v in zero_homed:
            node_of[v] = root
        roots = [root]
    else:
        roots = tops
    return CLTree(graph, roots, node_of, core)


def build_cltree_basic(graph, core=None):
    """Basic top-down CL-tree construction (the test oracle).

    Starting from whole connected components (the 0-core), each
    component is recursively split: vertices whose core number equals
    the component's minimum stay homed at this node, the rest fall into
    connected sub-components of the next k-core.
    """
    if core is None:
        core = core_decomposition(graph)
    n = graph.vertex_count
    if n == 0:
        return CLTree(graph, [], [], [])

    node_of = [None] * n
    tops = []
    counter = [0]

    def component_split(members):
        """Return (k_min, homed, list of child vertex-sets)."""
        k_min = min(core[v] for v in members)
        homed = [v for v in members if core[v] == k_min]
        rest = {v for v in members if core[v] > k_min}
        child_sets = []
        seen = set()
        for v in rest:
            if v in seen:
                continue
            comp = {v}
            frontier = [v]
            while frontier:
                u = frontier.pop()
                for w in graph.neighbors(u):
                    if w in rest and w not in comp:
                        comp.add(w)
                        frontier.append(w)
            seen |= comp
            child_sets.append(comp)
        return k_min, homed, child_sets

    # Iterative DFS over (component, parent-node) work items; isolated
    # (core 0) vertices are homed at the global root created below.
    all_seen = set()
    zero_homed = [v for v in graph.vertices() if core[v] == 0]
    for v in graph.vertices():
        if v in all_seen or core[v] == 0:
            continue
        comp = graph.connected_component(v)
        all_seen |= comp
        stack = [(comp, None)]
        while stack:
            members, parent = stack.pop()
            k_min, homed, child_sets = component_split(members)
            node = CLTreeNode(counter[0], k_min, homed, graph)
            counter[0] += 1
            node.parent = parent
            if parent is None:
                tops.append(node)
            else:
                parent.children.append(node)
            for u in homed:
                node_of[u] = node
            for child_set in child_sets:
                stack.append((child_set, node))
    if zero_homed or len(tops) != 1:
        root = CLTreeNode(counter[0], 0, zero_homed, graph)
        for child in tops:
            child.parent = root
            root.children.append(child)
        for v in zero_homed:
            node_of[v] = root
        roots = [root]
    else:
        roots = tops
    return CLTree(graph, roots, node_of, core)
