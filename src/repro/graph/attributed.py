"""The attributed graph ``G(V, E)`` of the paper (Section 3.2).

Vertices are dense integer ids ``0..n-1``.  Each vertex optionally has
a *label* (the author name shown in the C-Explorer UI) and a keyword
set ``W(v)``.  Edges are undirected and simple; self-loops are
rejected, parallel edges are collapsed.

The structure is a plain adjacency-set representation: Python sets give
O(1) membership/degree and cheap neighbourhood iteration, which is what
the peeling algorithms (k-core, Global) and the traversal algorithms
(Local, ACQ candidate verification) need.  Dense int ids let the
decomposition routines use flat lists instead of dicts on the hot path.
"""

from repro.util.errors import GraphFormatError, UnknownVertexError


class AttributedGraph:
    """Mutable undirected attributed graph.

    Parameters
    ----------
    directed:
        Present for API clarity only; C-Explorer works on undirected
        graphs and ``directed=True`` raises ``GraphFormatError``.
    """

    def __init__(self, directed=False):
        if directed:
            raise GraphFormatError("C-Explorer operates on undirected graphs")
        self._adj = []        # list[set[int]] adjacency
        self._keywords = []   # list[frozenset[str]]
        self._labels = []     # list[str | None]
        self._label_to_id = {}
        self._m = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, label=None, keywords=()):
        """Add a vertex, returning its integer id.

        ``label`` must be unique when given; re-adding an existing label
        raises ``GraphFormatError`` (use :meth:`ensure_vertex` for
        get-or-create behaviour).
        """
        if label is not None and label in self._label_to_id:
            raise GraphFormatError(
                "duplicate vertex label: {!r}".format(label))
        vid = len(self._adj)
        self._keywords.append(frozenset(keywords))
        self._labels.append(label)
        # Appending the adjacency set makes the vertex count: a reader
        # racing this call (the name index) must find its label there.
        self._adj.append(set())
        if label is not None:
            self._label_to_id[label] = vid
        return vid

    def ensure_vertex(self, label, keywords=()):
        """Return the id for ``label``, creating the vertex if needed."""
        vid = self._label_to_id.get(label)
        if vid is None:
            vid = self.add_vertex(label, keywords)
        return vid

    def add_edge(self, u, v):
        """Add the undirected edge ``{u, v}``; returns True if new."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphFormatError("self-loop on vertex {}".format(u))
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        return True

    def remove_edge(self, u, v):
        """Remove the edge ``{u, v}``; raises ``KeyError`` if absent."""
        self._adj[u].remove(v)
        self._adj[v].remove(u)
        self._m -= 1

    def set_keywords(self, v, keywords):
        """Replace the keyword set ``W(v)``.

        A **load-time** call (its callers are the readers in
        :mod:`repro.graph.io` and :mod:`repro.datasets.dblp`): there is
        no post-registration gateway for keyword edits, so nothing
        versions them.  An index built before the edit -- a CL-tree's
        inverted lists, which the ACQ family reads instead of
        ``keywords()`` -- describes the old keywords; an ``index=``
        handed to :func:`~repro.core.acq.acq_search` must describe the
        graph's current keywords as well as its edges.
        """
        self._check_vertex(v)
        self._keywords[v] = frozenset(keywords)

    def relabel(self, v, label):
        """Assign a (new) unique label to vertex ``v``."""
        self._check_vertex(v)
        if label in self._label_to_id and self._label_to_id[label] != v:
            raise GraphFormatError(
                "duplicate vertex label: {!r}".format(label))
        old = self._labels[v]
        if old is not None:
            del self._label_to_id[old]
        self._labels[v] = label
        if label is not None:
            self._label_to_id[label] = v

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def vertex_count(self):
        """Number of vertices."""
        return len(self._adj)

    @property
    def edge_count(self):
        """Number of undirected edges."""
        return self._m

    def __len__(self):
        return len(self._adj)

    def __contains__(self, v):
        return isinstance(v, int) and 0 <= v < len(self._adj)

    def vertices(self):
        """Iterate over all vertex ids."""
        return range(len(self._adj))

    def edges(self):
        """Yield each undirected edge once as an ``(u, v)`` pair, u < v."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u, v):
        """Whether the edge ``{u, v}`` exists."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v):
        """Return the (live) neighbour set of ``v``.

        The returned set is the internal one; callers must not mutate
        it.  Algorithms that shrink neighbourhoods work on copies.
        """
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v):
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def keywords(self, v):
        """Return ``W(v)`` as a frozenset of keyword strings."""
        self._check_vertex(v)
        return self._keywords[v]

    def label(self, v):
        """The label of ``v`` (or ``None``)."""
        self._check_vertex(v)
        return self._labels[v]

    def display_name(self, v):
        """Label if set, else ``"v<id>"`` -- what the UI would show."""
        label = self.label(v)
        return label if label is not None else "v{}".format(v)

    def id_of(self, label):
        """Resolve a vertex label to its id.

        Raises :class:`UnknownVertexError` for unknown labels -- the
        error the UI surfaces when a queried author does not exist.
        """
        try:
            return self._label_to_id[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def has_label(self, label):
        """Whether any vertex carries ``label``."""
        return label in self._label_to_id

    def labels(self):
        """Return a read-only view of ``{label: id}``."""
        return dict(self._label_to_id)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self):
        """Deep-copy the graph (labels and keywords shared, sets copied)."""
        g = AttributedGraph()
        g._adj = [set(nbrs) for nbrs in self._adj]
        g._keywords = list(self._keywords)
        g._labels = list(self._labels)
        g._label_to_id = dict(self._label_to_id)
        g._m = self._m
        return g

    def induced_subgraph(self, vertices):
        """Materialise the induced subgraph on ``vertices``.

        Vertex ids are remapped to ``0..k-1``; the mapping is returned
        alongside so communities can be translated back:
        ``(subgraph, old_to_new)``.  Labels and keywords carry over.
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        old_to_new = {old: new for new, old in enumerate(keep)}
        sub = AttributedGraph()
        for old in keep:
            sub.add_vertex(self._labels[old], self._keywords[old])
        for old in keep:
            u = old_to_new[old]
            for nbr in self._adj[old]:
                w = old_to_new.get(nbr)
                if w is not None and u < w:
                    sub.add_edge(u, w)
        return sub, old_to_new

    def connected_component(self, v):
        """Return the set of vertices reachable from ``v`` (BFS)."""
        self._check_vertex(v)
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen

    def connected_components(self):
        """Yield every connected component as a set of vertex ids."""
        seen = set()
        for v in self.vertices():
            if v not in seen:
                comp = self.connected_component(v)
                seen |= comp
                yield comp

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def keyword_vocabulary(self):
        """Return the set of all keywords appearing on any vertex."""
        vocab = set()
        for kws in self._keywords:
            vocab |= kws
        return vocab

    def __repr__(self):
        return "AttributedGraph(n={}, m={})".format(
            self.vertex_count, self.edge_count
        )

    def _check_vertex(self, v):
        if not (isinstance(v, int) and 0 <= v < len(self._adj)):
            raise UnknownVertexError(v)
