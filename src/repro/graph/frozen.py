"""Immutable CSR snapshots of attributed graphs.

:class:`~repro.graph.attributed.AttributedGraph` is built for
mutation: Python ``set`` adjacency gives O(1) edge updates, which the
maintenance path needs.  The structural kernels underneath every
community search (core decomposition, peeling, component BFS, the
CL-tree build) never mutate -- they only walk neighbourhoods -- and
for them the set representation is pure overhead: scattered hash
buckets per vertex, a bounds-checking method call per neighbourhood,
and an object graph that pickles slowly and expensively when a query
has to cross a process boundary.

:class:`FrozenGraph` is the read-optimised counterpart: a **CSR**
(compressed sparse row) snapshot with two flat arrays --

* ``indptr`` -- ``n + 1`` offsets; vertex ``v``'s neighbourhood is
  ``indices[indptr[v]:indptr[v + 1]]``;
* ``indices`` -- ``2m`` neighbour ids, **sorted** within each
  neighbourhood (deterministic iteration order, binary-searchable
  ``has_edge``).

Properties the rest of the system relies on:

* **immutable** -- mutators raise; every derived quantity (core
  numbers, CL-trees) computed from a given snapshot stays valid for
  the snapshot's lifetime;
* **picklable and compact** -- the arrays are ``array('i')`` buffers
  that pickle as raw bytes, so a graph payload ships to a
  ``multiprocessing`` worker in one cheap memcpy-style hop (see
  :mod:`repro.engine.backends`);
* **kernel-friendly** -- :meth:`FrozenGraph.csr` exposes the flat
  arrays for :func:`neighbor_function` and the triangle-support merge
  in :mod:`repro.core.ktruss`, and :meth:`FrozenGraph.csr_numpy`
  lazily materialises (and caches) int64 NumPy copies for the
  vectorised level-peeling kernel in :mod:`repro.core.kcore` when
  NumPy is importable;
* **read-API compatible** -- the inspection surface of
  ``AttributedGraph`` (``vertices``, ``neighbors``, ``degree``,
  ``keywords``, ``label``, ``connected_component``, ...) is
  duck-typed, so index builders and read-only algorithms accept either
  representation unchanged.

Use :func:`freeze` (or :meth:`FrozenGraph.from_graph`) to snapshot a
mutable graph; freezing an already frozen graph returns it unchanged.
"""

from array import array
from bisect import bisect_left

from repro.graph.attributed import AttributedGraph
from repro.util.errors import GraphFormatError, UnknownVertexError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None


class FrozenGraph:
    """Immutable CSR snapshot of an attributed graph.

    Build one with :meth:`from_graph`; direct construction takes the
    already-validated flat arrays (``indices`` sorted per vertex).
    """

    __slots__ = ("indptr", "indices", "_m", "_keywords", "_labels",
                 "_label_to_id", "_np_csr", "_sidecar")

    def __init__(self, indptr, indices, keywords, labels,
                 sidecar_loader=None):
        self.indptr = indptr
        self.indices = indices
        self._m = len(indices) // 2
        self._keywords = keywords
        self._labels = labels
        self._sidecar = sidecar_loader
        self._label_to_id = None     # built lazily; excluded from pickle
        self._np_csr = None          # cached numpy views, ditto

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph):
        """Snapshot ``graph`` (any object with the read API) as CSR."""
        if isinstance(graph, cls):
            return graph
        n = graph.vertex_count
        indptr = array("i", [0] * (n + 1))
        for v in range(n):
            indptr[v + 1] = indptr[v] + graph.degree(v)
        indices = array("i", [0] * indptr[n])
        for v in range(n):
            pos = indptr[v]
            for u in sorted(graph.neighbors(v)):
                indices[pos] = u
                pos += 1
        keywords = tuple(graph.keywords(v) for v in range(n))
        labels = tuple(graph.label(v) for v in range(n))
        return cls(indptr, indices, keywords, labels)

    # ------------------------------------------------------------------
    # pickling (drop the lazy caches; they rebuild on demand)
    # ------------------------------------------------------------------
    def __getstate__(self):
        # A zero-copy snapshot (repro.engine.payloads) holds its CSR
        # as memoryviews into a shared-memory segment or mmap; those
        # must not be pickled by reference to a buffer that does not
        # travel, so they materialise back into plain arrays here.
        self._ensure_sidecar()
        indptr, indices = self.indptr, self.indices
        if not isinstance(indptr, array):
            indptr = array("i", indptr)
        if not isinstance(indices, array):
            indices = array("i", indices)
        return (indptr, indices, self._keywords, self._labels)

    def __setstate__(self, state):
        indptr, indices, keywords, labels = state
        self.indptr = indptr
        self.indices = indices
        self._m = len(indices) // 2
        self._keywords = keywords
        self._labels = labels
        self._sidecar = None
        self._label_to_id = None
        self._np_csr = None

    # ------------------------------------------------------------------
    # kernel access
    # ------------------------------------------------------------------
    def csr(self):
        """The flat ``(indptr, indices)`` arrays (do not mutate)."""
        return self.indptr, self.indices

    def csr_numpy(self):
        """Cached int64 NumPy copies of ``(indptr, indices)``, or
        ``None`` when NumPy is not importable (pure-Python kernels
        take over)."""
        if _np is None:
            return None
        if self._np_csr is None:
            self._np_csr = (
                _np.asarray(self.indptr, dtype=_np.int64),
                _np.asarray(self.indices, dtype=_np.int64),
            )
        return self._np_csr

    # ------------------------------------------------------------------
    # inspection (the AttributedGraph read API)
    # ------------------------------------------------------------------
    @property
    def vertex_count(self):
        """Number of vertices in the snapshot."""
        return len(self.indptr) - 1

    @property
    def edge_count(self):
        """Number of undirected edges in the snapshot."""
        return self._m

    def __len__(self):
        return len(self.indptr) - 1

    def __contains__(self, v):
        return isinstance(v, int) and 0 <= v < len(self.indptr) - 1

    def vertices(self):
        """Iterate over all vertex ids."""
        return range(len(self.indptr) - 1)

    def edges(self):
        """Yield each undirected edge once as ``(u, v)``, u < v."""
        indptr, indices = self.indptr, self.indices
        for u in range(len(indptr) - 1):
            for v in indices[indptr[u]:indptr[u + 1]]:
                if u < v:
                    yield (u, v)

    def neighbors(self, v):
        """The sorted neighbour ids of ``v`` (a flat array slice)."""
        self._check_vertex(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v):
        """Degree of vertex ``v``."""
        self._check_vertex(v)
        return self.indptr[v + 1] - self.indptr[v]

    def has_edge(self, u, v):
        """Whether the edge ``{u, v}`` exists (binary search)."""
        self._check_vertex(u)
        self._check_vertex(v)
        lo, hi = self.indptr[u], self.indptr[u + 1]
        i = bisect_left(self.indices, v, lo, hi)
        return i < hi and self.indices[i] == v

    def keywords(self, v):
        """``W(v)`` as a frozenset of keyword strings."""
        self._check_vertex(v)
        self._ensure_sidecar()
        return self._keywords[v]

    def label(self, v):
        """The label of ``v`` (or ``None``)."""
        self._check_vertex(v)
        self._ensure_sidecar()
        return self._labels[v]

    def display_name(self, v):
        """Label if set, else ``"v<id>"`` -- what the UI shows."""
        label = self.label(v)
        return label if label is not None else "v{}".format(v)

    def id_of(self, label):
        """Resolve a vertex label to its id."""
        try:
            return self._label_map()[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def has_label(self, label):
        """Whether any vertex carries ``label``."""
        return label in self._label_map()

    def labels(self):
        """A fresh ``{label: id}`` dict (labelled vertices only)."""
        return dict(self._label_map())

    def keyword_vocabulary(self):
        """The set of all keywords appearing on any vertex."""
        self._ensure_sidecar()
        vocab = set()
        for kws in self._keywords:
            vocab |= kws
        return vocab

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def connected_component(self, v):
        """Vertices reachable from ``v`` (CSR BFS, no set adjacency)."""
        self._check_vertex(v)
        indptr, indices = self.indptr, self.indices
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in indices[indptr[u]:indptr[u + 1]]:
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
    # derived graphs (the read protocol's construction surface)
    # ------------------------------------------------------------------
    def copy(self):
        """A canonical **mutable** copy (the protocol's ``copy``).

        Freezing is explicit (:func:`freeze`); copying a snapshot
        yields the thing a copy is for -- a graph the caller may
        mutate.  Built via :func:`repro.graph.protocol.thaw`, so the
        copy's adjacency layout is canonical (sorted insertion order).
        """
        from repro.graph.protocol import thaw

        return thaw(self)

    def induced_subgraph(self, vertices):
        """The induced frozen subgraph on ``vertices``.

        Mirrors ``AttributedGraph.induced_subgraph``: ids are remapped
        to ``0..k-1`` in sorted-old-id order and ``(subgraph,
        old_to_new)`` is returned -- except the subgraph is another
        :class:`FrozenGraph`, built CSR-to-CSR without materialising
        set adjacency (this is what lets a worker carve one component
        out of a cached whole-graph payload).
        """
        keep = sorted(set(vertices))
        for v in keep:
            self._check_vertex(v)
        old_to_new = {old: new for new, old in enumerate(keep)}
        indptr, indices = self.indptr, self.indices
        sub_indptr = array("i", [0] * (len(keep) + 1))
        sub_indices = array("i")
        for new, old in enumerate(keep):
            for u in indices[indptr[old]:indptr[old + 1]]:
                w = old_to_new.get(u)
                if w is not None:
                    sub_indices.append(w)  # stays sorted: map is monotone
            sub_indptr[new + 1] = len(sub_indices)
        self._ensure_sidecar()
        keywords = tuple(self._keywords[old] for old in keep)
        labels = tuple(self._labels[old] for old in keep)
        return (FrozenGraph(sub_indptr, sub_indices, keywords, labels),
                old_to_new)

    # ------------------------------------------------------------------
    # immutability
    # ------------------------------------------------------------------
    def add_vertex(self, *args, **kwargs):
        """Raise: the snapshot is immutable."""
        raise GraphFormatError("FrozenGraph is immutable")

    def add_edge(self, *args, **kwargs):
        """Raise: the snapshot is immutable."""
        raise GraphFormatError("FrozenGraph is immutable")

    def remove_edge(self, *args, **kwargs):
        """Raise: the snapshot is immutable."""
        raise GraphFormatError("FrozenGraph is immutable")

    def set_keywords(self, *args, **kwargs):
        """Raise: the snapshot is immutable."""
        raise GraphFormatError("FrozenGraph is immutable")

    def relabel(self, *args, **kwargs):
        """Raise: the snapshot is immutable."""
        raise GraphFormatError("FrozenGraph is immutable")

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self):
        return "FrozenGraph(n={}, m={})".format(self.vertex_count,
                                                self.edge_count)

    def _label_map(self):
        if self._label_to_id is None:
            self._ensure_sidecar()
            self._label_to_id = {
                label: v for v, label in enumerate(self._labels)
                if label is not None
            }
        return self._label_to_id

    def _ensure_sidecar(self):
        """Materialise lazily-attached vertex attributes.

        A zero-copy snapshot (:mod:`repro.engine.payloads`) defers the
        keyword/label sidecar unpickle until something actually reads
        an attribute -- the structural kernels (core/truss/BFS) never
        do, which is what makes a shared-memory attach near-free."""
        loader = self._sidecar
        if loader is not None:
            self._sidecar = None
            self._keywords, self._labels = loader()

    def _check_vertex(self, v):
        if not (isinstance(v, int) and 0 <= v < len(self.indptr) - 1):
            raise UnknownVertexError(v)


def freeze(graph):
    """CSR snapshot of ``graph`` (identity on an already frozen one)."""
    return FrozenGraph.from_graph(graph)


def neighbor_function(graph):
    """The fastest neighbour accessor for ``graph``.

    Hot kernels call this once per pass instead of branching per
    vertex, and get an accessor with no per-call bounds check on
    either representation: a closure over the flat CSR arrays for a
    frozen graph, the live neighbour sets for an
    :class:`~repro.graph.attributed.AttributedGraph`.  Anything else
    -- a view, or a subclass that may override ``neighbors`` -- keeps
    its own bound ``neighbors`` method.  What comes back per vertex is
    the read protocol's neighbour iterable (see
    :mod:`repro.graph.protocol`), so a kernel written once against
    ``members.intersection(neighbors(v))`` runs unchanged on both.

    The unchecked accessors index a list, where a negative id wraps:
    callers validate the ids they were handed (``v in graph``) before
    the first call and must not mutate what comes back.
    """
    if type(graph) is AttributedGraph:
        return graph._adj.__getitem__
    csr = getattr(graph, "csr", None)
    if csr is None:
        return graph.neighbors
    indptr, indices = csr()

    def neighbors(v):
        """The sorted CSR neighbour slice of ``v``."""
        return indices[indptr[v]:indptr[v + 1]]
    return neighbors
