"""The community result type shared by every CR algorithm.

A :class:`Community` is an immutable set of vertex ids plus the
metadata the C-Explorer UI displays: the algorithm that produced it,
the query vertex/vertices, the minimum-degree parameter, and -- for
attributed communities -- the shared keyword set ``L(Gq, S)`` that
defines the community's *theme* (Figure 1, right panel).

The member set lives in a :class:`CommunityBody`, which several
communities may share: every ``Global`` query inside one connected
k-core component has the same members, so the engine hands them all
one body and the member names, the edge count and their JSON encoding
are computed once for the lot.
"""

import json

from repro.graph.frozen import neighbor_function


class CommunityBody:
    """An immutable member set plus its lazily computed presentation.

    ``names``, ``edge_count`` and ``encoded`` are derived from the
    graph on first use and kept; they describe the graph as it was
    then.  A body is therefore shared only between communities
    extracted from one version of one graph -- the engine keys the
    bodies it shares by index version.  ``cpj`` is the same kind of
    derived value, kept here by :mod:`repro.analysis.statistics`
    (``None`` until first read).
    """

    __slots__ = ("graph", "vertices", "cpj", "_names", "_edge_count",
                 "_encoded")

    def __init__(self, graph, vertices):
        self.graph = graph
        self.vertices = frozenset(vertices)
        if not self.vertices:
            raise ValueError("a community cannot be empty")
        self.cpj = None
        self._names = None
        self._edge_count = None
        self._encoded = None

    @property
    def names(self):
        """Display names of the members, sorted, as a tuple."""
        if self._names is None:
            name = self.graph.display_name
            self._names = tuple(sorted(name(v) for v in self.vertices))
        return self._names

    @property
    def edge_count(self):
        """Number of edges of the graph induced on the members."""
        if self._edge_count is None:
            members = self.vertices
            neighbors = neighbor_function(self.graph)
            self._edge_count = sum(
                len(members.intersection(neighbors(v)))
                for v in members) // 2
        return self._edge_count

    @property
    def average_degree(self):
        """Average vertex degree inside the member set."""
        return 2.0 * self.edge_count / len(self.vertices)

    def document(self):
        """The member part of :meth:`Community.to_dict`."""
        return {
            "vertices": list(self.names),
            "vertex_count": len(self.vertices),
            "edge_count": self.edge_count,
            "average_degree": round(self.average_degree, 2),
        }

    @property
    def encoded(self):
        """``json.dumps(self.document())`` without its braces: the run
        of text every community sharing this body splices into its
        own JSON encoding."""
        if self._encoded is None:
            self._encoded = json.dumps(self.document())[1:-1]
        return self._encoded


class Community:
    """An extracted community.

    Instances are hashable and compare by (vertex set, shared
    keywords), so deduplicating ACQ results or intersecting results
    from different methods works with plain set operations.

    ``vertices`` is an iterable of vertex ids or a
    :class:`CommunityBody` to share (which brings its own graph).  A
    community's statistics (``edge_count``, ``average_degree``,
    ``member_names``) describe the graph it was extracted from at the
    time they were first read, exactly as its vertex set does: they
    are computed once and not refreshed when the graph later changes.
    The engine's result cache keeps a cached community current by
    footprint eviction -- both endpoints of any changed edge lie in
    the footprint of every answer the change could alter.
    """

    __slots__ = ("_body", "_frame", "shared_keywords", "method",
                 "query_vertices", "k")

    def __init__(self, graph, vertices, method="unknown",
                 query_vertices=(), k=None, shared_keywords=()):
        self._body = (vertices if isinstance(vertices, CommunityBody)
                      else CommunityBody(graph, vertices))
        self._frame = None
        self.shared_keywords = frozenset(shared_keywords)
        self.method = method
        self.query_vertices = tuple(query_vertices)
        self.k = k

    # ------------------------------------------------------------------
    # set-like behaviour
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The graph this community was extracted from."""
        return self._body.graph

    @property
    def body(self):
        """The (possibly shared) :class:`CommunityBody`."""
        return self._body

    @property
    def vertices(self):
        """The member vertex ids as a frozenset."""
        return self._body.vertices

    def __len__(self):
        return len(self._body.vertices)

    def __iter__(self):
        return iter(self._body.vertices)

    def __contains__(self, v):
        return v in self._body.vertices

    def __eq__(self, other):
        if not isinstance(other, Community):
            return NotImplemented
        return (self._body.vertices == other._body.vertices
                and self.shared_keywords == other.shared_keywords)

    def __hash__(self):
        return hash((self._body.vertices, self.shared_keywords))

    # ------------------------------------------------------------------
    # statistics shown in the Fig. 6 table
    # ------------------------------------------------------------------
    @property
    def vertex_count(self):
        """Number of member vertices."""
        return len(self._body.vertices)

    @property
    def edge_count(self):
        """Number of edges of G induced on the community."""
        return self._body.edge_count

    @property
    def average_degree(self):
        """Average vertex degree inside the community."""
        return self._body.average_degree

    def minimum_internal_degree(self):
        """Smallest within-community degree (the cohesion guarantee)."""
        members = self._body.vertices
        return min(
            sum(1 for u in self._body.graph.neighbors(v) if u in members)
            for v in members
        )

    def internal_degree(self, v):
        """Degree of ``v`` counting only community-internal edges."""
        if v not in self._body.vertices:
            raise KeyError(v)
        members = self._body.vertices
        return sum(1 for u in self._body.graph.neighbors(v) if u in members)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def member_names(self):
        """Display names of members, sorted for stable output."""
        return list(self._body.names)

    def theme(self, limit=None):
        """The community theme: its shared keywords, sorted.

        The UI renders this as e.g. ``Theme: transaction, data, ...``.
        """
        words = sorted(self.shared_keywords)
        return words[:limit] if limit is not None else words

    def induced_edges(self):
        """Yield community-internal edges as ``(u, v)`` pairs, u < v."""
        members = self._body.vertices
        for v in members:
            for u in self._body.graph.neighbors(v):
                if v < u and u in members:
                    yield (v, u)

    def to_wire(self):
        """A graph-free, picklable tuple encoding of this community.

        Worker processes run whole queries against *frozen* graph
        snapshots; shipping their :class:`Community` results back
        as-is would pickle the snapshot along with every community.
        The wire form carries only the data -- sorted vertex ids,
        method, query vertices, ``k``, sorted shared keywords -- and
        :meth:`from_wire` rebinds it to the parent's live graph.
        Round-tripping preserves equality and ordering (``__eq__``
        compares vertex and keyword sets only).
        """
        return (tuple(sorted(self._body.vertices)), self.method,
                tuple(self.query_vertices), self.k,
                tuple(sorted(self.shared_keywords)))

    @classmethod
    def from_wire(cls, graph, wire):
        """Rebuild a community from :meth:`to_wire` output, bound to
        ``graph`` (the caller's live graph object)."""
        vertices, method, query_vertices, k, shared = wire
        return cls(graph, vertices, method=method,
                   query_vertices=query_vertices, k=k,
                   shared_keywords=shared)

    def _head(self):
        """The per-query part of :meth:`to_dict`."""
        name = self._body.graph.display_name
        return {
            "method": self.method,
            "k": self.k,
            "query_vertices": [name(q) for q in self.query_vertices],
        }

    def to_dict(self):
        """JSON-friendly representation used by the HTTP server."""
        doc = self._head()
        doc.update(self._body.document())
        doc["theme"] = self.theme()
        return doc

    def to_json(self):
        """``json.dumps(self.to_dict())``, from text encoded once: the
        per-query head and the theme kept here, the member run kept
        on the (shared) body."""
        if self._frame is None:
            self._frame = (
                json.dumps(self._head())[:-1] + ", ",
                ", " + json.dumps({"theme": self.theme()})[1:])
        head, tail = self._frame
        return head + self._body.encoded + tail

    def __repr__(self):
        return ("Community(method={!r}, n={}, m={}, theme={})"
                .format(self.method, self.vertex_count, self.edge_count,
                        self.theme(limit=5)))
