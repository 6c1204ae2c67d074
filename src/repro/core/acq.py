"""ACQ: attributed community queries (Problem 1 of the paper).

Given a graph ``G``, an integer ``k``, a query vertex ``q`` and a
keyword set ``S subseteq W(q)``, an attributed community (AC) is a
connected subgraph ``Gq`` containing ``q`` in which every vertex has
degree >= k *within Gq* and the shared keyword set
``L(Gq, S) = intersection over v of (W(v) & S)`` has maximal size.

Three query algorithms are implemented, as in Section 3.2:

* ``Inc-S`` (:func:`acq_inc_s`) -- incremental, from smaller candidate
  keyword sets to larger ones, computing qualifying vertex sets by
  scanning the structural community (no index help);
* ``Inc-T`` (:func:`acq_inc_t`) -- the same Apriori-style enumeration,
  but qualifying vertex sets come from CL-tree inverted-list
  intersections and keywords are pre-filtered by index support;
* ``Dec`` (:func:`acq_dec`) -- decremental, from larger candidate sets
  to smaller ones, with support-based keyword shrinking.  Because the
  enumeration stops at the *first* (largest) size with a valid AC,
  ``Dec`` wins whenever the answer shares most of ``S`` -- which is the
  common case on real attributed graphs, hence the paper's remark that
  "Dec is generally faster"; C-Explorer ships with ``Dec``.

All three return identical results (a tested invariant).  A brute
force that enumerates every subset of ``S``
(:func:`brute_force_acq`) is included as the exponential strawman the
paper dismisses, and as the oracle for correctness tests.

``Inc-T`` and ``Dec`` read keywords through one seam, the index:
``keyword_vertex_sets(q, k, S)`` (per keyword, its carriers in ``q``'s
k-core component) and, for the no-keyword fallback only,
``community_vertices(q, k)`` -- a :class:`~repro.core.cltree.CLTree`.
The index must describe the graph's current edges *and* keywords.
``Dec`` may also read its singleton communities through a
``singletons`` lookup (see :func:`acq_dec`), the way ``global`` reads
its core numbers through ``core=``: a ``{(k, w): [community, ...]}``
map that every query of one graph version shares, holding the
communities earlier queries verified for each keyword alone.  Like the
index, it must describe the graph's current version.

The multi-vertex variant (a set ``Q`` of query vertices; Section 3.2)
is supported uniformly: every function accepts either a single vertex
id or an iterable of them.
"""

from itertools import combinations

from repro.core.cltree import build_cltree
from repro.core.community import Community
from repro.core.kcore import connected_k_core, peel_to_min_degree
from repro.graph.frozen import neighbor_function
from repro.util.errors import QueryError

_ALGORITHMS = {}


class AcqQuery:
    """A parsed, validated ACQ query.

    Mirrors the ``Query`` object of the paper's Java API (Figure 4):
    query vertices, the degree constraint ``k`` and the keyword set
    ``S``.  ``keywords=None`` means "use all of ``W(q)``" (the default
    the C-Explorer UI presents when the user ticks every keyword).
    """

    def __init__(self, graph, q, k, keywords=None):
        if isinstance(q, int):
            query_vertices = (q,)
        else:
            query_vertices = tuple(dict.fromkeys(q))  # dedupe, keep order
        if not query_vertices:
            raise QueryError("at least one query vertex is required")
        for v in query_vertices:
            if v not in graph:
                raise QueryError("query vertex {!r} not in graph".format(v))
        if k < 0:
            raise QueryError("degree constraint k must be >= 0")
        shared = frozenset.intersection(
            *(graph.keywords(v) for v in query_vertices))
        if keywords is None:
            keywords = shared
        else:
            keywords = frozenset(keywords)
            if not keywords <= shared:
                extra = sorted(keywords - shared)
                raise QueryError(
                    "keywords {} are not in W(q) of every query vertex"
                    .format(extra))
        self.graph = graph
        self.query_vertices = query_vertices
        self.k = k
        self.keywords = keywords

    def __repr__(self):
        names = [self.graph.display_name(v) for v in self.query_vertices]
        return "AcqQuery(q={}, k={}, |S|={})".format(
            names, self.k, len(self.keywords))


# ----------------------------------------------------------------------
# shared machinery
# ----------------------------------------------------------------------

def _structural_community(query, index=None):
    """Vertex set of the connected k-core containing all query vertices.

    Returns ``None`` when no such subgraph exists (core number of some
    query vertex below k, or the query vertices fall into different
    k-core components).
    """
    q0 = query.query_vertices[0]
    if index is not None:
        members = index.community_vertices(q0, query.k)
    else:
        members = connected_k_core(query.graph, q0, query.k)
    if members is None or not members.issuperset(query.query_vertices):
        return None
    return members


def _component_within(neighbors, start, members):
    """Connected component of ``start`` in the subgraph induced by
    ``members`` (which contains it): one set intersection per reached
    vertex against the members not reached yet, and nothing outside
    the component is ever expanded."""
    rest = set(members)
    rest.discard(start)
    comp = {start}
    frontier = [start]
    while frontier and rest:
        found = rest.intersection(neighbors(frontier.pop()))
        rest -= found
        comp |= found
        frontier.extend(found)
    return comp


def _verify(query, candidates):
    """The AC the vertex set ``candidates`` supports, or ``None``:
    the component of the query vertices in the largest subgraph of
    ``G[candidates]`` with min degree >= k.  Cheapest step first:

    1. neighbour support: a query vertex outside the set, or with
       fewer than ``k`` neighbours inside it, cannot survive;
    2. the query vertices' component *inside the candidate set* --
       peeling never crosses a component boundary, so the rest of the
       set (a keyword's carriers are scattered over the whole
       structural community) is never looked at;
    3. peel that component; only if the peel removed something can it
       have split, and is the component taken again.
    """
    k, qs = query.k, query.query_vertices
    neighbors = neighbor_function(query.graph)
    for q in qs:
        if q not in candidates \
                or len(candidates.intersection(neighbors(q))) < k:
            return None
    comp = _component_within(neighbors, qs[0], candidates)
    if not comp.issuperset(qs):
        return None
    survivors = peel_to_min_degree(query.graph, comp, k, protect=qs)
    if survivors is None:
        return None
    if len(survivors) < len(comp):
        comp = _component_within(neighbors, qs[0], survivors)
        if not comp.issuperset(qs):
            return None
    return comp


def _singleton_community(query, candidates, stored):
    """``_verify(query, candidates)`` for one keyword ``w``'s carriers,
    read from ``stored`` when it can be.

    ``stored`` lists the communities ``w``'s carriers verified to so
    far at this ``k``: each is the component of its vertices in the
    k-core of ``G[carriers(w)]``, so every member ``v`` has
    ``AC_w(v)`` equal to it.  When one holds the first query vertex,
    it *is* the verification's answer if it holds every query vertex,
    and no AC exists otherwise.  Only a verification that finds a
    community appends it.  The lists are read-only to every reader:
    a duplicate appended by two threads verifying one component at
    once is harmless.
    """
    qs = query.query_vertices
    for community in stored:
        if qs[0] in community:
            return community if community.issuperset(qs) else None
    community = _verify(query, candidates)
    if community is not None:
        stored.append(community)
    return community


def _communities_from_sets(query, winning):
    """Build deduplicated Community objects from verified vertex sets."""
    graph = query.graph
    out = []
    seen = set()
    for members in winning:
        key = frozenset(members)
        if key in seen:
            continue
        seen.add(key)
        shared = frozenset.intersection(
            *(graph.keywords(v) for v in members)) & query.keywords
        out.append(Community(
            graph, members, method="ACQ",
            query_vertices=query.query_vertices, k=query.k,
            shared_keywords=shared))
    # Larger shared-keyword sets first, then larger communities; tie-break
    # on sorted members for deterministic output.
    out.sort(key=lambda c: (-len(c.shared_keywords), -len(c),
                            sorted(c.vertices)))
    return out


def _fallback(query, index):
    """No keyword subset works: return the structural community.

    Its shared keyword set is empty; maximality holds trivially.  The
    only place the index-driven variants materialise it -- and where a
    multi-vertex query whose vertices share no k-core component ends
    up (all its verifications failed): with the empty answer.
    """
    base = _structural_community(query, index)
    if base is None:
        return []
    return _communities_from_sets(query, [base])


def _apriori_next(level_sets):
    """Generate size-(c+1) candidates from valid size-c keyword tuples.

    Classic Apriori join: two sorted tuples sharing their first c-1
    items combine; the result is kept only if all of its size-c subsets
    were valid.
    """
    valid = set(level_sets)
    ordered = sorted(level_sets)
    out = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a[:-1] != b[:-1]:
                break
            cand = a + (b[-1],)
            if all(tuple(x for j, x in enumerate(cand) if j != drop)
                   in valid for drop in range(len(cand) - 1)):
                out.append(cand)
    return out


# ----------------------------------------------------------------------
# the three query algorithms
# ----------------------------------------------------------------------

def acq_inc_s(query, index=None):
    """Incremental ACQ without index support (``Inc-S``).

    Enumerates keyword combinations bottom-up (size 1, 2, ...); the
    qualifying vertex set of every candidate is recomputed by scanning
    the structural community.  Simple, space-efficient, slowest -- the
    paper's index-free strawman, kept definitional on purpose (an
    ``index`` only spares it the structural peel).
    """
    base = _structural_community(query, index)
    if base is None:
        return []
    graph, k = query.graph, query.k

    best = []
    level = [(w,) for w in sorted(query.keywords)]
    while level:
        verified = []
        winners = []
        for cand in level:
            cand_set = frozenset(cand)
            members = {v for v in base
                       if cand_set <= graph.keywords(v)}
            if len(members) <= k:
                continue
            community = _verify(query, members)
            if community is not None:
                verified.append(cand)
                winners.append(community)
        if not verified:
            break
        best = winners
        level = _apriori_next(verified)
    if not best:
        return _communities_from_sets(query, [base])
    return _communities_from_sets(query, best)


def acq_inc_t(query, index=None):
    """Incremental ACQ with CL-tree support (``Inc-T``).

    Same enumeration order as ``Inc-S`` but qualifying vertex sets come
    from the index's inverted lists (``keyword_vertex_sets``), and
    keywords whose support within the structural community is at most
    ``k`` are dropped up front (an AC needs at least ``k + 1``
    vertices).  A candidate extends its verified prefix's *community*,
    not the prefix's raw vertex set: an AC for a superset of the
    keywords is a connected k-core around the query vertices inside
    the prefix's qualifying set, hence inside the maximal one.
    """
    if index is None:
        index = build_cltree(query.graph)
    k = query.k
    by_kw = index.keyword_vertex_sets(query.query_vertices[0], k,
                                      query.keywords)
    if by_kw is None:
        return []

    best = []
    level = [(w,) for w in sorted(by_kw) if len(by_kw[w]) > k]
    narrowed = {}          # verified keyword tuple -> its community
    while level:
        verified = {}
        for cand in level:
            members = by_kw[cand[-1]]
            if len(cand) > 1:
                members = narrowed[cand[:-1]] & members
            if len(members) <= k:
                continue
            community = _verify(query, members)
            if community is not None:
                verified[cand] = community
        if not verified:
            break
        best = list(verified.values())
        narrowed = verified
        level = _apriori_next(verified)
    if not best:
        return _fallback(query, index)
    return _communities_from_sets(query, best)


def acq_dec(query, index=None, singletons=None):
    """Decremental ACQ (``Dec``) -- the algorithm C-Explorer ships with.

    Works top-down from the full keyword set, over the index's
    per-keyword qualifying vertex sets (``keyword_vertex_sets``):

    1. shrink ``S``: a keyword whose qualifying vertex set has at most
       ``k`` members is dropped; then each surviving keyword ``w`` is
       verified *alone* -- if the singleton ``{w}`` admits no AC, no
       candidate containing ``w`` can either (candidate vertex sets
       only shrink as keywords are added, and k-core peeling is
       monotone in the candidate set), so ``w`` is eliminated from the
       whole enumeration;
    2. try candidate keyword sets by decreasing size, starting from the
       shrunken ``S`` itself; the first size producing any valid AC is
       the answer, and only candidates down to that size are verified.
       A multi-keyword candidate intersects its keywords' *singleton
       communities*, not their raw qualifying sets: an AC for a set
       containing ``w`` is a connected k-core around the query
       vertices inside ``w``'s qualifying set, hence inside the
       maximal one step 1 found -- so the narrowed intersection
       verifies to the same community from a far smaller set.

    On graphs where communities share most of their theme (the typical
    attributed-graph case) step 2 terminates within the first level or
    two, which is why ``Dec`` beats the incremental variants.

    ``singletons`` is an optional ``{(k, w): [community, ...]}`` lookup
    shared by the queries of one graph version: step 1 reads a
    keyword's singleton community from it when a stored one holds the
    first query vertex, and stores each one it verifies.  A singleton
    community is a function of ``(version, k, w)`` and the component
    it holds, not of the query (:func:`_singleton_community`), so the
    answer is the same with or without it.  Only the singleton phase
    reads it.
    """
    if index is None:
        index = build_cltree(query.graph)
    k = query.k
    by_kw = index.keyword_vertex_sets(query.query_vertices[0], k,
                                      query.keywords)
    if by_kw is None:
        return []

    # Support filter, then the (sound) singleton-verification filter.
    singleton_hits = {}
    for w in sorted(by_kw):
        if len(by_kw[w]) <= k:
            continue
        stored = [] if singletons is None \
            else singletons.setdefault((k, w), [])
        community = _singleton_community(query, by_kw[w], stored)
        if community is not None:
            singleton_hits[w] = community

    for size in range(len(singleton_hits), 1, -1):
        winners = []
        for cand in combinations(singleton_hits, size):
            members = set.intersection(
                *(singleton_hits[w] for w in cand))
            if len(members) <= k:
                continue
            community = _verify(query, members)
            if community is not None:
                winners.append(community)
        if winners:
            return _communities_from_sets(query, winners)
    if singleton_hits:
        return _communities_from_sets(query, singleton_hits.values())
    return _fallback(query, index)


def brute_force_acq(query):
    """Exponential baseline: verify *every* subset of ``S``.

    The strawman of Section 3.2 ("complexity exponential to the size of
    S ... impractical"); kept as the correctness oracle and for the
    crossover benchmark E10.
    """
    base = _structural_community(query)
    if base is None:
        return []
    graph = query.graph
    keywords = sorted(query.keywords)
    for size in range(len(keywords), 0, -1):
        winners = []
        for cand in combinations(keywords, size):
            cand_set = frozenset(cand)
            members = {v for v in base if cand_set <= graph.keywords(v)}
            community = _verify(query, members)
            if community is not None:
                winners.append(community)
        if winners:
            return _communities_from_sets(query, winners)
    return _communities_from_sets(query, [base])


_ALGORITHMS.update({
    "inc-s": acq_inc_s,
    "inc-t": acq_inc_t,
    "dec": acq_dec,
})


def acq_search(graph, q, k, keywords=None, algorithm="dec", index=None,
               singletons=None):
    """Run an ACQ query end to end.

    Parameters
    ----------
    graph:
        The attributed graph.
    q:
        A query vertex id, or an iterable of ids for the multi-vertex
        variant.
    k:
        Minimum within-community degree.
    keywords:
        ``S``; defaults to the full shared keyword set of the query
        vertices.
    algorithm:
        ``"dec"`` (default, as in the deployed system), ``"inc-s"`` or
        ``"inc-t"``.
    index:
        An optional prebuilt :class:`~repro.core.cltree.CLTree` (or
        any object with its ``keyword_vertex_sets`` /
        ``community_vertices`` methods) describing ``graph``'s current
        edges and keywords; ``inc-t`` and ``dec`` build one on the
        fly when omitted.
    singletons:
        ``dec`` only: an optional ``{(k, w): [community, ...]}``
        lookup of singleton communities shared by the queries of
        ``graph``'s current version (see :func:`acq_dec`); start it as
        an empty dict and drop it when the graph changes.

    Returns a list of :class:`Community`, all sharing the maximal
    number of keywords from ``S``, sorted largest-theme-first.
    """
    try:
        func = _ALGORITHMS[algorithm]
    except KeyError:
        raise QueryError(
            "unknown ACQ algorithm {!r}; choose from {}".format(
                algorithm, sorted(_ALGORITHMS))) from None
    query = AcqQuery(graph, q, k, keywords)
    if singletons is None:
        return func(query, index=index)
    if func is not acq_dec:
        raise QueryError(
            "only the dec algorithm reads a singleton lookup")
    return acq_dec(query, index=index, singletons=singletons)
