"""Attributed community search under *truss* cohesiveness.

The paper notes that besides minimum degree, "other structure
cohesiveness measures, including connectivity and k-truss, have also
been considered for searching communities", and that C-Explorer's
"modular design facilitates future extension".  This module is that
extension: ACQ's keyword maximisation re-based on the k-truss --
every *edge* of the community must close at least ``k - 2`` triangles
inside it, a strictly stronger requirement than degree >= k - 1.

The enumeration mirrors ``Dec`` (top-down over keyword subsets with
singleton pre-filtering, first feasible size wins); only the
verification primitive changes: candidate vertex sets are reduced to
the k-truss and the query vertex's component within it.
"""

from itertools import combinations

from repro.core.acq import AcqQuery
from repro.core.community import Community
from repro.core.ktruss import edge_support
from repro.util.errors import QueryError


def truss_reduce(graph, candidates, k):
    """Largest subgraph of ``candidates`` whose edges all have support
    >= k - 2 within it; returns the surviving vertex set.

    A vertex survives when it keeps at least one qualifying edge
    (k > 2) -- isolated leftovers are dropped.
    """
    if k < 2:
        raise QueryError("truss order k must be >= 2")
    members = set(candidates)
    support = edge_support(graph, subset=members)
    adj = {}
    for (u, v), s in support.items():
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    queue = [e for e, s in support.items() if s < k - 2]
    dead = set(queue)
    while queue:
        u, v = queue.pop()
        # Every triangle through (u, v) loses one support.
        nu, nv = adj.get(u, set()), adj.get(v, set())
        small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
        for w in list(small):
            if w in large:
                for other in ((min(u, w), max(u, w)),
                              (min(v, w), max(v, w))):
                    if other in dead:
                        continue
                    s = support.get(other)
                    if s is None:
                        continue
                    support[other] = s - 1
                    if s - 1 < k - 2:
                        dead.add(other)
                        queue.append(other)
        adj[u].discard(v)
        adj[v].discard(u)
    return {v for v, nbrs in adj.items() if nbrs}


def _query_component(query, survivors):
    """The query vertices' component within ``survivors``, or None
    when any query vertex falls outside the survivors or the
    component."""
    graph, qs = query.graph, query.query_vertices
    if not all(q in survivors for q in qs):
        return None
    comp = {qs[0]}
    stack = [qs[0]]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w in survivors and w not in comp:
                comp.add(w)
                stack.append(w)
    if not all(q in comp for q in qs):
        return None
    return comp


def _verify_truss(query, candidates):
    """Truss-cohesive community of the query vertices inside
    ``candidates``, or None."""
    survivors = truss_reduce(query.graph, candidates, query.k)
    return _query_component(query, survivors)


def attributed_truss_search(graph, q, k, keywords=None):
    """Attributed truss community (ATC-style) of ``q``.

    Returns communities whose induced subgraph is a connected k-truss
    containing ``q`` and whose shared keyword set (within ``S``) has
    maximal size -- ACQ's Problem 1 with the cohesiveness swapped.
    """
    if k < 2:
        raise QueryError("truss order k must be >= 2")
    query = AcqQuery(graph, q, k, keywords)
    base = _verify_truss(query, graph.vertices())
    if base is None:
        return []
    by_kw = {}
    for v in base:
        for w in query.keywords & graph.keywords(v):
            by_kw.setdefault(w, set()).add(v)

    # Singleton pre-filter (sound for the same monotonicity reason as
    # in Dec: candidate vertex sets shrink as keywords are added, and
    # truss reduction is monotone in the candidate set).
    singleton_hits = {}
    kept = []
    for w in sorted(by_kw):
        if len(by_kw[w]) < 3:  # a triangle needs three vertices
            continue
        hit = _verify_truss(query, by_kw[w])
        if hit is not None:
            kept.append(w)
            singleton_hits[w] = hit
    if not kept:
        return [_community(query, base)]

    for size in range(len(kept), 0, -1):
        winners = []
        for cand in combinations(kept, size):
            if size == 1:
                winners.append(singleton_hits[cand[0]])
                continue
            members = set.intersection(*(by_kw[w] for w in cand))
            if len(members) < 3:
                continue
            hit = _verify_truss(query, members)
            if hit is not None:
                winners.append(hit)
        if winners:
            seen = set()
            out = []
            for members in winners:
                key = frozenset(members)
                if key not in seen:
                    seen.add(key)
                    out.append(_community(query, members))
            out.sort(key=lambda c: (-len(c.shared_keywords), -len(c),
                                    sorted(c.vertices)))
            return out
    return [_community(query, base)]


def _community(query, members):
    graph = query.graph
    shared = frozenset.intersection(
        *(graph.keywords(v) for v in members)) & query.keywords
    return Community(graph, members, method="ATC",
                     query_vertices=query.query_vertices, k=query.k,
                     shared_keywords=shared)
