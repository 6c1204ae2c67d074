"""k-truss decomposition.

The k-truss is the alternative structure-cohesiveness measure the
paper cites (Section 2, Huang et al. [7]): the largest subgraph in
which every edge participates in at least ``k - 2`` triangles.  The
truss-based community search built on it lives in
:mod:`repro.algorithms.truss_search`; this module provides the
decomposition substrate (:func:`edge_support`,
:func:`truss_decomposition`) and :func:`k_truss`, the edge set the
tests hold the searches against.
"""


def edge_support(graph, subset=None):
    """Number of triangles through each edge.

    Returns ``{(u, v): support}`` with ``u < v``.  ``subset`` restricts
    the computation to the induced subgraph on those vertices.
    """
    members = set(subset) if subset is not None else None

    def nbrs(v):
        """Neighbour set of ``v``, restricted to the subset."""
        base = graph.neighbors(v)
        if members is None:
            return set(base) if not isinstance(base, set) else base
        # ``intersection`` accepts any iterable, so this works for
        # both set adjacency and CSR array slices (the read protocol
        # does not promise ``&`` on the raw neighbour collection).
        return members.intersection(base)

    support = {}
    vertices = members if members is not None else graph.vertices()
    for u in vertices:
        nu = nbrs(u)
        for v in nu:
            if u < v:
                # Iterate the smaller adjacency for the intersection.
                nv = nbrs(v)
                small, large = (nu, nv) if len(nu) <= len(nv) else (nv, nu)
                support[(u, v)] = sum(1 for w in small if w in large)
    return support


def truss_decomposition(graph, support=None):
    """Truss number of every edge: ``{(u, v): t}`` with u < v.

    Edge e has truss number t when e belongs to the t-truss but not the
    (t+1)-truss.  Peeling follows the standard algorithm: repeatedly
    remove the edge of minimum support, decrementing the support of the
    edges that formed triangles with it.  Isolated edges get truss 2.
    ``support`` optionally reuses a precomputed :func:`edge_support`
    map (it is consumed destructively).
    """
    if support is None:
        support = edge_support(graph)
    if not support:
        return {}
    # Live adjacency we can shrink as edges are peeled.
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices()}

    # Bucket queue over support values.
    max_sup = max(support.values())
    buckets = [set() for _ in range(max_sup + 1)]
    for e, s in support.items():
        buckets[s].add(e)
    truss = {}
    k = 2
    remaining = len(support)
    floor = 0
    while remaining:
        # Find the lowest non-empty bucket at or above `floor`.
        while floor <= max_sup and not buckets[floor]:
            floor += 1
        if floor > max_sup:
            break
        if floor > k - 2:
            k = floor + 2
        e = buckets[floor].pop()
        u, v = e
        truss[e] = k
        remaining -= 1
        # Remove e and decrement support of every triangle through it.
        small, large = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
        for w in list(adj[small]):
            if w in adj[large] and w not in (u, v):
                for other in ((min(u, w), max(u, w)),
                              (min(v, w), max(v, w))):
                    s = support.get(other)
                    if other in truss or s is None:
                        continue
                    if s > floor:
                        buckets[s].discard(other)
                        support[other] = s - 1
                        buckets[s - 1].add(other)
                        if s - 1 < floor:
                            floor = s - 1
        adj[u].discard(v)
        adj[v].discard(u)
    return truss


def k_truss(graph, k):
    """Edge set of the k-truss: edges with truss number >= k."""
    if k < 2:
        raise ValueError("k must be at least 2 for a k-truss")
    truss = truss_decomposition(graph)
    return {e for e, t in truss.items() if t >= k}

