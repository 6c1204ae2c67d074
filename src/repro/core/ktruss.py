"""k-truss decomposition.

The k-truss is the alternative structure-cohesiveness measure the
paper cites (Section 2, Huang et al. [7]): the largest subgraph in
which every edge participates in at least ``k - 2`` triangles.  The
truss-based community search built on it lives in
:mod:`repro.algorithms.truss_search`; this module provides the
decomposition substrate.

Support counting has a CSR fast path: over a
:class:`~repro.graph.frozen.FrozenGraph` the per-vertex neighbour
lists are sorted flat-array slices, so each edge's triangle count is a
sorted-merge intersection over two contiguous runs instead of hash
probes into scattered set buckets.  That is the kernel the engine's
process backend runs on its frozen payloads (see
:func:`repro.engine.backends.full_query_job`).
"""


def _edge_support_csr(graph):
    """Support counting over a frozen CSR graph (sorted-merge kernel).

    Each undirected edge ``(u, v)`` with ``u < v`` is visited once from
    ``u``'s row; the triangle count is the size of the sorted-run
    intersection of the two neighbourhoods.
    """
    indptr, indices = graph.csr()
    support = {}
    n = len(indptr) - 1
    for u in range(n):
        u_start, u_end = indptr[u], indptr[u + 1]
        for i in range(u_start, u_end):
            v = indices[i]
            if v <= u:
                continue
            v_start, v_end = indptr[v], indptr[v + 1]
            a, b = u_start, v_start
            count = 0
            while a < u_end and b < v_end:
                x, y = indices[a], indices[b]
                if x < y:
                    a += 1
                elif y < x:
                    b += 1
                else:
                    count += 1
                    a += 1
                    b += 1
            support[(u, v)] = count
    return support


def edge_support(graph, subset=None):
    """Number of triangles through each edge.

    Returns ``{(u, v): support}`` with ``u < v``.  ``subset`` restricts
    the computation to the induced subgraph on those vertices.  Frozen
    (CSR) graphs take the sorted-merge kernel when unrestricted.
    """
    if subset is None and hasattr(graph, "csr"):
        return _edge_support_csr(graph)
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


def max_truss_number(graph):
    """Largest k with a non-empty k-truss (2 for any non-empty edge set)."""
    truss = truss_decomposition(graph)
    return max(truss.values()) if truss else 0


def k_truss(graph, k):
    """Edge set of the k-truss: edges with truss number >= k."""
    if k < 2:
        raise ValueError("k must be at least 2 for a k-truss")
    truss = truss_decomposition(graph)
    return {e for e, t in truss.items() if t >= k}


def connected_k_truss(graph, q, k):
    """Vertices of the k-truss component containing ``q``.

    Connectivity here is ordinary vertex connectivity restricted to
    k-truss edges (the stronger triangle-connectivity variant lives in
    :func:`repro.algorithms.truss_search.truss_community_search`).
    Returns ``None`` when ``q`` touches no k-truss edge.
    """
    edges = k_truss(graph, k)
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    if q not in adj:
        return None
    seen = {q}
    frontier = [q]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
