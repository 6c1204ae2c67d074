"""k-core decomposition and peeling.

The k-core ``H_k`` is the largest subgraph in which every vertex has
degree at least ``k`` (Section 3.2).  Three entry points matter to the
rest of the system:

* :func:`core_decomposition` -- every vertex's core number in O(n + m)
  (Batagelj & Zaversnik bucket peeling).  The CL-tree builder and the
  statistics module consume this.
* :func:`peel_to_min_degree` -- generic "remove vertices of degree < k
  until stable" over an arbitrary candidate set; the verification
  primitive shared by ACQ, Global and Local.
* :func:`connected_k_core` -- the connected component of ``H_k``
  containing a query vertex, i.e. exactly what the ``Global`` baseline
  returns for a fixed ``k``.  Accepts a precomputed ``core`` array so
  engine-indexed callers reuse the versioned decomposition instead of
  recomputing O(n + m) per query.

All three are written once, against the unchecked neighbour accessor
:func:`~repro.graph.frozen.neighbor_function` returns for either
representation.  The one other algorithm is the NumPy kernel
:func:`core_decomposition` uses for frozen (CSR) snapshots when NumPy
is importable: level-synchronous peeling (remove every vertex below
the current level at once, decrement neighbours with one scatter-add)
-- the same peeling order as Batagelj-Zaversnik, so core numbers are
identical (a tested invariant), but each round is a handful of array
ops instead of a Python loop over edges.  :func:`peel_to_min_degree`
borrows the trick for the induced degrees of large candidate sets over
a frozen graph.

:func:`k_core`, the whole (possibly disconnected) ``H_k``, is the
reference the tests hold the peeling and the searches against.
"""

from repro.graph.frozen import neighbor_function
from repro.util.errors import UnknownVertexError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the container ships numpy
    _np = None


def core_decomposition(graph):
    """Return ``core`` with ``core[v]`` = core number of vertex ``v``.

    Frozen (CSR) graphs take the vectorised NumPy kernel when NumPy is
    importable; everything else -- mutable graphs, and frozen ones
    without NumPy -- runs the one Batagelj-Zaversnik loop.  Both
    return the same core numbers as a plain list.
    """
    if graph.vertex_count == 0:
        return []
    csr_numpy = getattr(graph, "csr_numpy", None)
    csr = csr_numpy() if csr_numpy is not None else None
    if csr is not None:
        return _core_csr_numpy(*csr)
    return _core_bz(graph)


def _core_bz(graph):
    """Batagelj-Zaversnik O(n + m) bucket peeling: vertices are kept
    in an array sorted by current degree with bucket boundaries, and
    each removal decrements neighbours in place."""
    n = graph.vertex_count
    neighbors = neighbor_function(graph)
    degree = [graph.degree(v) for v in range(n)]
    max_degree = max(degree)

    # bin_start[d] = index in `order` of the first vertex of degree d.
    bin_count = [0] * (max_degree + 1)
    for d in degree:
        bin_count[d] += 1
    bin_start = [0] * (max_degree + 1)
    total = 0
    for d in range(max_degree + 1):
        bin_start[d] = total
        total += bin_count[d]

    order = [0] * n           # vertices sorted by current degree
    position = [0] * n        # position of each vertex in `order`
    fill = list(bin_start)
    for v in range(n):
        position[v] = fill[degree[v]]
        order[position[v]] = v
        fill[degree[v]] += 1

    core = list(degree)
    for i in range(n):
        v = order[i]
        core_v = core[v]
        for u in neighbors(v):
            cu = core[u]
            if cu > core_v:
                # Move u one bucket down: swap it with the first vertex
                # of its current bucket, then shift the boundary.
                pu = position[u]
                pw = bin_start[cu]
                w = order[pw]
                if u != w:
                    order[pu], order[pw] = w, u
                    position[u], position[w] = pw, pu
                bin_start[cu] += 1
                core[u] = cu - 1
    return core


def _core_csr_numpy(indptr, indices):
    """Vectorised level-synchronous peeling over int64 CSR arrays.

    Peel level ``k`` removes, in rounds, every still-alive vertex
    whose residual degree is <= k and assigns it core number ``k``;
    neighbours of the removed batch are decremented with one
    ``subtract.at`` scatter.  Exactly the BZ peeling order batched per
    round, so the result is the same core array.
    """
    n = len(indptr) - 1
    deg = indptr[1:] - indptr[:-1]
    core = _np.zeros(n, dtype=_np.int64)
    alive = _np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining:
        peel = _np.flatnonzero(alive & (deg <= k))
        if peel.size == 0:
            k += 1
            continue
        core[peel] = k
        alive[peel] = False
        remaining -= int(peel.size)
        starts = indptr[peel]
        counts = indptr[peel + 1] - starts
        total = int(counts.sum())
        if total:
            # Concatenate the removed batch's index ranges without a
            # Python loop: position j of block i is starts[i] + (j -
            # exclusive_prefix(counts)[i]).
            offs = _np.zeros(peel.size, dtype=_np.int64)
            _np.cumsum(counts[:-1], out=offs[1:])
            pos = _np.arange(total, dtype=_np.int64) \
                + _np.repeat(starts - offs, counts)
            _np.subtract.at(deg, indices[pos], 1)
    return core.tolist()


def k_core(graph, k):
    """Vertex set of ``H_k``, the (possibly disconnected) k-core."""
    if k < 0:
        raise ValueError("k must be non-negative")
    core = core_decomposition(graph)
    return {v for v in graph.vertices() if core[v] >= k}


def _require_vertex(graph, v):
    """Raise ``UnknownVertexError`` unless ``v`` is a vertex of ``graph``."""
    if v not in graph:
        raise UnknownVertexError(v)


def peel_to_min_degree(graph, candidates, k, protect=()):
    """Largest subset of ``candidates`` whose induced min degree >= k.

    Iteratively deletes vertices whose degree within the surviving set
    is below ``k``.  If any vertex in ``protect`` is deleted the peel
    is considered failed and ``None`` is returned -- this is how ACQ
    verification notices that the query vertex cannot survive.

    Runs in O(sum of candidate degrees): one
    ``alive.intersection(neighbors(v))`` per candidate on either
    representation, so the per-half-edge membership test runs inside
    the set implementation, not in the interpreter.  Large candidate
    sets over a frozen graph vectorise that initialisation under
    NumPy instead (:func:`_induced_degrees`) -- what keeps ``Global``'s
    whole-graph peel and the process backend's frozen path fast.
    """
    alive = set(candidates)
    protect = set(protect)
    if not protect <= alive:
        return None
    if alive:
        # The accessor below is unchecked exactly where ids are a
        # contiguous range, so the extremes vouch for the whole set.
        _require_vertex(graph, min(alive))
        _require_vertex(graph, max(alive))
    neighbors = neighbor_function(graph)
    deg = _induced_degrees(graph, alive)
    if deg is None:
        deg = {v: len(alive.intersection(neighbors(v))) for v in alive}
    queue = [v for v, d in deg.items() if d < k]
    removed = set(queue)
    while queue:
        v = queue.pop()
        if v in protect:
            return None
        alive.discard(v)
        for u in alive.intersection(neighbors(v)):
            deg[u] -= 1
            if deg[u] < k and u not in removed:
                removed.add(u)
                queue.append(u)
    if not protect <= alive:
        return None
    return alive


def _induced_degrees(graph, alive):
    """Vectorised ``{v: degree within alive}`` over a CSR graph.

    Returns ``None`` when the fast path does not apply (no NumPy, not
    a CSR graph, or a candidate set too small to amortise the array
    setup); callers fall back to one set intersection per vertex.
    """
    if _np is None or len(alive) < 48:
        return None
    csr_numpy = getattr(graph, "csr_numpy", None)
    if csr_numpy is None:
        return None
    csr = csr_numpy()
    if csr is None:
        return None
    indptr, indices = csr
    members = _np.fromiter(alive, dtype=_np.int64, count=len(alive))
    mask = _np.zeros(len(indptr) - 1, dtype=bool)
    mask[members] = True
    starts = indptr[members]
    counts = indptr[members + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return dict.fromkeys(alive, 0)
    # Concatenate the members' index ranges without a Python loop
    # (same trick as the vectorised core kernel), gather the alive
    # mask over them, and reduce per segment.  Zero-degree members
    # are excluded from the reduceat boundaries entirely: an empty
    # segment would make reduceat return a stray element instead of
    # 0, and a *trailing* one would put its boundary at ``total``,
    # which reduceat rejects as out of bounds.
    offsets = _np.zeros(len(members), dtype=_np.int64)
    _np.cumsum(counts[:-1], out=offsets[1:])
    pos = _np.arange(total, dtype=_np.int64) \
        + _np.repeat(starts - offsets, counts)
    alive_hits = mask[indices[pos]].astype(_np.int64)
    degs = _np.zeros(len(members), dtype=_np.int64)
    populated = _np.flatnonzero(counts)
    degs[populated] = _np.add.reduceat(alive_hits, offsets[populated])
    return dict(zip(members.tolist(), degs.tolist()))


def connected_k_core(graph, q, k, core=None):
    """Connected component of ``H_k`` containing ``q``; None if absent.

    This is the community the ``Global`` algorithm (Sozio & Gionis)
    returns when the user fixes the degree constraint to ``k`` -- the
    largest connected subgraph containing ``q`` with min degree >= k.

    ``core`` optionally supplies precomputed core numbers (e.g. the
    engine's versioned per-graph decomposition) so repeated queries
    skip the O(n + m) recomputation; when given it must describe
    ``graph``'s current state.
    """
    _require_vertex(graph, q)
    if core is None:
        core = core_decomposition(graph)
    if core[q] < k:
        return None
    neighbors = neighbor_function(graph)
    seen = {q}
    frontier = [q]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if core[w] >= k and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen
