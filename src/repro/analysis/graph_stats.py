"""Whole-graph statistics: the dataset panel.

When a user uploads a graph, C-Explorer's UI summarises it before any
query runs (Figure 3's "Graph database" pane).  This module computes
the summary: size, degree statistics, clustering, core-number
distribution and component structure -- all exact, all O(n + m) except
clustering (which is triangle-counting bound) and all serialisable for
the HTTP layer.
"""

from repro.core.kcore import core_decomposition


def local_clustering(graph, v):
    """Local clustering coefficient of ``v`` (0.0 for degree < 2)."""
    nbrs = list(graph.neighbors(v))
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    nbr_set = graph.neighbors(v)
    for i, u in enumerate(nbrs):
        for w in nbrs[i + 1:]:
            if w in graph.neighbors(u):
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(graph, sample=None, seed=0):
    """Mean local clustering coefficient.

    ``sample`` limits the computation to a deterministic random sample
    of vertices (useful beyond ~10^5 vertices); None means exact.
    """
    vertices = list(graph.vertices())
    if not vertices:
        return 0.0
    if sample is not None and sample < len(vertices):
        from repro.util.rng import make_rng
        vertices = make_rng(seed).sample(vertices, sample)
    total = sum(local_clustering(graph, v) for v in vertices)
    return total / len(vertices)


def core_histogram(graph, core=None):
    """``{core_number: vertex_count}`` -- the k-core profile."""
    if core is None:
        core = core_decomposition(graph)
    hist = {}
    for k in core:
        hist[k] = hist.get(k, 0) + 1
    return hist


def graph_summary(graph, clustering_sample=2000):
    """The dataset panel document.

    Returns a JSON-ready dict: sizes, degree stats, clustering, the
    core profile and component structure.
    """
    n = graph.vertex_count
    m = graph.edge_count
    degrees = [graph.degree(v) for v in graph.vertices()]
    components = [len(c) for c in graph.connected_components()]
    core = core_decomposition(graph)
    summary = {
        "vertices": n,
        "edges": m,
        "average_degree": round(2.0 * m / n, 3) if n else 0.0,
        "max_degree": max(degrees) if degrees else 0,
        "isolated_vertices": sum(1 for d in degrees if d == 0),
        "connected_components": len(components),
        "largest_component": max(components) if components else 0,
        "max_core": max(core) if core else 0,
        "core_histogram": {str(k): c
                           for k, c in sorted(core_histogram(
                               graph, core).items())},
        "average_clustering": round(
            average_clustering(graph, sample=clustering_sample), 4),
        "keywords": len(graph.keyword_vocabulary()),
    }
    return summary
