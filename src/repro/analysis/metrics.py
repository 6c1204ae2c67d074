"""Community-quality metrics: CPJ, CMF and structural measures.

Section 4 of the paper: *"we propose two metrics: CPJ and CMF.  The
metric CPJ measures the average similarity over all pairs of vertices,
and the metric CMF measures the average frequency of keywords in W(q)
for all the vertices in the community.  In general, the higher values
of CPJ and CMF imply better cohesiveness of a community."*

Both are keyword (semantic) metrics; the structural ones (density,
conductance) complete the analysis panel.
"""

import itertools

from repro.util.rng import make_rng


def keyword_jaccard(graph, u, v):
    """Jaccard similarity of the two vertices' keyword sets."""
    a, b = graph.keywords(u), graph.keywords(v)
    if not a and not b:
        return 0.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def cpj(community, max_pairs=200000, seed=0):
    """Community Pairwise Jaccard: mean keyword Jaccard over all pairs.

    For communities with more than ``max_pairs`` vertex pairs the mean
    is estimated on a uniform sample of pairs (deterministic under
    ``seed``); exact otherwise.  Returns a value in [0, 1]; a single-
    vertex community scores 1.0 (perfect self-similarity, matching the
    ACQ paper's convention that smaller tight groups score high).
    """
    graph = community.graph
    members = sorted(community.vertices)
    n = len(members)
    if n < 2:
        return 1.0
    total_pairs = n * (n - 1) // 2
    if total_pairs <= max_pairs:
        pairs = itertools.combinations(members, 2)
        count = total_pairs
    else:
        rng = make_rng(seed)
        pairs = ((members[a], members[b]) for a, b in
                 (sorted(rng.sample(range(n), 2)) for _ in range(max_pairs)))
        count = max_pairs
    score = sum(keyword_jaccard(graph, u, v) for u, v in pairs)
    return score / count


def cmf(community, query_vertex=None):
    """Community Member Frequency w.r.t. the query's keywords.

    For each vertex ``v`` of the community, the fraction of ``W(q)``
    present in ``W(v)``; averaged over members.  Equivalently: the mean
    over keywords of ``W(q)`` of their occurrence frequency inside the
    community.  Returns a value in [0, 1].
    """
    graph = community.graph
    if query_vertex is None:
        if not community.query_vertices:
            raise ValueError(
                "community has no query vertex; pass query_vertex=...")
        query_vertex = community.query_vertices[0]
    wq = graph.keywords(query_vertex)
    if not wq:
        return 0.0
    total = sum(len(graph.keywords(v) & wq) / len(wq) for v in community)
    return total / len(community)


def community_density(community):
    """Internal edge density: m / (n choose 2); 1.0 for a single vertex."""
    n = len(community)
    if n < 2:
        return 1.0
    return community.edge_count / (n * (n - 1) / 2.0)


def community_conductance(community):
    """Conductance of the community cut (lower is better).

    boundary / min(vol(C), vol(V - C)); 0.0 when the community has no
    outgoing edges.
    """
    graph = community.graph
    members = community.vertices
    boundary = 0
    vol_in = 0
    for v in members:
        for u in graph.neighbors(v):
            vol_in += 1
            if u not in members:
                boundary += 1
    vol_out = 2 * graph.edge_count - vol_in
    denom = min(vol_in, vol_out)
    if denom == 0:
        return 0.0
    return boundary / denom
