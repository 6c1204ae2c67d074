"""``CODICIL``: content-and-link community detection (Ruan et al. [10]).

CODICIL's pipeline, reproduced here:

1. **Content edges.**  Treat each vertex's keyword set as a document;
   connect every vertex to its top-``t`` most similar vertices by
   TF-IDF cosine similarity.  Candidate pairs come from a keyword
   inverted index (vertices sharing no keyword have similarity 0 and
   are never compared), with very common keywords capped so the
   candidate lists stay near-linear.
2. **Edge union.**  Combine content edges with the topological edges.
3. **Local bias / sampling.**  For every vertex, rank its combined
   incident edges by a mix of content similarity and topological
   (neighbourhood Jaccard) similarity, and keep only the strongest
   fraction.  This sparsification is the heart of CODICIL: it lets a
   plain clustering algorithm see content signal without drowning in
   edges.
4. **Clustering.**  Cluster the sampled graph; we use (weighted) label
   propagation, matching the paper's "any fast graph clusterer"
   stance.

The result is a full partition (CODICIL is a community *detection*
method: "no parameter" for a query vertex in the paper's Figure 6 --
the community of ``q`` is simply the cluster containing it).
"""

import math

from repro.algorithms.label_propagation import label_propagation
from repro.core.community import Community
from repro.graph.attributed import AttributedGraph
from repro.util.errors import QueryError
from repro.util.rng import make_rng


def _tfidf_vectors(graph, df_cap_ratio):
    """Per-vertex TF-IDF vectors and the keyword inverted index.

    Returns ``(vectors, posting_lists)``; keywords appearing on more
    than ``df_cap_ratio * n`` vertices are dropped from the index (but
    kept in vectors with their low IDF weight).
    """
    n = max(graph.vertex_count, 1)
    df = {}
    for v in graph.vertices():
        for w in graph.keywords(v):
            df[w] = df.get(w, 0) + 1
    idf = {w: math.log(1.0 + n / count) for w, count in df.items()}
    vectors = {}
    for v in graph.vertices():
        vec = {w: idf[w] for w in graph.keywords(v)}
        norm = math.sqrt(sum(x * x for x in vec.values()))
        if norm > 0:
            vec = {w: x / norm for w, x in vec.items()}
        vectors[v] = vec
    cap = df_cap_ratio * n
    postings = {}
    for v in graph.vertices():
        for w in graph.keywords(v):
            if df[w] <= cap:
                postings.setdefault(w, []).append(v)
    return vectors, postings


def _cosine(vec_a, vec_b):
    if len(vec_a) > len(vec_b):
        vec_a, vec_b = vec_b, vec_a
    return sum(x * vec_b.get(w, 0.0) for w, x in vec_a.items())


def _content_edges(graph, vectors, postings, t, max_candidates):
    """Top-``t`` content neighbours per vertex via the inverted index.

    Keywords are scanned rarest-first so the candidate pool favours
    discriminative matches and the ``max_candidates`` cap cuts off the
    long common-keyword postings rather than the informative ones.
    """
    edges = {}
    for v in graph.vertices():
        seen = {}
        own = sorted(graph.keywords(v),
                     key=lambda w: len(postings.get(w, ())))
        for w in own:
            for u in postings.get(w, ()):
                if u != v:
                    seen[u] = seen.get(u, 0) + 1
            if len(seen) > max_candidates:
                break
        if not seen:
            continue
        scored = []
        for u in seen:
            sim = _cosine(vectors[v], vectors[u])
            if sim > 0.0:
                scored.append((sim, u))
        scored.sort(reverse=True)
        for sim, u in scored[:t]:
            key = (v, u) if v < u else (u, v)
            prev = edges.get(key)
            if prev is None or sim > prev:
                edges[key] = sim
    return edges


def _topo_jaccard(graph, u, v):
    """Neighbourhood Jaccard similarity (vertices included)."""
    nu = set(graph.neighbors(u))
    nu.add(u)
    nv = set(graph.neighbors(v))
    nv.add(v)
    inter = len(nu & nv)
    union = len(nu) + len(nv) - inter
    return inter / union if union else 0.0


def codicil(graph, content_neighbors=5, sample_ratio=0.5, alpha=0.5,
            df_cap_ratio=0.15, max_candidates=400, min_size=2,
            max_sweeps=20, seed=0):
    """Run the CODICIL pipeline; returns a list of :class:`Community`.

    Parameters
    ----------
    content_neighbors:
        ``t``, content edges added per vertex (step 1).
    sample_ratio:
        Fraction of each vertex's combined edges kept (step 3).
    alpha:
        Weight of content similarity vs topological similarity in the
        edge-ranking score (0 = structure only, 1 = content only).
    df_cap_ratio:
        Keywords on more than this fraction of vertices are too common
        to generate candidate pairs.
    min_size:
        Clusters smaller than this are emitted only if they are
        isolated (otherwise they stay as singleton communities --
        CODICIL never assigns a vertex to zero communities).
    """
    if not 0.0 < sample_ratio <= 1.0:
        raise ValueError("sample_ratio must be in (0, 1]")
    rng = make_rng(seed)
    vectors, postings = _tfidf_vectors(graph, df_cap_ratio)
    content = _content_edges(graph, vectors, postings, content_neighbors,
                             max_candidates)

    # Step 2: union of content and topological edges, scored.
    combined = dict(content)
    for u, v in graph.edges():
        key = (u, v)
        combined.setdefault(key, _cosine(vectors[u], vectors[v]))

    scores = {}
    incident = {v: [] for v in graph.vertices()}
    # Sorted edge order: ``combined``'s insertion order depends on the
    # input's adjacency iteration (set vs CSR), and the stable
    # per-vertex ranking below breaks score ties by list order -- so
    # every order-sensitive step downstream runs over a canonical
    # sequence, keeping frozen and mutable inputs byte-identical.
    for u, v in sorted(combined):
        content_sim = combined[(u, v)]
        score = alpha * content_sim + (1 - alpha) * _topo_jaccard(graph, u, v)
        scores[(u, v)] = score
        incident[u].append((u, v))
        incident[v].append((u, v))

    # Step 3: keep each vertex's strongest edges (ties break on the
    # canonical edge order, never on dict insertion order).
    kept = set()
    for v, edge_list in incident.items():
        if not edge_list:
            continue
        edge_list.sort(key=lambda e: (-scores[e], e))
        keep_n = max(1, int(math.ceil(sample_ratio * len(edge_list))))
        kept.update(edge_list[:keep_n])

    # Step 4: cluster the sampled graph with weighted label propagation.
    sampled = AttributedGraph()
    for _ in graph.vertices():
        sampled.add_vertex()
    weights = {}
    for u, v in sorted(kept):
        sampled.add_edge(u, v)
        weights[(u, v)] = max(scores[(u, v)], 1e-9)
    labels = label_propagation(sampled, max_sweeps=max_sweeps,
                               seed=rng.randrange(2 ** 31),
                               weights=weights, as_communities=False)

    groups = {}
    for v, lbl in labels.items():
        groups.setdefault(lbl, set()).add(v)
    communities = [
        Community(graph, members, method="CODICIL")
        for members in groups.values()
        if len(members) >= min_size or _is_isolated(graph, members)
    ]
    # Vertices folded out by min_size still need a home: singletons.
    covered = set()
    for c in communities:
        covered |= c.vertices
    for v in graph.vertices():
        if v not in covered:
            communities.append(Community(graph, {v}, method="CODICIL"))
    communities.sort(key=lambda c: (-len(c), sorted(c.vertices)))
    return communities


def _is_isolated(graph, members):
    return all(graph.degree(v) == 0 for v in members)


def codicil_community(graph, q, partition=None, **kwargs):
    """The CODICIL community containing ``q`` (Figure 6 usage).

    ``partition`` lets callers reuse a precomputed :func:`codicil`
    result; otherwise the pipeline runs with ``kwargs``.  The answer
    shares its partition community's
    :class:`~repro.core.community.CommunityBody`, so every query
    vertex of one cluster reuses the members' derived statistics.
    """
    if q not in graph:
        raise QueryError("query vertex {!r} not in graph".format(q))
    if partition is None:
        partition = codicil(graph, **kwargs)
    for community in partition:
        if q in community:
            return [Community(graph, community.body, method="CODICIL",
                              query_vertices=(q,))]
    return []
