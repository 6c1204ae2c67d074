"""``Global``: the community-search baseline of Sozio & Gionis [11].

Given a query vertex ``q``, Global peels minimum-degree vertices off
the whole graph while protecting ``q``; the surviving subgraph is the
largest connected subgraph containing ``q`` whose minimum internal
degree is maximal.  With the degree constraint the C-Explorer UI
exposes ("Global: degree >= 4"), the answer is exactly the connected
``k``-core containing ``q`` -- which is why Global communities are big
(305 vertices in the paper's Figure 6 table): they include *everyone*
who clears the bar, with no locality or keyword pruning.
"""

from repro.core.community import Community
from repro.core.kcore import connected_k_core, peel_to_min_degree
from repro.util.errors import QueryError


def global_search(graph, q, k, core=None):
    """Community of ``q`` with min degree >= ``k`` (maximal, connected).

    Returns a list with zero or one :class:`Community` -- empty when
    ``q`` is not in the k-core.  Implemented as the Sozio-Gionis greedy
    peel specialised to a fixed ``k``: delete every vertex whose degree
    falls below ``k``, then keep the component of ``q``.

    ``core`` optionally supplies precomputed core numbers for
    ``graph``'s current state: the answer is exactly the connected
    k-core component of ``q``, so with the engine's versioned
    decomposition in hand the whole-graph peel is skipped and the
    query costs one BFS over the component.
    """
    if q not in graph:
        raise QueryError("query vertex {!r} not in graph".format(q))
    if k < 0:
        raise QueryError("degree constraint k must be >= 0")
    if core is not None:
        comp = connected_k_core(graph, q, k, core=core)
        if comp is None:
            return []
        return [Community(graph, comp, method="Global",
                          query_vertices=(q,), k=k)]
    survivors = peel_to_min_degree(graph, graph.vertices(), k, protect=(q,))
    if survivors is None:
        return []
    comp = {q}
    frontier = [q]
    while frontier:
        u = frontier.pop()
        for w in graph.neighbors(u):
            if w in survivors and w not in comp:
                comp.add(w)
                frontier.append(w)
    return [Community(graph, comp, method="Global", query_vertices=(q,),
                      k=k)]
