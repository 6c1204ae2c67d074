"""The harness's own copy of the graph, and answer checks from the
definitions.

Nothing here calls the product's algorithms: core numbers come from a
plain peel, and an answer is accepted only if it has the properties its
definition promises on the harness's copy of the graph (which mirrors
every update the workload applies, so a stale cached answer is judged
against the graph as it is now).
"""

import hashlib


class World:
    """Adjacency sets, keywords and names, independent of the server."""

    def __init__(self, graph):
        n = graph.vertex_count
        self.adj = [set(graph.neighbors(v)) for v in range(n)]
        self.keywords = [frozenset(graph.keywords(v)) for v in range(n)]
        self.names = [graph.display_name(v) for v in range(n)]
        self.ids = {name: v for v, name in enumerate(self.names)}
        if len(self.ids) != n:
            raise ValueError("vertex names are not unique")

    def insert(self, u, v):
        self.adj[u].add(v)
        self.adj[v].add(u)

    def remove(self, u, v):
        self.adj[u].discard(v)
        self.adj[v].discard(u)

    def core_numbers(self):
        """Core decomposition by repeated minimum-degree peeling."""
        adj = self.adj
        degree = [len(a) for a in adj]
        core = [0] * len(adj)
        alive = set(range(len(adj)))
        while alive:
            k = min(degree[v] for v in alive)
            stack = [v for v in alive if degree[v] <= k]
            while stack:
                v = stack.pop()
                if v not in alive:
                    continue
                alive.discard(v)
                core[v] = k
                for w in adj[v]:
                    if w in alive:
                        degree[w] -= 1
                        if degree[w] <= k:
                            stack.append(w)
        return core


def community_error(world, op, community):
    """Why ``community`` is not a valid answer to ``op``, or ``None``."""
    try:
        members = {world.ids[name] for name in community["vertices"]}
    except KeyError as exc:
        return "unknown vertex {}".format(exc)
    q, k = op["q"], op["k"]
    if q not in members:
        return "query vertex missing"
    adj = world.adj
    seen = {q}
    frontier = [q]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w in members and w not in seen:
                seen.add(w)
                frontier.append(w)
    if seen != members:
        return "not connected"
    if op["algorithm"] == "k-truss":
        # The community is the vertex set of a k-truss: peeling the
        # induced edges that close fewer than k-2 triangles must leave
        # every member with an edge.
        inside = {v: adj[v] & members for v in members}
        weak = [(u, v) for u in members for v in inside[u] if u < v]
        while weak:
            u, v = weak.pop()
            if v in inside[u] and len(inside[u] & inside[v]) < k - 2:
                inside[u].discard(v)
                inside[v].discard(u)
                weak.extend((min(u, w), max(u, w)) for w in inside[u])
                weak.extend((min(v, w), max(v, w)) for w in inside[v])
        if not all(inside.values()):
            return "not the vertex set of a k-truss"
    elif min(len(adj[v] & members) for v in members) < k:
        return "induced degree below k"
    if op["algorithm"] == "acq":
        theme = set(community["theme"])
        if op["keywords"] is not None and not theme <= set(op["keywords"]):
            return "theme outside the requested keywords"
        if any(not theme <= world.keywords[v] for v in members):
            return "a member lacks a theme keyword"
    return None


def answer_sets(doc):
    """The canonical form of one answer: its communities as sorted
    name tuples, sorted.  ``doc`` is the ``data`` of a search, display
    or compare response."""
    if "community" in doc:
        found = [doc["community"]]
    elif isinstance(doc["communities"], dict):
        found = [c for method in sorted(doc["communities"])
                 for c in doc["communities"][method]]
    else:
        found = doc["communities"]
    return sorted(tuple(sorted(c["vertices"])) for c in found)


def digest(parts):
    """SHA-256 over a sequence of strings (canonical answers' reprs, or
    digests of them)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()
