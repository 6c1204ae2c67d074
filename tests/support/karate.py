"""Zachary's karate club as a small attributed fixture.

The classic 34-vertex social network (Zachary 1977), embedded verbatim
so the tests have one *real* graph with known community structure
without any external dependency.  To make it an
attributed graph, each member carries keywords derived from their
faction plus a couple of shared hobby words, giving the ACQ engine a
meaningful keyword signal that correlates with the ground-truth split.
"""

from repro.graph.attributed import AttributedGraph

_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21),
    (0, 31), (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21),
    (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28),
    (2, 32), (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10),
    (5, 16), (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33),
    (14, 32), (14, 33), (15, 32), (15, 33), (18, 32), (18, 33),
    (19, 33), (20, 32), (20, 33), (22, 32), (22, 33), (23, 25),
    (23, 27), (23, 29), (23, 32), (23, 33), (24, 25), (24, 27),
    (24, 31), (25, 31), (26, 29), (26, 33), (27, 33), (28, 31),
    (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
]

# Faction each member sided with after the split (the CD ground truth).
_FACTION = [
    "hi", "hi", "hi", "hi", "hi", "hi", "hi", "hi", "hi", "officer",
    "hi", "hi", "hi", "hi", "officer", "officer", "hi", "hi", "officer",
    "hi", "officer", "hi", "officer", "officer", "officer", "officer",
    "officer", "officer", "officer", "officer", "officer", "officer",
    "officer", "officer",
]

_FACTION_KEYWORDS = {
    "hi": ("instructor", "lessons", "tournament"),
    "officer": ("club", "administration", "board"),
}


def karate_club_graph():
    """Build the attributed karate-club graph; labels are ``member00``.."""
    graph = AttributedGraph()
    for v, faction in enumerate(_FACTION):
        keywords = set(_FACTION_KEYWORDS[faction])
        keywords.add("karate")
        keywords.add(faction)
        graph.add_vertex("member{:02d}".format(v), keywords)
    for u, v in _EDGES:
        graph.add_edge(u, v)
    return graph


def karate_factions():
    """Ground-truth partition: ``{faction_name: set_of_vertex_ids}``."""
    out = {}
    for v, faction in enumerate(_FACTION):
        out.setdefault(faction, set()).add(v)
    return out
