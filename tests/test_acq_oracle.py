"""ACQ against an independent, from-definition oracle.

``brute_force_acq`` shares ``_verify`` and ``peel_to_min_degree`` with
the algorithms it is compared to, so that comparison is system against
system.  The oracle here is written from Problem 1 of the paper alone
and imports nothing from ``repro.core``: subsets of ``S`` by decreasing
size, naive repeated min-degree filtering over ``graph.neighbors``, a
plain BFS.  Every ACQ variant must agree with it on either graph
representation and through every index the engine can hand it.

The second half pins the *work* the index-driven variants do with
deterministic call counts instead of a timing.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acq import acq_search
from repro.core.cltree import build_cltree
from repro.graph.attributed import AttributedGraph
from repro.graph.frozen import freeze

from conftest import build_graph, random_graphs

VARIANTS = ("dec", "inc-t", "inc-s")


# ----------------------------------------------------------------------
# the oracle (no repro.core import below this line)
# ----------------------------------------------------------------------

def _min_degree_filter(graph, vertices, k):
    """Largest subset of ``vertices`` with induced min degree >= k."""
    alive = set(vertices)
    while True:
        weak = {v for v in alive
                if sum(1 for u in graph.neighbors(v) if u in alive) < k}
        if not weak:
            return alive
        alive -= weak


def _community(graph, vertices, qs, k):
    """The connected min-degree-k subgraph of ``G[vertices]`` around all
    of ``qs``, or ``None``."""
    alive = _min_degree_filter(graph, vertices, k)
    if not all(q in alive for q in qs):
        return None
    seen = {qs[0]}
    queue = [qs[0]]
    while queue:
        u = queue.pop(0)
        for w in graph.neighbors(u):
            if w in alive and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen if all(q in seen for q in qs) else None


def oracle_acq(graph, qs, k, keywords):
    """Problem 1, literally: the communities around ``qs`` sharing the
    most keywords of ``S``, as ``[(sorted members, sorted shared)]`` in
    the documented result order."""
    base = _community(graph, graph.vertices(), qs, k)
    if base is None:
        return []
    found = []
    for size in range(len(keywords), 0, -1):
        for subset in combinations(sorted(keywords), size):
            carriers = [v for v in graph.vertices()
                        if set(subset) <= graph.keywords(v)]
            members = _community(graph, carriers, qs, k)
            if members is not None and members not in found:
                found.append(members)
        if found:
            break
    answer = []
    for members in found or [base]:
        shared = set(keywords)
        for v in members:
            shared &= graph.keywords(v)
        answer.append((sorted(members), sorted(shared)))
    answer.sort(key=lambda c: (-len(c[1]), -len(c[0]), c[0]))
    return answer


# ----------------------------------------------------------------------
# every variant x representation x index against it
# ----------------------------------------------------------------------

def _answer(result):
    return [(sorted(c.vertices), sorted(c.shared_keywords))
            for c in result]


def check_against_oracle(graph, qs, k, keywords=None):
    shared = frozenset.intersection(*(graph.keywords(q) for q in qs))
    expected = oracle_acq(graph, qs, k,
                          shared if keywords is None else keywords)
    frozen = freeze(graph)
    q = qs[0] if len(qs) == 1 else list(qs)
    for g in (graph, frozen):
        for index in (None, build_cltree(g)):
            for variant in VARIANTS:
                got = _answer(acq_search(g, q, k, keywords=keywords,
                                         algorithm=variant, index=index))
                assert got == expected, (variant, type(g).__name__,
                                         type(index).__name__)
    return expected


@st.composite
def oracle_cases(draw):
    graph = draw(random_graphs(max_n=10, max_m=30, keywords=list("abc")))
    n = graph.vertex_count
    qs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                       unique=True))
    k = draw(st.integers(0, 3))
    shared = frozenset.intersection(*(graph.keywords(q) for q in qs))
    keywords = draw(st.one_of(
        st.none(), st.sets(st.sampled_from(sorted(shared)))
        if shared else st.just(set())))
    return graph, tuple(qs), k, keywords


class TestAgainstDefinition:
    @settings(max_examples=120, deadline=None)
    @given(oracle_cases())
    def test_random_graphs(self, case):
        check_against_oracle(*case)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_several_components_and_isolated_vertices(self, k):
        """The k = 0 CL-tree root spans every component: two themed
        4-cliques, a triangle and two isolated vertices, all carrying
        the query's keyword."""
        edges = [(a, b) for a in range(4) for b in range(a)]
        edges += [(a, b) for a in range(4, 8) for b in range(4, a)]
        edges += [(8, 9), (9, 10), (8, 10)]
        kws = {v: "xy" for v in range(4)}
        kws.update({v: "x" for v in range(4, 13)})
        graph = build_graph(13, edges, kws)
        for qs in ((0,), (0, 1), (0, 5), (11,), (11, 12), (8,)):
            check_against_oracle(graph, qs, k)

    def test_peel_splits_the_query_component(self):
        """Three 4-cliques hang off connector vertex 4; the third lacks
        the keyword, so among the carriers the connector's degree is 2:
        the carriers are connected until the peel removes it."""
        edges = []
        for clique in (range(4), range(5, 9), range(9, 13)):
            edges += combinations(clique, 2)
        edges += [(4, 3), (4, 5), (4, 9)]
        graph = build_graph(13, edges, {v: "x" for v in range(9)})
        assert check_against_oracle(graph, (0,), 3) == \
            [([0, 1, 2, 3], ["x"])]
        assert check_against_oracle(graph, (0, 5), 3) == \
            [(list(range(13)), [])]

    @pytest.mark.parametrize("k", [1, 2])
    def test_fallback_when_no_neighbour_shares_a_keyword(self, k):
        """Nobody around the query vertex carries its keywords: every
        keyword subset fails and the structural community is the
        answer, with an empty shared set."""
        edges = [(a, b) for a in range(5) for b in range(a)]
        graph = build_graph(5, edges, {0: "pq", 1: "r", 2: "r"})
        for keywords in (None, {"p"}):
            members, shared = check_against_oracle(
                graph, (0,), k, keywords)[0]
            assert members == [0, 1, 2, 3, 4] and shared == []


# ----------------------------------------------------------------------
# a deterministic work guard
# ----------------------------------------------------------------------

class CountingGraph(AttributedGraph):
    """Counts ``keywords()`` calls and records whose neighbours were
    asked for (kernels leave a subclass its own ``neighbors``)."""

    def __init__(self):
        super().__init__()
        self.keyword_calls = 0
        self.asked = set()

    def keywords(self, v):
        self.keyword_calls += 1
        return super().keywords(v)

    def neighbors(self, v):
        self.asked.add(v)
        return super().neighbors(v)


N, CLIQUE, DECOYS = 2000, 30, 40


@pytest.fixture(scope="module")
def themed_ring():
    """A 2 000-vertex 4-core (ring lattice, +-1 and +-2) holding one
    30-vertex themed clique around vertex 0 and 40 far-apart themed
    6-cliques: the theme's 270 carriers fall into 41 components, each a
    4-core of its own, so only a component-first verification can skip
    the decoys."""
    graph = CountingGraph()
    themed = set(range(CLIQUE))
    decoys = [range(100 + 45 * i, 106 + 45 * i) for i in range(DECOYS)]
    for group in decoys:
        themed.update(group)
    for v in range(N):
        graph.add_vertex("a{}".format(v),
                         ("theme", "venue") if v < CLIQUE
                         else ("theme",) if v in themed else ("other",))
    for v in range(N):
        graph.add_edge(v, (v + 1) % N)
        graph.add_edge(v, (v + 2) % N)
    for group in [range(CLIQUE)] + decoys:
        for a, b in combinations(group, 2):
            graph.add_edge(a, b)
    return graph, build_cltree(graph)


class TestWorkGuard:
    @pytest.mark.parametrize("variant", ["dec", "inc-t"])
    @pytest.mark.parametrize("qs", [(0,), (0, 7)])
    def test_keywords_come_from_the_index(self, themed_ring, variant, qs):
        """With an index, ``graph.keywords()`` is read for the query
        vertices and the answer's members only -- never once per
        vertex of the 2 000-vertex structural community."""
        graph, tree = themed_ring
        graph.keyword_calls = 0
        result = acq_search(graph, list(qs), 4, algorithm=variant,
                            index=tree)
        assert _answer(result) == [(list(range(CLIQUE)),
                                    ["theme", "venue"])]
        budget = len(qs) + sum(len(c) for c in result) + 4
        assert graph.keyword_calls <= budget < N

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_verification_stays_inside_the_query_component(
            self, themed_ring, variant):
        """Verifying the theme's 270 scattered carriers expands the
        query's own component and nothing else."""
        graph, tree = themed_ring
        graph.asked = set()
        result = acq_search(graph, 0, 4, keywords={"theme"},
                            algorithm=variant, index=tree)
        assert _answer(result) == [(list(range(CLIQUE)), ["theme"])]
        assert graph.asked == set(range(CLIQUE))
