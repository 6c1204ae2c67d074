"""Shared fixtures and hypothesis strategies for the test suite."""

import pytest
from hypothesis import strategies as st

from repro.datasets import (
    DblpConfig,
    figure5_graph,
    generate_dblp_graph,
    karate_club_graph,
)
from repro.graph.attributed import AttributedGraph


@pytest.fixture
def fig5():
    """The paper's running example graph (Figure 5(a))."""
    return figure5_graph()


@pytest.fixture
def karate():
    """Zachary's karate club with faction keywords."""
    return karate_club_graph()


@pytest.fixture(scope="session")
def dblp_small():
    """A small synthetic DBLP graph shared across tests (read-only)."""
    return generate_dblp_graph(DblpConfig(n_authors=400, n_communities=8,
                                          seed=13))


@pytest.fixture(scope="session")
def dblp_medium():
    """The default 2,000-author synthetic DBLP graph (read-only)."""
    return generate_dblp_graph()


@pytest.fixture
def fault_plan():
    """Factory: a seeded fault-injection plan from a spec string
    (``'seed=7;kill:full_query@0.05'`` -- see repro.engine.faults), ready
    to hand to ``CExplorer(faults=...)`` / ``QueryEngine(faults=...)``.
    """
    from repro.engine.faults import FaultPlan
    return FaultPlan.from_spec


def build_graph(n, edge_pairs, keyword_map=None):
    """Build an AttributedGraph from raw data (test helper)."""
    g = AttributedGraph()
    for i in range(n):
        kws = keyword_map.get(i, ()) if keyword_map else ()
        g.add_vertex("n{}".format(i), kws)
    for u, v in edge_pairs:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


@st.composite
def random_graphs(draw, max_n=24, max_m=72, keywords=None):
    """Hypothesis strategy: a small random AttributedGraph.

    ``keywords`` is an optional list of keyword symbols; each vertex
    gets a random subset.
    """
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=0, max_size=m))
    keyword_map = {}
    if keywords:
        for v in range(n):
            keyword_map[v] = draw(st.sets(st.sampled_from(keywords)))
    return build_graph(n, pairs, keyword_map)
