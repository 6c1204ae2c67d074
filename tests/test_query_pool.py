"""Aggregate quality over a pool of query vertices -- the ACQ paper's
evaluation protocol, on the synthetic DBLP graph.

One walkthrough query demonstrates the system; these tests run each
method over a seeded pool of feasible query vertices
(``conftest.sample_query_vertices``) and assert the paper's aggregate
shapes.  The protocol: a query whose search raises counts as
unanswered, and the metrics are the first community's CPJ and CMF
(against the query vertex), averaged over the answered queries and
rounded to four places.
"""

from repro.algorithms.registry import get_cs_algorithm
from repro.analysis.metrics import cmf, cpj
from repro.core.cltree import build_cltree

from conftest import sample_query_vertices


def aggregate(graph, method, queries, k, **params):
    """``(answered, avg_cpj, avg_cmf)`` of ``method`` over ``queries``."""
    algo = get_cs_algorithm(method)
    cpjs = []
    cmfs = []
    for q in queries:
        try:
            communities = algo(graph, q, k, keywords=None, **params)
        except Exception:
            continue
        if communities:
            cpjs.append(cpj(communities[0]))
            cmfs.append(cmf(communities[0], query_vertex=q))

    def avg(xs):
        return round(sum(xs) / len(xs), 4) if xs else 0.0

    return len(cpjs), avg(cpjs), avg(cmfs)


def test_all_queries_answered_for_feasible_pool(dblp_small):
    """Exact methods answer every feasible query; Local is a budgeted
    heuristic and may abandon a rare hard instance, but not most of
    them (it answers 25 of 25 here)."""
    queries = sample_query_vertices(dblp_small, 4, 25, seed=17)
    index = build_cltree(dblp_small)
    assert aggregate(dblp_small, "global", queries, 4)[0] == 25
    assert aggregate(dblp_small, "acq", queries, 4, index=index)[0] == 25
    assert aggregate(dblp_small, "local", queries, 4)[0] >= 22


def test_acq_beats_global_on_quality_in_aggregate(dblp_small):
    """The ACQ paper's aggregate claim over a query pool."""
    queries = sample_query_vertices(dblp_small, 3, 10, seed=3)
    index = build_cltree(dblp_small)
    _, global_cpj, global_cmf = aggregate(dblp_small, "global", queries, 3)
    _, acq_cpj, acq_cmf = aggregate(dblp_small, "acq", queries, 3,
                                    index=index)
    assert acq_cpj > global_cpj
    assert acq_cmf > global_cmf
