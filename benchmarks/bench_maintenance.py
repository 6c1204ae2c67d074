"""Ablation -- dynamic core maintenance vs full recomputation.

Not a paper figure.  The server keeps indexes over graphs users edit;
this bench checks the shape that justifies the maintainer: patching
core numbers per edge update beats re-running the whole decomposition
after every update by at least 5x on the DBLP workload.  Exactness
after every update is tier-1's job (``tests/test_maintenance.py``).
"""

import time

from repro.core.kcore import core_decomposition
from repro.core.maintenance import CoreMaintainer

from bench_common import best_of, dblp_sized, write_artifact


def _churn_edges(graph, count):
    """A deterministic batch of (u, v) edges around the highest-degree
    vertices: the hot region where updates are most expensive."""
    hubs = sorted(graph.vertices(), key=graph.degree, reverse=True)[:20]
    edges = []
    i = 0
    for u in hubs:
        for v in hubs:
            if u < v and not graph.has_edge(u, v):
                edges.append((u, v))
                i += 1
                if i >= count:
                    return edges
    return edges


def test_maintenance_speedup_shape(benchmark):
    """Shape: per-update patching beats per-update recomputation by
    a widening margin as the graph grows (>= 5x at 4,000 authors --
    the patch cost is bounded by the update's neighbourhood, the
    recompute cost by n + m).  Each edge is inserted then removed
    once through the maintainer and once with the decomposition
    re-run after every update."""
    graph = dblp_sized(4000)
    edges = _churn_edges(graph, 50)

    def measure():
        work = graph.copy()
        m = CoreMaintainer(work)
        start = time.perf_counter()
        for u, v in edges:
            m.insert_edge(u, v)
        for u, v in edges:
            m.remove_edge(u, v)
        incremental = time.perf_counter() - start
        assert m.verify()

        work = graph.copy()
        start = time.perf_counter()
        for u, v in edges:
            work.add_edge(u, v)
            core_decomposition(work)
        for u, v in edges:
            work.remove_edge(u, v)
            core_decomposition(work)
        return incremental, time.perf_counter() - start

    incremental, recompute = benchmark.pedantic(
        best_of, args=(measure,), rounds=1, iterations=1)
    assert recompute > 5 * incremental, (incremental, recompute)
    write_artifact(
        "maintenance.txt",
        "Ablation - dynamic core maintenance (100 edge updates, 4k "
        "DBLP)\n\n"
        "  incremental patching: {:.4f}s\n"
        "  full recomputation:   {:.4f}s\n"
        "  speedup: {:.1f}x".format(incremental, recompute,
                                    recompute / incremental))
