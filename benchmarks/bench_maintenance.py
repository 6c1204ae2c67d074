"""Ablation -- dynamic core and truss maintenance vs full recomputation.

Not a paper figure.  The server keeps indexes over graphs users edit;
this bench checks the shape that justifies the maintainers: patching
core (or truss) numbers per edge update beats re-running the whole
decomposition after every update by at least 5x on the DBLP workload.
Exactness after every update is tier-1's job
(``tests/test_maintenance.py`` and ``tests/test_truss_maintenance.py``).
"""

import time

from repro.core.kcore import core_decomposition
from repro.core.ktruss import truss_decomposition
from repro.core.maintenance import CoreMaintainer
from repro.core.truss_maintenance import TrussMaintainer

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


def _assert_speedup(benchmark, graph, edges, maintainer, insert,
                    decompose, artefact, title):
    """Insert then remove ``edges`` once through ``maintainer`` and once
    with ``decompose`` re-run after every update; patching must win by
    at least 5x."""

    def measure():
        work = graph.copy()
        m = maintainer(work)
        start = time.perf_counter()
        for u, v in edges:
            insert(m, u, v)
        for u, v in edges:
            m.remove_edge(u, v)
        incremental = time.perf_counter() - start
        assert m.verify()

        work = graph.copy()
        start = time.perf_counter()
        for u, v in edges:
            work.add_edge(u, v)
            decompose(work)
        for u, v in edges:
            work.remove_edge(u, v)
            decompose(work)
        return incremental, time.perf_counter() - start

    incremental, recompute = benchmark.pedantic(
        best_of, args=(measure,), rounds=1, iterations=1)
    assert recompute > 5 * incremental, (incremental, recompute)
    write_artifact(
        artefact,
        "Ablation - {}\n\n"
        "  incremental patching: {:.4f}s\n"
        "  full recomputation:   {:.4f}s\n"
        "  speedup: {:.1f}x".format(title, incremental, recompute,
                                    recompute / incremental))


def test_maintenance_speedup_shape(benchmark):
    """Shape: per-update patching beats per-update recomputation by
    a widening margin as the graph grows (>= 5x at 4,000 authors --
    the patch cost is bounded by the update's neighbourhood, the
    recompute cost by n + m)."""
    graph = dblp_sized(4000)
    _assert_speedup(benchmark, graph, _churn_edges(graph, 50),
                    CoreMaintainer, CoreMaintainer.insert_edge,
                    core_decomposition, "maintenance.txt",
                    "dynamic core maintenance (100 edge updates, 4k "
                    "DBLP)")


def test_truss_maintenance_speedup_shape(benchmark):
    """Shape: the truss maintainer's localized fixed-point patching
    beats per-update truss recomputation by a widening margin (>= 5x
    at 1,200 authors -- a patch touches only the triangles of the
    affected region, a recompute pays the O(m^1.5) support pass plus
    the full peel)."""
    graph = dblp_sized(1200)
    _assert_speedup(benchmark, graph, _churn_edges(graph, 20),
                    TrussMaintainer, TrussMaintainer.add_edge,
                    truss_decomposition, "truss_maintenance.txt",
                    "dynamic truss maintenance (40 edge updates, 1.2k "
                    "DBLP)")
