"""E8 -- Section 3.2's claim: "the CL-tree can be built in linear space
and time cost".

Sweeps the generator from 500 to 8,000 authors, timing the advanced
builder and measuring index size.  Shape assertions: build time per
(n + m) stays within a constant factor across an order of magnitude of
scale (linearity), and index entries stay O(n + total keywords).
The basic builder is benched as the ablation.
"""

import time

import pytest

from repro.core.cltree import build_cltree, build_cltree_basic

from bench_common import best_of, dblp_sized, write_artifact

SIZES = [500, 1000, 2000, 4000, 8000]


@pytest.mark.parametrize("n", SIZES)
def test_cltree_build_scaling(benchmark, n):
    benchmark.group = "cltree-build"
    graph = dblp_sized(n)
    tree = benchmark.pedantic(build_cltree, args=(graph,), rounds=3,
                              iterations=1, warmup_rounds=1)
    sizes = tree.index_size()
    # Linear space: one vertex entry per vertex, postings bounded by
    # the total keyword count.
    assert sizes["vertex_entries"] == graph.vertex_count
    total_keywords = sum(len(graph.keywords(v)) for v in graph.vertices())
    assert sizes["postings"] == total_keywords


def test_cltree_linearity_shape(benchmark):
    """The sweep inside a single bench (best of three passes): assert
    that time/(n+m) at the largest scale is within 8x of the smallest
    (i.e. growth is near-linear, not quadratic), and write the table."""

    graphs = [dblp_sized(n) for n in SIZES]
    trees = {}

    def sweep():
        timings = []
        for n, graph in zip(SIZES, graphs):
            start = time.perf_counter()
            trees[n] = build_cltree(graph)
            timings.append(time.perf_counter() - start)
        return tuple(timings)

    seconds = benchmark.pedantic(best_of, args=(sweep,), rounds=1,
                                 iterations=1)
    rows = []
    for n, graph, elapsed in zip(SIZES, graphs, seconds):
        size = graph.vertex_count + graph.edge_count
        rows.append((n, graph.edge_count, elapsed, elapsed / size * 1e6,
                     trees[n].index_size()["postings"]))
    per_unit = [r[3] for r in rows]
    assert per_unit[-1] < 8 * per_unit[0], \
        "build time per (n+m) grew superlinearly: {}".format(per_unit)

    lines = ["Section 3.2 - CL-tree build scaling (advanced builder)",
             "",
             "{:>7} {:>8} {:>10} {:>14} {:>10}".format(
                 "n", "m", "seconds", "us per (n+m)", "postings")]
    for n, m, secs, unit, postings in rows:
        lines.append("{:>7} {:>8} {:>10.4f} {:>14.3f} {:>10}".format(
            n, m, secs, unit, postings))
    write_artifact("cltree_build_scaling.txt", "\n".join(lines))


def test_cltree_advanced_vs_basic(benchmark):
    """Ablation: the advanced builder should not lose to the basic one
    (and typically wins as core depth grows)."""
    graph = dblp_sized(2000)

    def both():
        start = time.perf_counter()
        build_cltree(graph)
        advanced = time.perf_counter() - start
        start = time.perf_counter()
        build_cltree_basic(graph)
        basic = time.perf_counter() - start
        return advanced, basic

    advanced, basic = benchmark.pedantic(best_of, args=(both,), rounds=1,
                                         iterations=1)
    # Allow noise, but advanced must not be drastically slower.
    assert advanced < 3 * basic
