#!/usr/bin/env python
"""Reproduce every paper artefact in one run (fast mode).

Walks the experiment index in the README's "Benchmarks" section
(E1-E12) end to end on the default synthetic DBLP workload and prints
a compact paper-vs-measured report -- a lighter-weight companion to
the paper-fidelity benches (`pytest benchmarks/ --ignore=benchmarks/e2e`),
useful for a quick smoke of the whole reproduction.

Run:  python examples/reproduce_paper.py
"""

import time

from repro.algorithms.codicil import codicil
from repro.analysis.comparison import compare_methods
from repro.analysis.statistics import format_table
from repro.core.acq import AcqQuery, acq_search, brute_force_acq
from repro.core.cltree import build_cltree
from repro.datasets import figure5_graph, generate_dblp_graph
from repro.explorer.cexplorer import CExplorer


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def main():
    print("=" * 68)
    print("C-Explorer reproduction: all paper artefacts, fast mode")
    print("=" * 68)

    # ------------------------------------------------------------ E3
    print("\n[E3] Figure 5: the example graph and its CL-tree")
    fig5 = figure5_graph()
    tree5 = build_cltree(fig5)
    print(tree5.describe())
    result = acq_search(fig5, fig5.id_of("A"), 2, keywords={"w", "x",
                                                            "y"})
    print("Worked ACQ example: {} sharing {}".format(
        result[0].member_names(), sorted(result[0].shared_keywords)))
    assert {fig5.label(v) for v in result[0]} == {"A", "C", "D"}

    # ----------------------------------------------------------- prep
    graph = generate_dblp_graph()
    explorer = CExplorer()
    explorer.add_graph("dblp", graph)
    index, build_secs = timed(build_cltree, graph)
    print("\nWorkload: {} authors / {} edges; CL-tree built in "
          "{:.3f}s (E8: linear-time index)".format(
              graph.vertex_count, graph.edge_count, build_secs))
    jim = graph.id_of("Jim Gray")

    # ------------------------------------------------------------ E1
    print("\n[E1] Figure 1: exploration (q=jim gray, degree>=4)")
    communities, secs = timed(acq_search, graph, jim, 4, index=index)
    community = communities[0]
    print("  {} communities in {:.4f}s; theme: {}".format(
        len(communities), secs, ", ".join(community.theme(limit=6))))

    # ------------------------------------------------------------ E2
    print("\n[E2] Figure 2: member profile")
    profile = explorer.profile("Michael Stonebraker")
    print("  " + profile.render_text().replace("\n", "\n  "))

    # ------------------------------------------------------------ E4/E5
    print("\n[E4/E5] Figure 6(a): statistics table + quality bars")
    report = compare_methods(
        graph, jim, 4, methods=("global", "local", "codicil", "acq"),
        method_params={"acq": {"index": index}})
    print(format_table(report.table_rows()))
    for method, bars in report.quality_bars().items():
        print("  {:<8} CPJ={:<7} CMF={:<7}".format(method, bars["cpj"],
                                                   bars["cmf"]))

    # ------------------------------------------------------------ E6
    print("\n[E6] Figure 6(b): visual comparison -> SVG strings")
    for method in ("acq", "local"):
        if report.results[method]:
            svg = explorer.display(report.results[method][0], fmt="svg")
            print("  {}: {} bytes of SVG".format(method, len(svg)))

    # ------------------------------------------------------------ E7
    print("\n[E7] Dec vs Inc-S vs Inc-T (why the system ships Dec)")
    for algorithm in ("dec", "inc-t", "inc-s"):
        _, secs = timed(acq_search, graph, jim, 4, algorithm=algorithm,
                        index=index)
        print("  {:<6} {:.4f}s".format(algorithm, secs))

    # ------------------------------------------------------------ E9
    print("\n[E9] online CS vs offline CD")
    _, cs_secs = timed(acq_search, graph, jim, 4, index=index)
    _, cd_secs = timed(codicil, graph)
    print("  ACQ {:.4f}s vs CODICIL {:.2f}s -> {:.0f}x".format(
        cs_secs, cd_secs, cd_secs / cs_secs))

    # ------------------------------------------------------------ E10
    print("\n[E10] the exponential strawman (|S| = 10)")
    keywords = sorted(graph.keywords(jim))[:10]
    _, brute_secs = timed(brute_force_acq,
                          AcqQuery(graph, jim, 4, keywords=keywords))
    _, dec_secs = timed(acq_search, graph, jim, 4, keywords=keywords,
                        algorithm="dec", index=index)
    print("  brute force {:.4f}s vs Dec {:.4f}s -> {:.0f}x".format(
        brute_secs, dec_secs, brute_secs / dec_secs))

    # ------------------------------------------------------------ E12
    print("\n[E12] multi-vertex variant")
    partner = next(v for v in sorted(community.vertices) if v != jim)
    multi, secs = timed(acq_search, graph, [jim, partner], 4,
                        index=index)
    print("  |Q|=2 -> {} communities in {:.4f}s".format(
        len(multi), secs))

    print("\nAll artefacts reproduced. Full harness: "
          "pytest benchmarks/ --benchmark-only")


if __name__ == "__main__":
    main()
