#!/usr/bin/env python
"""Quickstart: load a graph, search a community, inspect and draw it.

Run:  python examples/quickstart.py
"""

from repro import CExplorer
from repro.datasets import generate_dblp_graph


def main():
    # 1. Stand up the system with the bundled DBLP-like network
    #    (the paper demos on a real DBLP snapshot; repro.datasets.dblp
    #    generates a synthetic stand-in).
    explorer = CExplorer()
    explorer.add_graph("dblp", generate_dblp_graph())
    graph = explorer.graph
    print("Loaded graph: {} authors, {} co-authorship edges".format(
        graph.vertex_count, graph.edge_count))

    # 2. Ask for Jim Gray's attributed community with min degree 4,
    #    exactly like the Figure 1 walkthrough.
    communities = explorer.search("acq", "jim gray", k=4)
    community = communities[0]
    print("\nCommunities found: {}".format(len(communities)))
    print("Theme: {}".format(", ".join(community.theme(limit=8))))
    print("Members ({}):".format(len(community)))
    for name in community.member_names():
        print("  -", name)

    # 3. Quality metrics for the community (the Analysis panel).
    metrics = explorer.analyze(community)
    print("\nAnalysis: {} vertices, {} edges, avg degree {}, "
          "CPJ {}, CMF {}".format(
              metrics["vertices"], metrics["edges"],
              metrics["average_degree"], metrics["cpj"], metrics["cmf"]))

    # 4. Draw it (ASCII here; `fmt="svg"` gives the browser rendering).
    print("\n" + explorer.display(community, fmt="ascii"))


if __name__ == "__main__":
    main()
