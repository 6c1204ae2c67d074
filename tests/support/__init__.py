"""Fixtures the tier-1 tests share beyond ``conftest``: reference
data and measures the shipped package does not need.

* :mod:`support.karate` -- Zachary's karate club with faction keywords
  and its ground-truth split;
* :mod:`support.lfr` -- the planted-partition (LFR-style) generator;
* :mod:`support.ground_truth` -- F1/NMI/ARI of a partition or
  community against planted ground truth;
* :mod:`support.edge_list` -- the writer for the attributed edge-list
  format that ``repro.graph.io.read_edge_list`` parses.
"""
