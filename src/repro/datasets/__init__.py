"""Datasets: the paper's running example and the DBLP substitute.

* :func:`figure5_graph` -- the exact 10-vertex / 11-edge attributed
  graph of Figure 5(a), used throughout tests as ground truth.
* :func:`generate_dblp_graph` -- a synthetic DBLP-like co-authorship
  network with planted research communities and topic keywords.  The
  paper demos on a real DBLP snapshot (977,288 vertices, 3,432,273
  edges, 20 title keywords per author); we cannot ship that crawl, so
  this generator reproduces the properties the algorithms depend on:
  heavy-tailed degrees, nested k-cores, and keyword/topic locality.
"""

from repro.datasets.dblp import DblpConfig, generate_dblp_graph
from repro.datasets.figure5 import figure5_graph

__all__ = [
    "DblpConfig",
    "figure5_graph",
    "generate_dblp_graph",
]
