"""C-Explorer: browsing communities in large graphs -- reproduction.

A from-scratch Python implementation of the system described in
"C-Explorer: Browsing Communities in Large Graphs" (Fang, Cheng, Luo,
Hu, Huang; PVLDB 10(12), 2017) and of the ACQ engine it is built on
(Fang et al., PVLDB 9(12), 2016).

Quickstart::

    from repro import CExplorer
    from repro.datasets import generate_dblp_graph

    explorer = CExplorer()
    explorer.add_graph("dblp", generate_dblp_graph())
    for community in explorer.search("acq", "Jim Gray", k=4):
        print(community.theme(), community.member_names()[:5])

Layering (see docs/ARCHITECTURE.md):

* :mod:`repro.graph` -- the attributed-graph substrate;
* :mod:`repro.core` -- k-core/k-truss decompositions, the CL-tree
  index, and the ACQ query algorithms (the paper's engine);
* :mod:`repro.algorithms` -- Global, Local, CODICIL, k-truss search,
  Newman-Girvan, label propagation and the plug-in registry;
* :mod:`repro.analysis` -- CPJ/CMF metrics and comparison analysis;
* :mod:`repro.viz` -- layouts and SVG/ASCII rendering;
* :mod:`repro.datasets` -- the Figure 5 example and the synthetic
  DBLP generator;
* :mod:`repro.engine` -- the query execution engine: bounded worker
  pool, result cache with selective invalidation, versioned index
  lifecycle, query planning, and latency metrics;
* :mod:`repro.explorer` / :mod:`repro.server` -- the CExplorer facade
  and the browser-server system around it.
"""

from repro.analysis import cmf, compare_methods, cpj
from repro.core import (
    AcqQuery,
    CLTree,
    Community,
    acq_search,
    build_cltree,
    connected_k_core,
    core_decomposition,
    k_core,
    k_truss,
    truss_decomposition,
)
from repro.engine import IndexManager, QueryEngine
from repro.explorer import CExplorer
from repro.graph import AttributedGraph, FrozenGraph, freeze, load_graph
from repro.server import make_server

__version__ = "1.0.0"

__all__ = [
    "AcqQuery",
    "AttributedGraph",
    "CExplorer",
    "CLTree",
    "Community",
    "FrozenGraph",
    "IndexManager",
    "QueryEngine",
    "acq_search",
    "build_cltree",
    "cmf",
    "compare_methods",
    "connected_k_core",
    "core_decomposition",
    "cpj",
    "freeze",
    "k_core",
    "k_truss",
    "load_graph",
    "make_server",
    "truss_decomposition",
    "__version__",
]
