"""Attributed-graph substrate.

The paper's server owns its own graph database (Figure 3); this
subpackage is our equivalent.  :class:`AttributedGraph` is the
*mutable* in-memory representation every algorithm in the library runs
on: undirected simple graphs whose vertices carry a label (e.g. an
author name) and a set of keywords (Section 3.2 of the paper,
``W(v)``).  :class:`FrozenGraph` (:func:`freeze`) is its immutable
CSR counterpart: a flat-array snapshot the structural kernels walk
without set lookups and the process execution backend ships across
process boundaries as one compact pickle.  :mod:`repro.graph.io`
reads both on-disk formats (edge list and JSON) and writes JSON, and
:func:`validate_graph` checks an upload before it is indexed.
"""

from repro.graph.attributed import AttributedGraph
from repro.graph.frozen import FrozenGraph, freeze
from repro.graph.io import (
    load_graph,
    read_edge_list,
    read_graph_json,
    write_graph_json,
)
from repro.graph.validation import validate_graph

__all__ = [
    "AttributedGraph",
    "FrozenGraph",
    "freeze",
    "load_graph",
    "read_edge_list",
    "read_graph_json",
    "validate_graph",
    "write_graph_json",
]
