"""Low-level utilities shared by every subsystem.

This subpackage deliberately has no dependency on the rest of
:mod:`repro`; it provides the data structures the paper's index and
query algorithms are built from (union-find forests, updatable heaps)
plus small helpers for deterministic randomness and error reporting.
"""

from repro.util.errors import (
    CExplorerError,
    GraphFormatError,
    QueryError,
    UnknownAlgorithmError,
    UnknownVertexError,
)
from repro.util.heaps import UpdatableMinHeap
from repro.util.rng import make_rng
from repro.util.unionfind import UnionFind

__all__ = [
    "CExplorerError",
    "GraphFormatError",
    "QueryError",
    "UnionFind",
    "UnknownAlgorithmError",
    "UnknownVertexError",
    "UpdatableMinHeap",
    "make_rng",
]
