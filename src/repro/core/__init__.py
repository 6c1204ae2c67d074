"""The paper's primary contribution: CL-tree index + ACQ queries.

``repro.core`` holds the engine of C-Explorer (Section 3.2):

* :mod:`repro.core.kcore` -- k-core decomposition and peeling, the
  structure-cohesiveness substrate every CS algorithm shares;
* :mod:`repro.core.ktruss` -- k-truss decomposition (the alternative
  cohesiveness measure of Huang et al. referenced in Section 2);
* :mod:`repro.core.cltree` -- the CL-tree index (Figure 5(b));
* :mod:`repro.core.acq` -- the ACQ query algorithms ``Inc-S``,
  ``Inc-T`` and ``Dec``, plus the multi-vertex variant;
* :mod:`repro.core.community` -- the :class:`Community` result type.
"""

from repro.core.acq import (
    AcqQuery,
    acq_search,
    brute_force_acq,
)
from repro.core.cltree import CLTree, CLTreeNode, build_cltree
from repro.core.community import Community
from repro.core.kcore import (
    connected_k_core,
    core_decomposition,
    k_core,
    peel_to_min_degree,
)
from repro.core.ktruss import (
    k_truss,
    truss_decomposition,
)
from repro.core.maintenance import CoreMaintainer
from repro.core.persistence import load_cltree, save_cltree

__all__ = [
    "CoreMaintainer",
    "load_cltree",
    "save_cltree",
    "AcqQuery",
    "CLTree",
    "CLTreeNode",
    "Community",
    "acq_search",
    "brute_force_acq",
    "build_cltree",
    "connected_k_core",
    "core_decomposition",
    "k_core",
    "k_truss",
    "peel_to_min_degree",
    "truss_decomposition",
]
