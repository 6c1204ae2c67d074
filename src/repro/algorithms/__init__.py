"""Competitor CR algorithms and the plug-in registry.

C-Explorer ships the ACQ engine plus three other community-retrieval
methods (Section 2/3): the community-*search* baselines ``Global``
(Sozio & Gionis) and ``Local`` (Cui et al.), and the community-
*detection* baseline ``CODICIL`` (Ruan et al.).  This subpackage
implements them, plus the alternatives the paper cites -- k-truss
and attributed k-truss search, Steiner connectivity search,
Newman-Girvan and label-propagation detection -- and the registry
behind the "plug in your own CR solution" API (Section 3.1).
"""

from repro.algorithms.attributed_truss import attributed_truss_search
from repro.algorithms.codicil import codicil, codicil_community
from repro.algorithms.global_search import global_search
from repro.algorithms.label_propagation import label_propagation
from repro.algorithms.local_search import local_search
from repro.algorithms.newman_girvan import edge_betweenness, newman_girvan
from repro.algorithms.registry import (
    cd_algorithm,
    cs_algorithm,
    get_cd_algorithm,
    get_cs_algorithm,
    list_cd_algorithms,
    list_cs_algorithms,
    register_cd_algorithm,
    register_cs_algorithm,
)
from repro.algorithms.steiner import (
    steiner_community_search,
    steiner_max_core,
)
from repro.algorithms.truss_search import truss_community_search

__all__ = [
    "attributed_truss_search",
    "cd_algorithm",
    "codicil",
    "codicil_community",
    "cs_algorithm",
    "edge_betweenness",
    "get_cd_algorithm",
    "get_cs_algorithm",
    "global_search",
    "label_propagation",
    "list_cd_algorithms",
    "list_cs_algorithms",
    "local_search",
    "newman_girvan",
    "register_cd_algorithm",
    "register_cs_algorithm",
    "steiner_community_search",
    "steiner_max_core",
    "truss_community_search",
]
