"""The plug-in API: registering and resolving CR algorithms.

Section 3.1 of the paper: *"We provide a list of Java API functions,
so the public users can easily plug in their own algorithms"*.  This
module is the Python equivalent.  Two kinds of algorithms exist,
matching the ``search``/``detect`` split of the ``CExplorer``
interface (Figure 4):

* **CS (community search)** -- query-based: called as
  ``func(graph, q, k, keywords=None, **params)`` and returns a list of
  :class:`~repro.core.community.Community` for the query vertex;
* **CD (community detection)** -- whole-graph: called as
  ``func(graph, **params)`` and returns a partition as a list of
  communities.

All built-in methods (ACQ variants, Global, Local, k-truss, CODICIL,
Newman-Girvan, label propagation) are pre-registered, so
``get_cs_algorithm("acq")`` works out of the box and
``list_cs_algorithms()`` is what the C-Explorer UI would render as the
algorithm drop-down.
"""

from repro.algorithms.attributed_truss import attributed_truss_search
from repro.algorithms.codicil import codicil, codicil_community
from repro.algorithms.global_search import global_search
from repro.algorithms.label_propagation import label_propagation
from repro.algorithms.local_search import local_search
from repro.algorithms.newman_girvan import newman_girvan
from repro.algorithms.steiner import steiner_community_search
from repro.algorithms.truss_search import truss_community_search
from repro.core.acq import acq_search
from repro.util.errors import UnknownAlgorithmError

_CS = {}
_CD = {}


class AlgorithmInfo:
    """Registry record: the callable plus UI metadata."""

    __slots__ = ("name", "kind", "func", "description")

    def __init__(self, name, kind, func, description):
        self.name = name
        self.kind = kind
        self.func = func
        self.description = description

    def __call__(self, *args, **kwargs):
        return self.func(*args, **kwargs)

    def __repr__(self):
        return "AlgorithmInfo({!r}, kind={!r})".format(self.name, self.kind)


def register_cs_algorithm(name, func, description="", overwrite=False):
    """Register a community-search algorithm under ``name``.

    ``func(graph, q, k, keywords=None, **params) -> list[Community]``.
    Registering an existing name raises ``ValueError`` unless
    ``overwrite=True`` (so a plug-in cannot silently shadow ACQ).
    """
    key = name.lower()
    if key in _CS and not overwrite:
        raise ValueError("CS algorithm {!r} already registered".format(name))
    _CS[key] = AlgorithmInfo(key, "cs", func, description)
    return _CS[key]


def register_cd_algorithm(name, func, description="", overwrite=False):
    """Register a community-detection algorithm under ``name``.

    ``func(graph, **params) -> list[Community]``.
    """
    key = name.lower()
    if key in _CD and not overwrite:
        raise ValueError("CD algorithm {!r} already registered".format(name))
    _CD[key] = AlgorithmInfo(key, "cd", func, description)
    return _CD[key]


def cs_algorithm(name, description=""):
    """Decorator form of :func:`register_cs_algorithm`."""
    def wrap(func):
        register_cs_algorithm(name, func, description)
        return func
    return wrap


def cd_algorithm(name, description=""):
    """Decorator form of :func:`register_cd_algorithm`."""
    def wrap(func):
        register_cd_algorithm(name, func, description)
        return func
    return wrap


def get_cs_algorithm(name):
    """Resolve a CS algorithm; raises :class:`UnknownAlgorithmError`."""
    try:
        return _CS[name.lower()]
    except KeyError:
        raise UnknownAlgorithmError(name, _CS) from None


def get_cd_algorithm(name):
    """Resolve a CD algorithm; raises :class:`UnknownAlgorithmError`."""
    try:
        return _CD[name.lower()]
    except KeyError:
        raise UnknownAlgorithmError(name, _CD) from None


def list_cs_algorithms():
    """Sorted names of registered CS algorithms."""
    return sorted(_CS)


def list_cd_algorithms():
    """Sorted names of registered CD algorithms."""
    return sorted(_CD)


# ----------------------------------------------------------------------
# built-in registrations
# ----------------------------------------------------------------------

def _acq_adapter(variant):
    def run(graph, q, k, keywords=None, index=None, **params):
        return acq_search(graph, q, k, keywords=keywords,
                          algorithm=variant, index=index, **params)
    return run


def _global_adapter(graph, q, k, keywords=None, **params):
    return global_search(graph, q, k, **params)


def _local_adapter(graph, q, k, keywords=None, **params):
    return local_search(graph, q, k, **params)


def _truss_adapter(graph, q, k, keywords=None, **params):
    return truss_community_search(graph, q, k, **params)


def _codicil_cs_adapter(graph, q, k=None, keywords=None, **params):
    return codicil_community(graph, q, **params)


def _steiner_adapter(graph, q, k=None, keywords=None, **params):
    qs = q if isinstance(q, (list, tuple, set)) else (q,)
    return steiner_community_search(graph, qs, k=k, **params)


def _newman_girvan_adapter(graph, max_removals=None, target_clusters=None):
    communities, _ = newman_girvan(graph, max_removals=max_removals,
                                   target_clusters=target_clusters)
    return communities


register_cs_algorithm(
    "acq", _acq_adapter("dec"),
    "Attributed community query, Dec algorithm (the C-Explorer engine)")
register_cs_algorithm(
    "acq-inc-s", _acq_adapter("inc-s"),
    "ACQ, incremental enumeration without index support")
register_cs_algorithm(
    "acq-inc-t", _acq_adapter("inc-t"),
    "ACQ, incremental enumeration over the CL-tree")
register_cs_algorithm(
    "global", _global_adapter,
    "Sozio-Gionis Global: maximal connected subgraph with min degree >= k")
register_cs_algorithm(
    "local", _local_adapter,
    "Cui et al. Local: expansion-based community search")
register_cs_algorithm(
    "k-truss", _truss_adapter,
    "Huang et al. triangle-connected k-truss community search")
register_cs_algorithm(
    "codicil", _codicil_cs_adapter,
    "CODICIL cluster containing the query vertex (no degree parameter)")
register_cs_algorithm(
    "steiner", _steiner_adapter,
    "Hu et al. minimal Steiner maximum-core community (k=None maximises)")
register_cs_algorithm(
    "atc", attributed_truss_search,
    "attributed community under k-truss cohesiveness (extension)")

register_cd_algorithm(
    "codicil", codicil,
    "Ruan et al. CODICIL: content+link sparsification, then clustering")
register_cd_algorithm(
    "newman-girvan", _newman_girvan_adapter,
    "Divisive edge-betweenness detection with modularity selection")
register_cd_algorithm(
    "label-propagation", label_propagation,
    "Asynchronous label propagation over the raw topology")
