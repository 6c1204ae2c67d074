"""Query planning: pick the CS execution strategy from graph/index
state.

The ACQ paper ships several algorithms for the same query (Dec over
the CL-tree, incremental variants, index-free local expansion), and
the right one depends on state the *user* should not have to know:
whether the CL-tree for this graph is built yet, how big the graph is,
whether the query constrains keywords at all.  This module is the
small planner that makes that call, so the server can accept
``"algorithm": "auto"``; on a large graph whose CL-tree is not built
yet, ``auto`` runs index-free instead of paying the build.

A plan is data, not behaviour: the engine executes it, and a search's
trace carries its ``reason``.
"""

# Below this size every strategy is interactive; prefer the exact one.
SMALL_GRAPH_VERTICES = 2_000

ACQ_FAMILY = ("acq", "acq-inc-s", "acq-inc-t")

# The triangle-cohesive family: their structural phase is the global
# k-truss edge set rather than a connected k-core component.
TRUSS_FAMILY = ("k-truss", "atc")

# Algorithms the whole-query worker pipeline can run end-to-end
# against a cached frozen snapshot (repro.engine.backends.
# full_query_job): every built-in CS method -- the graph read
# protocol guarantees each accepts a FrozenGraph with byte-identical
# results.  Plug-ins registered after import are dispatched through
# the same generic protocol call, but the planner only volunteers the
# worker path for names it knows satisfy it.
FULL_QUERY_ALGORITHMS = frozenset(ACQ_FAMILY) | frozenset(TRUSS_FAMILY) \
    | {"global", "local", "codicil", "steiner"}


class QueryPlan:
    """One planned execution: algorithm + index + substrate decision.

    ``worker_full_query=True`` means the entire query should run
    inside a worker against the graph's cached frozen payload
    (:meth:`~repro.engine.executor.QueryEngine.search_full_query`).
    """

    __slots__ = ("algorithm", "use_index", "reason",
                 "worker_full_query")

    def __init__(self, algorithm, use_index, reason,
                 worker_full_query=False):
        self.algorithm = algorithm
        self.use_index = use_index
        self.reason = reason
        self.worker_full_query = worker_full_query

    def __repr__(self):
        return ("QueryPlan({!r}, use_index={}, "
                "worker_full_query={}, reason={!r})"
                .format(self.algorithm, self.use_index,
                        self.worker_full_query, self.reason))


def plan_search(algorithm, graph, index_ready=False, keywords=None,
                full_payload=False):
    """Choose the concrete algorithm and whether to use the CL-tree.

    ``algorithm`` may be a registered CS name (passed through, with
    the index decision made here for the ACQ family) or ``"auto"``.
    ``full_payload`` says a frozen whole-graph payload exists (or the
    engine's backend makes building one worthwhile); the plan then
    marks protocol-capable algorithms for whole-query worker
    execution.

    Auto rules, in order:

    * keyword-constrained queries always run ACQ -- only the attributed
      algorithms honour ``S``;
    * small graphs (< ``SMALL_GRAPH_VERTICES``) run ACQ too: the index
      build is cheap enough to do on the query path;
    * large graphs with a ready index run ACQ over the CL-tree;
    * large graphs without one fall back to index-free local search
      (an explicit ACQ query, or
      :meth:`~repro.explorer.cexplorer.CExplorer.index`, builds it).

    Explicit ACQ-family requests always use the managed index (one
    amortised build); with ``index=None`` the implementations would
    build a throwaway CL-tree per query.
    """
    plan = _choose(algorithm.lower(), graph, index_ready, keywords)
    if full_payload and plan.algorithm in FULL_QUERY_ALGORITHMS:
        plan.worker_full_query = True
        plan.reason += "; whole query runs on the frozen payload"
    return plan


def _choose(algorithm, graph, index_ready, keywords):
    """The strategy pick (``algorithm`` already
    lower-cased -- the registry is case-insensitive)."""
    n = graph.vertex_count
    if algorithm == "auto":
        if keywords:
            return QueryPlan(
                "acq", True,
                "keyword-constrained query needs the attributed engine")
        if index_ready:
            return QueryPlan(
                "acq", True, "CL-tree ready; exact attributed search")
        if n < SMALL_GRAPH_VERTICES:
            return QueryPlan(
                "acq", True,
                "small graph ({} vertices): index build is cheap"
                .format(n))
        return QueryPlan(
            "local", False,
            "large unindexed graph ({} vertices): local expansion "
            "avoids a blocking index build".format(n))
    if algorithm in ACQ_FAMILY:
        # Always route the family through the managed index: with
        # index=None the ACQ implementations build a throwaway CL-tree
        # *per query*, so one amortised managed build is strictly
        # better even when it blocks the first query.
        return QueryPlan(algorithm, True,
                         "index ready" if index_ready
                         else "one managed index build, amortised "
                              "across queries")
    return QueryPlan(algorithm, False,
                     "algorithm does not consult the CL-tree")
