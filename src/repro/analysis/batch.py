"""Batch evaluation: many queries, aggregated -- the ACQ paper's
protocol.

A single walkthrough query (Figure 6) demonstrates the system; an
*evaluation* runs every method over a pool of random query vertices
and reports aggregate effectiveness (CPJ/CMF) and efficiency (query
time).  This module is that harness; the paper's "our system enables a
more extensive experimental evaluation of CR solutions" is exactly
this loop exposed as a library call.
"""

import time

from repro.algorithms.registry import get_cs_algorithm
from repro.analysis.metrics import cmf, cpj
from repro.core.kcore import core_decomposition
from repro.util.errors import CExplorerError
from repro.util.rng import make_rng


def pick_query_vertices(graph, k, count, seed=0, core=None):
    """Sample ``count`` query vertices whose core number is >= k.

    Restricting to feasible vertices keeps the comparison fair: every
    method has *some* answer for every query, so aggregate differences
    measure quality rather than failure rates.
    """
    if core is None:
        core = core_decomposition(graph)
    eligible = [v for v in graph.vertices() if core[v] >= k]
    if not eligible:
        return []
    rng = make_rng(seed)
    if count >= len(eligible):
        return list(eligible)
    return rng.sample(eligible, count)


def _timed_query(algo, graph, q, k, keywords, params):
    """Run one query; returns ``(elapsed_seconds, communities)``.

    Failures count as unanswered, matching the aggregate protocol.
    """
    start = time.perf_counter()
    try:
        communities = algo(graph, q, k, keywords=keywords, **params)
    except Exception:
        communities = []
    return time.perf_counter() - start, communities


def _explorer_algo(explorer, method):
    """Adapt ``explorer.search`` to the raw CS-algorithm signature so
    the timing/aggregation loop treats both paths identically."""
    def run(graph, q, k, keywords=None, **params):
        return explorer.search(method, q, k=k, keywords=keywords,
                               **params)
    return run


def batch_evaluate(graph, methods, k=4, queries=None, n_queries=20,
                   seed=0, method_params=None, keywords=None,
                   engine=None, explorer=None):
    """Run each method over the query pool and aggregate.

    Returns ``{method: row}`` where each row carries::

        queries, answered, avg_vertices, avg_edges, avg_degree,
        avg_cpj, avg_cmf, avg_seconds, total_seconds

    ``method_params`` maps method name -> extra kwargs (e.g. a shared
    CL-tree for the ACQ variants).

    ``engine`` (a :class:`~repro.engine.executor.QueryEngine`, or
    anything with its ``run_batch``) fans the per-query work out over
    the engine's worker pool: the whole evaluation gets the pool's
    parallelism for free.  ``avg_seconds``/``total_seconds`` stay
    per-query execution time, so the numbers are comparable between
    serial and parallel runs; ``wall_seconds`` reports the elapsed
    wall-clock for the method's whole pool.

    ``explorer`` routes every query through a
    :class:`~repro.explorer.cexplorer.CExplorer` facade instead of the
    raw algorithm callable, so planned execution, the engine result
    cache, and whole-query worker execution all apply -- the way
    production traffic would run.  The explorer's
    active graph must be ``graph``; repeated queries then measure the
    warm path by design.
    """
    if explorer is not None and explorer.graph is not graph:
        raise CExplorerError(
            "explorer's active graph is not the evaluated graph; "
            "select_graph() it first (query vertex ids would silently "
            "resolve against the wrong graph)")
    if queries is None:
        queries = pick_query_vertices(graph, k, n_queries, seed=seed)
    method_params = method_params or {}
    results = {}
    for name in methods:
        if explorer is not None:
            algo = _explorer_algo(explorer, name)
        else:
            algo = get_cs_algorithm(name)
        params = dict(method_params.get(name, {}))
        wall_start = time.perf_counter()
        if engine is not None:
            calls = [(_timed_query, (algo, graph, q, k, keywords,
                                     params), {}) for q in queries]
            outcomes = engine.run_batch(calls, op="batch")
            # run_batch maps a raised exception to the exception
            # object; _timed_query already swallows algorithm errors,
            # so anything left is an engine-level failure -> unanswered.
            outcomes = [o if isinstance(o, tuple) else (0.0, [])
                        for o in outcomes]
        else:
            outcomes = [_timed_query(algo, graph, q, k, keywords,
                                     params) for q in queries]
        wall = time.perf_counter() - wall_start
        answered = 0
        sizes = []
        edges = []
        degrees = []
        cpjs = []
        cmfs = []
        total = 0.0
        for q, (elapsed, communities) in zip(queries, outcomes):
            total += elapsed
            if not communities:
                continue
            answered += 1
            community = communities[0]
            sizes.append(len(community))
            edges.append(community.edge_count)
            degrees.append(community.average_degree)
            cpjs.append(cpj(community))
            cmfs.append(cmf(community, query_vertex=q))

        def avg(xs):
            return round(sum(xs) / len(xs), 4) if xs else 0.0

        results[name] = {
            "queries": len(queries),
            "answered": answered,
            "avg_vertices": avg(sizes),
            "avg_edges": avg(edges),
            "avg_degree": avg(degrees),
            "avg_cpj": avg(cpjs),
            "avg_cmf": avg(cmfs),
            "avg_seconds": round(total / len(queries), 6) if queries
            else 0.0,
            "total_seconds": round(total, 4),
            "wall_seconds": round(wall, 4),
        }
    return results


def format_batch_table(results):
    """Render :func:`batch_evaluate` output as an aligned text table."""
    columns = ["method", "answered", "avg_vertices", "avg_degree",
               "avg_cpj", "avg_cmf", "avg_seconds"]
    rows = []
    for method, data in results.items():
        row = {"method": method}
        row.update({c: data[c] for c in columns[1:]})
        rows.append(row)
    headers = columns
    str_rows = [[str(r[c]) for c in columns] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in str_rows))
              if str_rows else len(h) for i, h in enumerate(headers)]

    def fmt(cells):
        return "  ".join(c.ljust(widths[i])
                         for i, c in enumerate(cells)).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in str_rows)
    return "\n".join(lines)
