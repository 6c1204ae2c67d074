"""Engine bench -- repeated/overlapping searches direct vs. through
the query engine, and the CSR kernel trajectory.

Interactive exploration traffic repeats itself (every display click
re-runs its search, hub authors get probed by many users), which is
exactly what the engine's result cache converts into dictionary hits.
This bench measures throughput over a repeated query pool: direct
algorithm calls (the seed behaviour), engine cold (cache filling as
the pool drains), engine warm (every query a cache hit), and the
same cold/warm pair with 4 workers (the server's concurrent
configuration).

The kernel bench times the structural hot paths both ways: the seed
adjacency-set ``core_decomposition`` against the CSR fast path over a
:class:`~repro.graph.frozen.FrozenGraph` snapshot, on the LFR
(planted-partition) and synthetic-DBLP workloads.  Shape assertion:
CSR wins by >= 2x (the PR-3 acceptance floor).

Shape assertions for the engine path: the warm engine answers the
repeated workload at least 10x faster than direct execution, and the
cold engine is never worse than ~2x direct.

Quick mode (``--quick`` or ``REPRO_BENCH_QUICK=1``, the CI smoke
job) shrinks the query pool and relaxes the speedup floor so the whole
bench finishes in seconds on a shared runner while still exercising
every path and emitting the timing artifacts.

Artifacts: ``benchmarks/out/engine.json`` (the per-run snapshot) and
``BENCH_engine.json`` at the repo root -- the stable-schema perf
*trajectory*, one entry per commit (kernel timings cold/warm), so
future perf PRs have a baseline to beat.
"""

import json
import os
import time

from repro.algorithms.registry import get_cd_algorithm, get_cs_algorithm
from repro.analysis.batch import pick_query_vertices
from repro.core.kcore import core_decomposition
from repro.datasets import generate_planted_partition
from repro.explorer.cexplorer import CExplorer
from repro.graph.attributed import AttributedGraph
from repro.graph.frozen import freeze
from repro.util.errors import CExplorerError

from bench_common import dblp_sized, update_bench_trajectory, \
    write_artifact

K = 4


def _pool_shape(quick):
    """(distinct vertices, repeats) -- capped in quick mode."""
    return (4, 2) if quick else (12, 4)


def _query_pool(graph, quick):
    """Distinct feasible vertices, each repeated, round robin
    (overlapping traffic, not back-to-back duplicates)."""
    distinct, repeats = _pool_shape(quick)
    return pick_query_vertices(graph, K, distinct, seed=23) * repeats


def _throughput(n_queries, seconds):
    return round(n_queries / seconds, 2) if seconds > 0 else float("inf")


def _time_kernel(fn, arg, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def test_csr_kernel_speedup(benchmark, dblp, quick):
    """The tentpole's kernel floor: CSR ``core_decomposition`` over a
    frozen snapshot beats the seed adjacency-set path >= 2x on the
    LFR and DBLP bench graphs."""
    # The LFR graph stays full-size even in quick mode: a kernel rep
    # costs single-digit milliseconds, and below ~1k vertices the
    # vectorised path's per-round overhead hides the win it exists to
    # measure.
    lfr, _ = generate_planted_partition(n=2000, communities=8,
                                        avg_degree=10, seed=11)
    workloads = {"dblp": dblp, "lfr": lfr}
    repeats = 3 if quick else 7

    def run():
        doc = {}
        for name, graph in workloads.items():
            frozen = freeze(graph)
            assert core_decomposition(frozen) == \
                core_decomposition(graph)
            set_s = _time_kernel(core_decomposition, graph, repeats)
            csr_s = _time_kernel(core_decomposition, frozen, repeats)
            doc[name] = {
                "n": graph.vertex_count,
                "m": graph.edge_count,
                "set_seconds": round(set_s, 6),
                "csr_seconds": round(csr_s, 6),
                "speedup": round(set_s / csr_s, 2) if csr_s else
                float("inf"),
            }
        return doc

    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    try:
        import numpy  # noqa: F401 - availability probe only
        vectorised = True
    except ImportError:
        vectorised = False
    for name, rec in doc.items():
        rec["vectorised"] = vectorised
        if vectorised:
            # The 2x acceptance floor belongs to the vectorised
            # kernel; the pure-Python CSR fallback only has to not
            # lose to the set path.
            assert rec["speedup"] >= 2.0, (name, rec)
        else:
            assert rec["speedup"] >= 0.9, (name, rec)
    update_bench_trajectory(
        "kernels", {"core_decomposition": doc}, quick=quick)
    write_artifact("kernels.json", json.dumps(doc, indent=2))


def _fringe_updates(graph, count):
    """A deterministic batch of insertable (u, v) edges among the
    lowest-degree vertices: the steady drip of profile edits far from
    the hot communities (the workload truss-aware invalidation is
    designed to survive)."""
    quiet = sorted(graph.vertices(),
                   key=lambda v: (graph.degree(v), v))[:80]
    edges = []
    for u in quiet:
        for v in quiet:
            if u < v and not graph.has_edge(u, v):
                edges.append((u, v))
                if len(edges) >= count:
                    return edges
    return edges


def test_truss_cache_retention(benchmark, dblp, quick):
    """The truss-maintenance acceptance shape: under a maintenance
    drip, the truss-aware selective invalidation keeps a strictly
    better warm-cache hit rate on k-truss traffic than the evict-all
    baseline -- and with both maintainers attached, no eviction ever
    falls back to evict-all."""
    distinct = 4 if quick else 10
    rounds = 2 if quick else 6
    pool = pick_query_vertices(dblp, K, distinct, seed=31)

    def run_variant(truss_aware):
        explorer = CExplorer(workers=1, max_queue=256)
        explorer.add_graph("dblp", dblp.copy())
        gateway = (explorer.truss_maintainer() if truss_aware
                   else explorer.maintainer())
        updates = _fringe_updates(explorer.indexes.graph("dblp"),
                                  rounds)
        for q in pool:                       # warm fill
            explorer.search("k-truss", q, k=K)
        baseline = explorer.cache.stats()
        start = time.perf_counter()
        for u, v in updates:
            gateway.insert_edge(u, v)
            for q in pool:
                explorer.search("k-truss", q, k=K)
        seconds = time.perf_counter() - start
        stats = explorer.cache.stats()
        requeries = len(pool) * len(updates)
        hits = stats["hits"] - baseline["hits"]
        explorer.engine.shutdown()
        return {
            "requeries": requeries,
            "hits": hits,
            "hit_rate": round(hits / requeries, 4) if requeries else 0.0,
            "seconds": round(seconds, 6),
            "invalidations_by_reason": stats["invalidations_by_reason"],
        }

    def run():
        return {"selective": run_variant(True),
                "evict_all": run_variant(False)}

    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    selective, evictall = doc["selective"], doc["evict_all"]
    # The acceptance floor: truss-aware invalidation strictly beats
    # blind eviction on the warm re-query workload.
    assert selective["hit_rate"] > evictall["hit_rate"], doc
    # With core + truss maintainers attached, every eviction is a
    # scoped cascade: the evict-all fallback counter stays at zero.
    assert selective["invalidations_by_reason"]["evict-all"] == 0, doc
    assert evictall["invalidations_by_reason"]["truss-cascade"] == 0
    write_artifact("truss_cache.json", json.dumps(doc, indent=2))
    update_bench_trajectory("truss_maintenance", {
        "queries": len(pool),
        "rounds": rounds,
        "k": K,
        "warm_hit_rate": {"selective": selective["hit_rate"],
                          "evict_all": evictall["hit_rate"]},
        "requery_seconds": {"selective": selective["seconds"],
                            "evict_all": evictall["seconds"]},
    }, quick=quick)


def _disjoint_copies(graph, copies):
    """``copies`` disjoint copies of ``graph`` in one AttributedGraph
    (the embarrassingly-parallel per-component detection workload)."""
    combined = AttributedGraph()
    for c in range(copies):
        offset = c * graph.vertex_count
        for v in graph.vertices():
            label = graph.label(v)
            combined.add_vertex(
                None if label is None else "c{}:{}".format(c, label),
                graph.keywords(v))
        for u, v in graph.edges():
            combined.add_edge(u + offset, v + offset)
    return combined


def test_detect_components(benchmark, quick):
    """The CD acceptance shape: per-component detection jobs over the
    frozen payload are byte-identical between inline and process
    execution, and -- on a genuinely parallel runner -- the process
    pool turns the per-component fan-out into wall-clock speedup."""
    copies = 2 if quick else 4
    graph = _disjoint_copies(dblp_sized(220, seed=7), copies)
    algorithm, params = "codicil", {"seed": 3}

    def run_variant(backend):
        explorer = CExplorer(workers=4, max_queue=64, backend=backend)
        explorer.add_graph("g", graph)
        try:
            start = time.perf_counter()
            result = explorer.detect(algorithm, per_component=True,
                                     **params)
            seconds = time.perf_counter() - start
            jobs = explorer.engine.snapshot()["detect_parallelism"]
            return seconds, result, jobs
        finally:
            explorer.engine.shutdown()

    def run():
        start = time.perf_counter()
        inline_result = get_cd_algorithm(algorithm)(graph, **params)
        inline_s = time.perf_counter() - start
        thread_s, thread_out, jobs = run_variant("thread")
        process_s, process_out, _ = run_variant("process")
        assert thread_out == process_out
        return {
            "algorithm": algorithm,
            "components": jobs["last_jobs"],
            "inline_whole_graph_seconds": round(inline_s, 6),
            "components_thread_seconds": round(thread_s, 6),
            "components_process_seconds": round(process_s, 6),
            "communities": len(thread_out),
        }

    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    assert doc["components"] == copies
    # Real parallelism must pay on a multi-core runner; a 1-2 core
    # host (or the tiny quick workload) can only record the numbers.
    if not quick and (os.cpu_count() or 1) >= 4:
        assert doc["components_process_seconds"] < \
            doc["components_thread_seconds"], doc
    write_artifact("detect_components.json", json.dumps(doc, indent=2))
    update_bench_trajectory("detect", {
        "algorithm": algorithm,
        "components": doc["components"],
        "seconds": {
            "inline_whole_graph": doc["inline_whole_graph_seconds"],
            "components_thread": doc["components_thread_seconds"],
            "components_process": doc["components_process_seconds"],
        },
    }, quick=quick)


def test_engine_vs_direct(benchmark, dblp, dblp_index, quick):
    pool = _query_pool(dblp, quick)
    algo = get_cs_algorithm("acq")

    def run():
        results = {}

        # Direct execution, prebuilt index: the seed server's inline
        # path, every repeat pays the full algorithm.
        start = time.perf_counter()
        for q in pool:
            algo(dblp, q, K, index=dblp_index)
        direct = time.perf_counter() - start
        results["direct"] = direct

        # Engine, 1 worker, cold cache: repeats hit as the pool drains.
        explorer = CExplorer(workers=1, max_queue=len(pool) + 1)
        explorer.add_graph("dblp", dblp, build="eager")
        start = time.perf_counter()
        for q in pool:
            explorer.engine.search_sync("acq", q, k=K, timeout=60)
        results["engine_cold_1w"] = time.perf_counter() - start

        # Same engine, warm cache: every query is a hit.
        start = time.perf_counter()
        for q in pool:
            explorer.engine.search_sync("acq", q, k=K, timeout=60)
        results["engine_warm_1w"] = time.perf_counter() - start
        results["cache"] = explorer.cache.stats()
        explorer.engine.shutdown()

        # 4 workers, futures submitted up front (the server's shape:
        # many handler threads waiting on one pool), then a warm pass.
        explorer4 = CExplorer(workers=4, max_queue=len(pool) + 1)
        explorer4.add_graph("dblp", dblp, build="eager")
        start = time.perf_counter()
        futures = [explorer4.engine.search("acq", q, k=K, timeout=60)
                   for q in pool]
        for future in futures:
            future.result(60)
        results["engine_cold_4w"] = time.perf_counter() - start
        start = time.perf_counter()
        futures = [explorer4.engine.search("acq", q, k=K, timeout=60)
                   for q in pool]
        for future in futures:
            future.result(60)
        results["engine_warm_4w"] = time.perf_counter() - start
        explorer4.engine.shutdown()

        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    direct = results["direct"]
    warm = results["engine_warm_1w"]
    seconds = {key: val for key, val in results.items()
               if key != "cache"}

    # The acceptance shape: a warm cache beats recomputation -- >= 10x
    # on the full pool, >= 2x even on the tiny quick-mode pool.
    min_speedup = 2.0 if quick else 10.0
    assert direct > min_speedup * warm, (direct, warm)
    # Engine bookkeeping on a cold cache stays within 2x of direct
    # (the repeats already win some of that back); quick mode's tiny
    # pool amortises less, so it gets more slack.
    assert results["engine_cold_1w"] < (3 if quick else 2) * direct, \
        results
    # The warm pool served everything from cache.
    assert results["cache"]["hits"] >= len(pool)

    n = len(pool)
    distinct, repeats = _pool_shape(quick)
    doc = {
        "queries": n,
        "distinct": distinct,
        "repeats": repeats,
        "k": K,
        "quick": quick,
        "seconds": {key: round(val, 6)
                    for key, val in seconds.items()},
        "throughput_qps": {key: _throughput(n, val)
                           for key, val in seconds.items()},
        "speedup_warm_vs_direct": round(direct / warm, 1),
        "cache": results["cache"],
    }
    write_artifact("engine.json", json.dumps(doc, indent=2))
    update_bench_trajectory("engine", {
        "queries": n,
        "k": K,
        "seconds": doc["seconds"],
        "speedup_warm_vs_direct": doc["speedup_warm_vs_direct"],
    }, quick=quick)


def test_concurrent_serving(benchmark, dblp, quick):
    """The serving acceptance shape: the asyncio front-end with
    cross-query batching answers a concurrent overlapping workload
    >= 1.5x faster than the thread-per-request baseline.

    The workload is the thundering herd the batcher exists for: in
    each round, every client POSTs the same ``/v1/search`` at the
    same instant (a barrier), so none of them can be saved by the
    result cache -- the baseline pays one full search per client,
    the batched server one per round.  Both variants run over real
    HTTP against a fresh explorer; responses must be identical.
    """
    import json as _json
    import threading
    import urllib.request

    from repro.server.app import make_server
    from repro.server.async_app import make_async_server

    clients = 4 if quick else 8
    rounds = 2 if quick else 4
    pool = pick_query_vertices(dblp, K, rounds, seed=41)

    def run_variant(kind):
        explorer = CExplorer(workers=2,
                             max_queue=clients * rounds + 8)
        explorer.add_graph("dblp", dblp, build="eager")
        if kind == "async_batched":
            server = make_async_server(explorer, port=0,
                                       batch_window=0.02)
            server.start_background()
        else:
            server = make_server(explorer, port=0)  # batching off
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
        base = "http://127.0.0.1:{}".format(server.server_address[1])
        barrier = threading.Barrier(clients + 1)
        answers = [[] for _ in range(clients)]

        def client(i):
            for q in pool:
                barrier.wait()
                req = urllib.request.Request(
                    base + "/v1/search",
                    data=_json.dumps({"vertex": q, "k": K}).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(req, timeout=120) as resp:
                    doc = _json.loads(resp.read())
                answers[i].append(_json.dumps(
                    doc["data"]["communities"], sort_keys=True))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for t in threads:
            t.start()
        start = time.perf_counter()
        for _ in pool:
            barrier.wait()                   # release one round
        for t in threads:
            t.join()
        seconds = time.perf_counter() - start
        stats = explorer.engine.stats
        shared = stats.get("shared_answers")
        batches = stats.get("batches")
        try:
            server.shutdown()
        finally:
            explorer.engine.shutdown()
        return seconds, answers, {"shared_answers": shared,
                                  "batches": batches}

    def run():
        baseline_s, baseline_out, _ = run_variant("thread_per_request")
        batched_s, batched_out, stats = run_variant("async_batched")
        assert baseline_out == batched_out
        return {
            "clients": clients,
            "rounds": rounds,
            "requests": clients * rounds,
            "thread_per_request_seconds": round(baseline_s, 6),
            "async_batched_seconds": round(batched_s, 6),
            "speedup": round(baseline_s / batched_s, 2) if batched_s
            else float("inf"),
            "batching": stats,
        }

    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    # The batcher really coalesced the herd: most answers were shared
    # from a leader's execution rather than recomputed.
    assert doc["batching"]["shared_answers"] >= \
        (clients - 1) * rounds // 2, doc
    # The acceptance floor: >= 1.5x serving throughput for >= 8
    # concurrent overlapping clients.  The quick herd (4 clients x 2
    # rounds) is too small to amortise its two 20 ms batch windows, so
    # it only guards against gross loss -- and its floor follows the
    # ACQ kernel, because the ratio's numerator is eight cold
    # searches: 0.38-0.48 at PR 14 (three fresh-process runs on one
    # pinned CPU) and 0.21-0.32 with PR 15's 3.4x faster kernel (nine
    # runs); a batched round costs 26-32 ms, an unbatched one 7 ms.
    assert doc["speedup"] >= (0.15 if quick else 1.5), doc
    write_artifact("serving.json", json.dumps(doc, indent=2))
    update_bench_trajectory("serving", {
        "clients": clients,
        "rounds": rounds,
        "seconds": {
            "thread_per_request": doc["thread_per_request_seconds"],
            "async_batched": doc["async_batched_seconds"],
        },
        "shared_answers": doc["batching"]["shared_answers"],
        # The no-regression gate's serving metric: the share of the
        # herd's followers answered from a leader's execution.  Unlike
        # ``speedup`` it does not move with the kernel's speed.
        "coalesced_share": round(doc["batching"]["shared_answers"]
                                 / ((clients - 1) * rounds), 3),
        "speedup": doc["speedup"],
    }, quick=quick)


def test_resilience_under_faults(benchmark, dblp, quick):
    """The fault-tolerance acceptance shape: under a seeded 5%
    worker-kill plan on whole-query worker jobs, the retry machinery
    absorbs every injected kill -- the success rate stays at 1.0,
    every answer is byte-identical to the fault-free run, and the
    tail (p99) latency pays only the retry backoff, not a query loss.

    Both passes drain the same cold pool through a process-backend
    engine; the faulted pass carries ``kill:full_query@0.05`` (every
    20th query job dies before executing and is retried with
    backoff).
    """
    from repro.engine.faults import FaultPlan

    distinct, repeats = _pool_shape(quick)
    pool = pick_query_vertices(dblp, K, distinct, seed=53) * repeats
    plan_spec = "seed=105;kill:full_query@0.05"

    def canon(communities):
        return json.dumps([c.to_dict() for c in communities],
                          sort_keys=True)

    def p99(latencies):
        ordered = sorted(latencies)
        return ordered[min(len(ordered) - 1,
                           int(0.99 * len(ordered)))]

    def run_variant(spec):
        faults = FaultPlan.from_spec(spec) if spec else None
        explorer = CExplorer(workers=4, max_queue=len(pool) + 8,
                             backend="process", faults=faults)
        explorer.add_graph("dblp", dblp)
        answers, latencies, failures = [], [], 0
        try:
            # Warm the structural caches so both variants time the
            # query path, not first-query index builds.
            explorer.search("acq", pool[0], k=K, use_cache=False)
            for q in pool:
                start = time.perf_counter()
                try:
                    result = explorer.search("acq", q, k=K,
                                             use_cache=False)
                except CExplorerError:
                    failures += 1
                    result = None
                latencies.append(time.perf_counter() - start)
                answers.append(None if result is None
                               else canon(result))
            counters = dict(explorer.engine.snapshot()
                            ["resilience"]["counters"])
        finally:
            explorer.engine.shutdown()
        return answers, latencies, failures, counters

    def run():
        clean, clean_lat, _, _ = run_variant(None)
        faulted, faulted_lat, failures, counters = \
            run_variant(plan_spec)
        identical = sum(1 for a, b in zip(clean, faulted) if a == b)
        n = len(pool)
        return {
            "queries": n,
            "fault_plan": plan_spec,
            "success_rate": round((n - failures) / n, 4),
            "identical_rate": round(identical / n, 4),
            "p99_seconds": {"clean": round(p99(clean_lat), 6),
                            "faulted": round(p99(faulted_lat), 6)},
            "counters": {key: counters[key] for key in
                         ("retries", "retry_exhausted",
                          "faults_injected")},
        }

    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    # The acceptance floor: at a 5% kill rate every query survives
    # (a loss needs three consecutive kills of the same query job,
    # p ~ 1e-4) and survivors are byte-identical to the clean run.
    assert doc["success_rate"] == 1.0, doc
    assert doc["identical_rate"] == 1.0, doc
    # The plan really fired and the retries really absorbed it.
    assert doc["counters"]["faults_injected"] >= 1, doc
    assert doc["counters"]["retries"] >= 1, doc
    assert doc["counters"]["retry_exhausted"] == 0, doc
    write_artifact("resilience.json", json.dumps(doc, indent=2))
    update_bench_trajectory("resilience", {
        "queries": doc["queries"],
        "k": K,
        "fault_plan": plan_spec,
        "success_rate": doc["success_rate"],
        "identical_rate": doc["identical_rate"],
        "p99_seconds": doc["p99_seconds"],
        "counters": doc["counters"],
    }, quick=quick)


def test_tracing_overhead(benchmark, dblp, quick):
    """Query tracing must be free on the warm-cache fast path.

    Cache hits skip the trace lifecycle entirely (``future.trace`` is
    ``None``), so a warm pool with the recorder enabled must run at
    the same speed as with it disabled -- the acceptance budget is
    < 5% overhead (min-of-rounds to cut scheduler noise; quick mode's
    tiny pool only gets a sanity bound).  Misses still record full
    traces, asserted as a shape check.
    """
    pool = _query_pool(dblp, quick)
    explorer = CExplorer(workers=1, max_queue=len(pool) + 1)
    explorer.add_graph("dblp", dblp, build="eager")
    engine = explorer.engine

    def warm_pass():
        for q in pool:
            engine.search_sync("acq", q, k=K, timeout=60)

    def best_of(rounds, passes):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(passes):
                warm_pass()
            best = min(best, time.perf_counter() - start)
        return best

    def run():
        warm_pass()                          # fill the cache
        # Misses recorded full traces while the cache filled.
        traced_misses = engine.tracer.stats()["recorded"]
        recorded_before = traced_misses
        warm_pass()                          # all hits, no new traces
        assert engine.tracer.stats()["recorded"] == recorded_before
        rounds, passes = (3, 5) if quick else (5, 20)
        best_of(1, passes)                   # untimed warm-up
        engine.tracer.configure(enabled=True)
        traced = best_of(rounds, passes)
        engine.tracer.configure(enabled=False)
        untraced = best_of(rounds, passes)
        engine.tracer.configure(enabled=True)
        return {"traced": traced, "untraced": untraced,
                "misses_recorded": traced_misses}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    explorer.engine.shutdown()
    overhead = (results["traced"] - results["untraced"]) \
        / results["untraced"]
    assert results["misses_recorded"] >= len(set(pool))
    # < 5% on the full pool; the quick pool is too small for a tight
    # bound, so it only guards against gross regressions.
    assert overhead < (0.5 if quick else 0.05), results
    update_bench_trajectory("tracing", {
        "queries": len(pool),
        "warm_traced_seconds": round(results["traced"], 6),
        "warm_untraced_seconds": round(results["untraced"], 6),
        "warm_overhead_pct": round(overhead * 100, 2),
    }, quick=quick)
