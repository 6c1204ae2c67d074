"""Per-layer metrics: what they are and how they are computed.

Times come from the spans of the traced pass (``spans.py``): each span
is attributed to the op whose client-side send/receive interval
it starts in, a span nested in one of the same name is not counted
twice, and a metric is the **median over the ops in which the span
occurs** of the op's total (0 when it never occurs on the workload).
Counts come from the untraced passes -- client-side response sizes and
deltas of the public ``/v1/metrics`` counters -- and must repeat
exactly from pass to pass.
"""

import bisect
import statistics

# name -> (unit, better, span name or None).  Order is report order.
LAYER_METRICS = {
    "server.http_overhead_ms": ("ms", "lower", None),
    "server.parse_ms": ("ms", "lower", "server.parse"),
    "server.serialize_ms": ("ms", "lower", "server.serialize"),
    "server.serialize_p95_ms": ("ms", "lower", None),
    "server.response_bytes_p50": ("bytes", "lower", None),
    "server.response_bytes_p95": ("bytes", "lower", None),
    "executor.submit_ms": ("ms", "lower", None),
    "executor.queue_wait_ms": ("ms", "lower", None),
    "executor.rejected": ("count", "lower", None),
    "plans.plan_ms": ("ms", "lower", "plans.plan"),
    "cache.get_ms": ("ms", "lower", "cache.get"),
    "cache.put_ms": ("ms", "lower", "cache.put"),
    "cache.invalidate_ms": ("ms", "lower", "cache.invalidate"),
    "cache.hit_rate": ("ratio", "higher", None),
    "cache.evicted_per_update": ("count", "lower", None),
    "index.rebuilds": ("count", "lower", None),
    "index.build_ms": ("ms", "lower", "index.build"),
    "index.core_ms": ("ms", "lower", "index.core"),
    "index.truss_ms": ("ms", "lower", "index.truss"),
    "algorithms.acq_ms": ("ms", "lower", "algorithms.acq"),
    "algorithms.global_ms": ("ms", "lower", "algorithms.global"),
    "algorithms.local_ms": ("ms", "lower", "algorithms.local"),
    "algorithms.ktruss_ms": ("ms", "lower", "algorithms.k-truss"),
    "maintenance.update_ms": ("ms", "lower", "maintenance.update"),
    "maintenance.changed_vertices": ("count", "lower", None),
    "explorer.search_self_ms": ("ms", "lower", None),
    "explorer.options_ms": ("ms", "lower", "explorer.options"),
    "explorer.profile_ms": ("ms", "lower", "explorer.profile"),
    "explorer.suggest_ms": ("ms", "lower", "explorer.suggest"),
    "explorer.compare_ms": ("ms", "lower", "explorer.compare"),
    "viz.layout_ms": ("ms", "lower", "viz.layout"),
    "viz.render_svg_ms": ("ms", "lower", "viz.render_svg"),
    "setup.import_s": ("s", "lower", None),
    "setup.load_graph_s": ("s", "lower", None),
    "setup.index_build_s": ("s", "lower", None),
    "setup.maintainer_s": ("s", "lower", None),
    "backends.worker_full_query": ("count", "lower", None),
    "payloads.shm_segments": ("count", "lower", None),
    "batching.batches": ("count", "lower", None),
    "trace.overhead_pct": ("%", "lower", None),
}

WORKER_ENTRIES = ("explorer.search", "explorer.compare")


def percentile(values, p):
    """The value at the ``p``-th percentile (nearest rank)."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * p // 100)) - 1]


def attribute(records, spans):
    """``{record index: [span, ...]}``: a span belongs to the op in
    whose send/receive interval it starts (the handler's own span can
    end a moment after the client has read the answer).  Ops of a
    traced pass never overlap, so the op is unique."""
    order = sorted(range(len(records)), key=lambda i: records[i].sent)
    sent = [records[i].sent for i in order]
    by_op = {}
    for span in spans:
        at = bisect.bisect_right(sent, span["start"]) - 1
        if at >= 0 and span["start"] <= records[order[at]].received:
            by_op.setdefault(order[at], []).append(span)
    return by_op


def span_times(records, spans):
    """The span-derived per-layer times of one traced pass, in ms."""
    by_id = {span["id"]: span for span in spans}
    child_ms = {}
    for span in spans:
        if span["parent"] is not None:
            child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) \
                + (span["end"] - span["start"]) * 1000.0
    by_op = attribute(records, spans)
    samples = {}

    def add(metric, value):
        samples.setdefault(metric, []).append(value)

    for index, op_spans in by_op.items():
        totals = {}
        enqueue = entry = None
        for span in sorted(op_spans, key=lambda s: s["start"]):
            ms = (span["end"] - span["start"]) * 1000.0
            name = span["name"]
            parent = by_id.get(span["parent"])
            nested = parent is not None and parent["name"] == name
            if not nested:
                totals[name] = totals.get(name, 0.0) + ms
            if name == "explorer.search":
                totals["explorer.search.self"] = totals.get(
                    "explorer.search.self", 0.0) \
                    + ms - child_ms.get(span["id"], 0.0)
            if name == "executor.enqueue":
                if enqueue is None:
                    enqueue = span
                if parent is None or parent["name"] != "executor.search":
                    totals["executor.submit"] = totals.get(
                        "executor.submit", 0.0) + ms
            elif name == "executor.search":
                totals["executor.submit"] = totals.get(
                    "executor.submit", 0.0) + ms
            elif (name in WORKER_ENTRIES and entry is None
                  and enqueue is not None
                  and span["thread"] != enqueue["thread"]):
                entry = span
        for metric, (_, _, span_name) in LAYER_METRICS.items():
            if span_name in totals:
                add(metric, totals[span_name])
        if "explorer.search.self" in totals:
            add("explorer.search_self_ms", totals["explorer.search.self"])
        if "executor.submit" in totals:
            add("executor.submit_ms", totals["executor.submit"])
        if entry is not None:
            add("executor.queue_wait_ms",
                max(0.0, (entry["start"] - enqueue["start"]) * 1000.0))
        if "server.request" in totals:
            add("server.http_overhead_ms",
                records[index].ms - totals["server.request"])
    times = {metric: statistics.median(values)
             for metric, values in samples.items()}
    # Serialisation is what the slowest cached answers pay (the large
    # communities), which a median over ops cannot show.
    times["server.serialize_p95_ms"] = percentile(
        samples.get("server.serialize_ms", [0.0]), 95)
    return times


def counter_delta(before, after):
    """What one pass added to the public ``/v1/metrics`` counters."""
    def read(doc):
        engine = doc["engine"]
        return {
            "hits": doc["cache"]["hits"],
            "misses": doc["cache"]["misses"],
            "invalidations": doc["cache"]["invalidations"],
            "rejected": engine["counters"].get("rejected", 0),
            "builds": engine["indexes"]["dblp"]["builds"],
            "worker_full_query": engine["worker_full_query"],
            "batches": engine["counters"].get("batches", 0),
        }
    a, b = read(before), read(after)
    delta = {key: b[key] - a[key] for key in a}
    # A gauge, not a counter: report where the pass left it.
    delta["shm_segments"] = after["engine"]["payloads"]["shm_segments"]
    return delta
