"""End-to-end + per-layer benchmark of the default C-Explorer server.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--traced]

launches the default-configuration server (``launcher.py``) on a
generated 20 000-author DBLP graph, drives it over HTTP from this one
process, checks every answer, and prints every metric as
``workload/metric value unit``.  With ``--workload`` the last line of
output is one JSON object for the benchmark driver (``BENCHMARK.json``
at the repo root names the metrics and their bounds).  See README.md
in this directory for the workloads, the metrics and how they interact.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    # Measure this checkout's source, never an installed copy.
    sys.exit("benchmarks/e2e needs the repro package under src/")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.datasets import DblpConfig, generate_dblp_graph  # noqa: E402
from repro.graph.io import write_graph_json  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# The run length BENCHMARK.json declares; --seconds scales the number
# of timed passes from it (never below three), so a run is bounded by
# op count, not by the clock.
RUN_SECONDS = 20
MIN_PASSES = 3

# name -> (unit, better, bound)
END_TO_END = {
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p95_ms": ("ms", "lower", 0.25),
    "throughput_rps": ("1/s", "higher", 0.25),
    "server_cpu_ms_per_op": ("ms", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}


class Bench:
    """The generated graph, written once, and the harness's view of it."""

    def __init__(self, quick):
        self.quick = quick
        self.scale = 0.15 if quick else 1.0
        config = DblpConfig(n_authors=2000 if quick else 20000,
                            n_communities=24 if quick else 235, seed=7)
        graph, communities = generate_dblp_graph(
            config, return_communities=True)
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        self.graph_path = os.path.join(
            harness.OUT_DIR, "graph-{}.json".format(config.n_authors))
        scratch = "{}.{}".format(self.graph_path, os.getpid())
        write_graph_json(graph, scratch)
        os.replace(scratch, self.graph_path)
        self.world = oracle.World(graph)
        self.population = workloads.Population(self.world, communities)


def measure(bench, name, seed, seconds, traced, config):
    """One workload's result document."""
    world = bench.world
    wl = workloads.WORKLOADS[name](bench.population, seed, bench.scale)
    passes = 1 if bench.quick else max(
        MIN_PASSES, round(wl.passes * seconds / RUN_SECONDS))
    if traced and not bench.quick:
        passes = MIN_PASSES
    # The box's speed is read between all the things that are timed.
    calib = [harness.calibrate()]
    # Set-up: three cold launches -- one before the run and one after
    # it, each shut down at once, and the run's own -- so that one slow
    # spell of the box cannot fall on two of them.
    setups = []

    def spare_launch():
        if not bench.quick:
            spare = harness.Server(bench.graph_path, wl.maintainer, config)
            setups.append(spare.setup_s)
            spare.stop()
            calib.append(harness.calibrate())

    spare_launch()
    server = harness.Server(bench.graph_path, wl.maintainer, config)
    setups.append(server.setup_s)
    checker = harness.Checker(world)
    failures = []
    attempted = 0
    digests = []
    sweeps = []

    def untimed(ops):
        nonlocal attempted
        records = harness.run_ops(server, world, ops)
        attempted += len(records)
        failed, answers, _, _ = checker.check(records)
        failures.extend(failed)
        return oracle.digest(answers)

    def one_pass(**kwargs):
        nonlocal attempted
        one = run_pass(server, wl, checker, **kwargs)
        attempted += wl.ops_per_pass
        failures.extend(one.pop("failures"))
        digests.append(one.pop("digest"))
        calib.append(harness.calibrate())
        if wl.sweep:
            sweeps.append(untimed(wl.sweep))
            calib.append(harness.calibrate())
        return one

    try:
        sweeps.append(untimed(wl.warmup))
        calib.append(harness.calibrate())
        timed = [one_pass(verify=index == 0) for index in range(passes)]
        result = {"server_rss_mb": server.control("usage")["rss_mb"]}
        if traced:
            # Tracing overhead compares like with like: one client at
            # a time, traced and not.
            alone = timed[-1] if len(wl.users) == 1 else \
                one_pass(verify=False, together=False)
            one = one_pass(verify=False, traced=True)
            result["layers"] = layer_report(wl, server, timed, alone, one)
            result["trace_file"] = write_trace(name, one)
    finally:
        server.stop()
    spare_launch()
    # How much slower than undisturbed the box ran: every time below is
    # divided by it, so that a run that falls into one of the host's
    # slow spells reads as it would have beside them.  The same
    # statistic as over the passes, so that in a run that is half
    # disturbed both come from the same half.
    speed = harness.quiet(calib) / harness.REFERENCE_MS
    result.update(summarise(wl, timed, speed))
    # Same answers on every pass; on update_mix the working set reads
    # the same after every pass as it did before the first update.
    for label, group in (("pass", digests), ("sweep", sweeps)):
        if len(set(group)) > 1:
            failures.append("{} digests differ: {}".format(label, group))
    result.update(
        passes=passes, calib_ms=calib, speed=speed,
        setup_s=harness.quiet(setups) / speed,
        ops_per_pass=wl.ops_per_pass, ops_attempted=attempted,
        ops_failed=len(failures), failures=failures[:10],
        answers_digest=digests[0])
    return result


def run_pass(server, wl, checker, verify, traced=False, together=True):
    """One pass over the workload's op lists, checked afterwards."""
    world = checker.world
    if wl.reset:
        server.control("reset")
    before = harness.get_metrics(server)
    if traced:
        server.control("trace", mode="on")
    per_user, wall_s, cpu_s = harness.drive(
        server, world, wl.users, together=together and not traced)
    spans = server.control("trace", mode="off")["spans"] if traced else []
    after = harness.get_metrics(server)
    failures, answers, hits, misses = [], [], 0, 0
    for records in per_user:
        failed, found, h, m = checker.check(records, verify)
        failures += failed
        answers += found
        hits += h
        misses += m
    records = [rec for user in per_user for rec in user]
    updates = [rec for rec in records if rec.op["kind"] == "update"]
    # Response sizes leave out /v1/compare, whose body carries timings.
    sizes = [len(rec.body) for rec in records
             if rec.op["kind"] not in ("update", "compare")]
    changed = sum(json.loads(rec.body)["changed"] for rec in updates)
    for rec in records:
        rec.body = None     # checked and measured; free the memory
    return {
        "failures": failures, "digest": oracle.digest(answers),
        "user_ms": [[rec.ms for rec in user] for user in per_user],
        "bytes": sizes, "wall_s": wall_s, "cpu_s": cpu_s,
        "updates": len(updates), "changed": changed,
        "hits": hits, "misses": misses,
        "counters": layers.counter_delta(before, after),
        "records": records, "spans": spans,
    }


def read_latencies(wl, user_ms):
    """The latencies of the reads (every op but the updates)."""
    return [ms for ops, user in zip(wl.users, user_ms)
            for op, ms in zip(ops, user) if op["kind"] != "update"]


def summarise(wl, timed, speed):
    """End-to-end metrics from the timed passes, at the box's
    undisturbed speed (``speed``: see ``harness.calibrate``).

    Per-op latency is the lower quartile (``harness.quiet``) of that
    op's samples, one per pass; the percentiles are over ops (updates
    excluded) of those.  Throughput (ops over the pass's wall time,
    updates included) and server CPU per op are taken from the lower
    quartile over passes of wall and CPU time.
    """
    per_op = [[harness.quiet(samples) / speed
               for samples in zip(*(one["user_ms"][u] for one in timed))]
              for u in range(len(wl.users))]
    reads = read_latencies(wl, per_op)
    ops = wl.ops_per_pass
    return {
        "latency_p50_ms": layers.percentile(reads, 50),
        "latency_p95_ms": layers.percentile(reads, 95),
        "throughput_rps": ops * speed / harness.quiet(
            one["wall_s"] for one in timed),
        "server_cpu_ms_per_op": 1000.0 / speed / ops * harness.quiet(
            one["cpu_s"] for one in timed),
        "latency_samples": len(reads),
        # As measured, not rescaled: to spot a disturbed pass.
        "pass_wall_s": [one["wall_s"] for one in timed],
        # Rule 4: a percentile must not sit on a cliff between latency
        # classes, so print what lies three points either side of it.
        "neighbours": {p: layers.percentile(reads, p)
                       for p in (47, 53, 92, 98)},
    }


def layer_report(wl, server, timed, alone, traced_pass):
    """Every per-layer metric: times from the traced pass, counts from
    the untraced passes (and whether they repeated exactly).  ``alone``
    is an untraced pass run one client at a time, as the traced one
    is."""
    report = dict.fromkeys(layers.LAYER_METRICS, 0.0)
    report.update(layers.span_times(traced_pass["records"],
                                    traced_pass["spans"]))
    last = timed[-1]
    counters = last["counters"]
    searches = last["hits"] + last["misses"]
    updates = last["updates"]
    report.update({
        "server.response_bytes_p50": layers.percentile(last["bytes"], 50),
        "server.response_bytes_p95": layers.percentile(last["bytes"], 95),
        "executor.rejected": counters["rejected"],
        "cache.hit_rate": last["hits"] / searches if searches else 0.0,
        "cache.evicted_per_update":
            counters["invalidations"] / updates if updates else 0.0,
        "index.rebuilds": counters["builds"],
        "maintenance.changed_vertices": last["changed"],
        "backends.worker_full_query": counters["worker_full_query"],
        "payloads.shm_segments": counters["shm_segments"],
        "batching.batches": counters["batches"],
    })
    for stage, value in server.stages.items():
        report["setup." + stage] = value
    p50 = [layers.percentile(read_latencies(wl, one["user_ms"]), 50)
           for one in (traced_pass, alone)]
    report["trace.overhead_pct"] = (p50[0] / p50[1] - 1.0) * 100.0
    exact = ("counters", "hits", "misses", "changed")
    report["counts_repeat"] = all(
        one[key] == last[key] for one in timed for key in exact)
    return report


def write_trace(name, traced_pass):
    """The traced pass's ops and spans, for reading by hand."""
    path = os.path.join(harness.OUT_DIR, "trace-{}.json".format(name))
    ops = [{"index": i, "kind": rec.op["kind"],
            "algorithm": rec.op.get("algorithm"),
            "sent": rec.sent, "received": rec.received}
           for i, rec in enumerate(traced_pass["records"])]
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": name, "ops": ops,
                   "spans": traced_pass["spans"]}, f)
    return path


def report(name, result, out=sys.stdout):
    """Print one workload's metrics as ``workload/metric value unit``."""
    def line(metric, value, unit, note=""):
        text = "{:.4f}".format(value) if isinstance(value, float) else value
        out.write("{}/{} {} {}{}\n".format(name, metric, text, unit, note))

    near = result["neighbours"]
    notes = {
        "latency_p50_ms": "  n={} p47={:.3f} p53={:.3f}".format(
            result["latency_samples"], near[47], near[53]),
        "latency_p95_ms": "  n={} p92={:.3f} p98={:.3f}".format(
            result["latency_samples"], near[92], near[98]),
    }
    for metric, (unit, _, _) in END_TO_END.items():
        line(metric, result[metric], unit, notes.get(metric, ""))
    line("passes", result["passes"], "count")
    line("ops_per_pass", result["ops_per_pass"], "count")
    line("ops_attempted", result["ops_attempted"], "count")
    line("ops_failed", result["ops_failed"], "count")
    for failure in result["failures"]:
        out.write("  failed: {}\n".format(failure))
    line("answers_digest", result["answers_digest"], "sha256")
    line("calib_ms", "/".join("{:.1f}".format(ms)
                              for ms in result["calib_ms"]), "ms")
    line("speed", result["speed"], "ratio")
    line("pass_wall_s", "/".join("{:.2f}".format(s)
                                 for s in result["pass_wall_s"]), "s")
    if "layers" in result:
        for metric, (unit, _, _) in layers.LAYER_METRICS.items():
            line(metric, float(result["layers"][metric]), unit)
        line("counts_repeat", result["layers"]["counts_repeat"], "bool")
        out.write("{}: spans written to {}\n".format(
            name, os.path.relpath(result["trace_file"])))


def driver_line(result, traced):
    """The one JSON object the benchmark driver reads."""
    if traced:
        metrics = {m: {"value": float(result["layers"][m]), "unit": unit}
                   for m, (unit, _, _) in layers.LAYER_METRICS.items()}
    else:
        metrics = {m: {"value": result[m], "unit": unit}
                   for m, (unit, _, _) in END_TO_END.items()}
    return json.dumps({"correct": result["ops_failed"] == 0,
                       "attempted": result["ops_attempted"],
                       "failed": result["ops_failed"],
                       "metrics": metrics})


def compare_aa(first, second):
    """Print both runs of every ``workload/metric`` with the relative
    difference and the bound; returns whether every bound holds."""
    ok = True
    for name in first:
        for metric, (unit, better, bound) in END_TO_END.items():
            a, b = first[name][metric], second[name][metric]
            diff = abs(b - a) / a if a else float(b != a)
            verdict = "ok" if diff <= bound else "EXCEEDED"
            ok = ok and diff <= bound
            print("{}/{} {:.4f} {:.4f} {} diff {:.2%} bound {:.0%} {}"
                  .format(name, metric, a, b, unit, diff, bound, verdict))
        if first[name]["answers_digest"] != second[name]["answers_digest"]:
            print("{}/answers_digest differs".format(name))
            ok = False
        # With --traced: counts must repeat exactly.
        for metric, (unit, _, _) in layers.LAYER_METRICS.items():
            if unit == "count" and "layers" in first[name]:
                a, b = (run[name]["layers"][metric] for run in (first, second))
                if a != b:
                    print("{}/{} {} {} count differs".format(name, metric,
                                                             a, b))
                    ok = False
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="nominal measuring time; scales the number "
                             "of timed passes (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced pass and report "
                             "the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 2 000 authors, one pass")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare the runs "
                             "against the bounds")
    parser.add_argument("--server-config", default="",
                        help="non-default server for crossover studies: "
                             "front=async,backend=process,shards=4,"
                             "workers=N,batch_window=MS")
    args = parser.parse_args(argv)
    traced = bool(args.trace or args.traced)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.server_config:
        print("# NON-DEFAULT SERVER ({}): not comparable with "
              "BENCHMARK.json".format(args.server_config))
    # Client and server on one CPU (the server inherits it).  They take
    # turns anyway, and left to the scheduler a cached search reads
    # 0.77 ms or 0.93 ms for minutes on end, by where it put the two.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args.quick)

    def suite():
        results = {}
        for name in names:
            results[name] = measure(bench, name, args.seed,
                                         args.seconds, traced,
                                         args.server_config)
            report(name, results[name])
        return results

    results = suite()
    failed = sum(r["ops_failed"] for r in results.values())
    if args.aa:
        print("# second run")
        again = suite()
        failed += sum(r["ops_failed"] for r in again.values())
        if not compare_aa(results, again):
            return 1
    elif args.workload:
        # The driver reads failures from the line, not the exit code.
        print(driver_line(results[args.workload], traced))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
