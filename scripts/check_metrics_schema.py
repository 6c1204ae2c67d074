#!/usr/bin/env python
"""Metrics-plane schema checker (the CI docs job).

Boots a smoke server on a small generated graph, runs one query, and
validates both metrics surfaces against their contracts:

* ``GET /api/metrics`` -- the JSON document must carry the keys the
  dashboard and the Prometheus renderer read (uptime, request
  counters, engine counters/latency histograms with per-bucket data,
  cache counters, tracer occupancy);
* ``GET /metrics`` -- the Prometheus text exposition (format 0.0.4)
  must parse line by line: legal metric/label names, a ``# TYPE``
  header before any sample of that family, cumulative ``le`` buckets
  ending in ``+Inf``, and ``_count`` equal to the ``+Inf`` bucket.

Runs entirely in-process (no network dependency beyond loopback), so
a schema drift between the JSON plane and the exposition renderer
fails CI instead of a scrape.

Usage: python scripts/check_metrics_schema.py
"""

import json
import os
import re
import sys
import threading
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)(?: [0-9]+)?$")
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

# The JSON metrics keys the dashboard and renderer contractually read.
ENGINE_KEYS = ("queue_depth", "in_flight", "workers", "counters",
               "latency", "traces", "resilience", "payloads")
# The payload-plane block (see repro.engine.payloads.plane_stats).
PAYLOAD_KEYS = ("transport", "shm_available", "shm_segments",
                "payload_bytes", "attach_failures")
TRACE_KEYS = ("enabled", "capacity", "buffered", "recorded",
              "slow_queries", "slow_threshold_seconds")
HISTOGRAM_KEYS = ("count", "mean_ms", "p50_ms", "p95_ms", "max_ms",
                  "total_seconds", "buckets")
CACHE_KEYS = ("hits", "misses", "evictions", "invalidations", "entries")
# The resilience block the Prometheus renderer and the chaos CI job
# read (see repro.engine.retry.ResiliencePlane.snapshot).
RESILIENCE_KEYS = ("counters", "breakers", "quarantined", "degraded")
RESILIENCE_COUNTERS = ("retries", "retry_exhausted", "hedges",
                       "hedges_won", "hedges_lost", "quarantines",
                       "breaker_rejections", "payload_retries",
                       "batch_member_retries", "faults_injected")
BREAKER_KEYS = ("state", "consecutive_failures", "opens", "probes",
                "promotions", "degraded_seconds")
BREAKER_STATES = ("closed", "open", "half_open")


def boot_server():
    """A serving (server, base_url) pair over a small traced graph."""
    from repro.datasets import DblpConfig, generate_dblp_graph
    from repro.explorer.cexplorer import CExplorer
    from repro.server.app import make_server

    explorer = CExplorer(workers=2)
    explorer.add_graph("smoke", generate_dblp_graph(
        DblpConfig(n_authors=200, n_communities=6, seed=11)))
    server = make_server(explorer, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = "http://127.0.0.1:{}".format(server.server_address[1])
    # One real query so histograms, cache counters, and the trace
    # ring all have data to validate against.
    req = urllib.request.Request(
        base + "/api/search",
        data=json.dumps({"vertex": "Jim Gray", "k": 3,
                         "algorithm": "global"}).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    urllib.request.urlopen(req).read()
    return server, base


def check_json_metrics(doc):
    """Yield problem strings for the ``/api/metrics`` document."""
    for key in ("uptime_seconds", "requests", "errors", "engine",
                "cache"):
        if key not in doc:
            yield "/api/metrics missing key {!r}".format(key)
    engine = doc.get("engine", {})
    for key in ENGINE_KEYS:
        if key not in engine:
            yield "engine doc missing key {!r}".format(key)
    for key in TRACE_KEYS:
        if key not in engine.get("traces", {}):
            yield "engine.traces missing key {!r}".format(key)
    for key in CACHE_KEYS:
        if key not in doc.get("cache", {}):
            yield "cache doc missing key {!r}".format(key)
    resilience = engine.get("resilience", {})
    for key in RESILIENCE_KEYS:
        if key not in resilience:
            yield "engine.resilience missing key {!r}".format(key)
    payloads = engine.get("payloads", {})
    for key in PAYLOAD_KEYS:
        if key not in payloads:
            yield "engine.payloads missing key {!r}".format(key)
    spill = doc.get("cache", {}).get("spill")
    if not isinstance(spill, dict) or "enabled" not in spill:
        yield "cache doc missing 'spill' sub-document"
    counters = resilience.get("counters", {})
    for key in RESILIENCE_COUNTERS:
        if key not in counters:
            yield ("resilience counters missing key "
                   "{!r}".format(key))
        elif not isinstance(counters.get(key), int) \
                or counters.get(key) < 0:
            yield ("resilience counter {!r} is {!r}, not a "
                   "non-negative int".format(key, counters.get(key)))
    breaker = resilience.get("breakers", {}).get("process")
    if breaker is None:
        yield "no 'process' circuit breaker in resilience doc"
    else:
        for key in BREAKER_KEYS:
            if key not in breaker:
                yield "breaker 'process' missing key {!r}".format(key)
        if breaker.get("state") not in BREAKER_STATES:
            yield "breaker 'process' has unknown state {!r}".format(
                breaker.get("state"))
    latency = engine.get("latency", {})
    if "search" not in latency:
        yield "no 'search' latency histogram after a search request"
    for op, hist in latency.items():
        for key in HISTOGRAM_KEYS:
            if key not in hist:
                yield "histogram {!r} missing key {!r}".format(op, key)
        buckets = hist.get("buckets") or []
        if buckets:
            if buckets[-1][0] is not None:
                yield ("histogram {!r}: last bucket must be "
                       "open-ended (None bound)".format(op))
            if sum(count for _, count in buckets) != hist.get("count"):
                yield ("histogram {!r}: bucket counts do not sum to "
                       "count".format(op))


def check_exposition(text):
    """Yield problem strings for the Prometheus text exposition."""
    typed = {}
    series = {}
    if not text.endswith("\n"):
        yield "exposition must end with a newline"
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "untyped"):
                yield "line {}: malformed TYPE: {}".format(lineno, line)
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            continue
        match = SAMPLE.match(line)
        if match is None:
            yield "line {}: unparsable sample: {}".format(lineno, line)
            continue
        name = match.group("name")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in typed:
                base = name[:-len(suffix)]
        if not METRIC_NAME.match(name):
            yield "line {}: bad metric name {!r}".format(lineno, name)
        if base not in typed:
            yield ("line {}: sample {!r} has no preceding TYPE "
                   "header".format(lineno, name))
        labels = {}
        body = match.group("labels")
        if body:
            consumed = LABEL_PAIR.sub("", body).strip(", ")
            if consumed:
                yield "line {}: malformed labels {{{}}}".format(
                    lineno, body)
            for label, value in LABEL_PAIR.findall(body):
                if not LABEL_NAME.match(label):
                    yield "line {}: bad label name {!r}".format(
                        lineno, label)
                labels[label] = value
        try:
            value = float(match.group("value"))
        except ValueError:
            yield "line {}: non-numeric value {!r}".format(
                lineno, match.group("value"))
            continue
        series.setdefault(base, []).append((name, labels, value))
    for base, kind in typed.items():
        if kind != "histogram":
            continue
        for problem in _check_histogram_series(
                base, series.get(base, [])):
            yield problem


def _check_histogram_series(base, samples):
    """Validate one histogram family: cumulative buckets, +Inf bound,
    ``_count`` agreement -- grouped by its non-``le`` labels."""
    groups = {}
    for name, labels, value in samples:
        ident = tuple(sorted((k, v) for k, v in labels.items()
                             if k != "le"))
        groups.setdefault(ident, []).append((name, labels, value))
    for ident, group in groups.items():
        buckets = [(labels["le"], value) for name, labels, value
                   in group if name == base + "_bucket"]
        counts = [value for name, _, value in group
                  if name == base + "_count"]
        if not buckets:
            continue
        values = [value for _, value in buckets]
        if values != sorted(values):
            yield "{} {}: bucket counts not cumulative".format(
                base, dict(ident))
        if buckets[-1][0] != "+Inf":
            yield "{} {}: last bucket bound is {!r}, not +Inf".format(
                base, dict(ident), buckets[-1][0])
        elif counts and counts[0] != buckets[-1][1]:
            yield "{} {}: _count {} != +Inf bucket {}".format(
                base, dict(ident), counts[0], buckets[-1][1])


def main(argv):
    server, base = boot_server()
    try:
        with urllib.request.urlopen(base + "/api/metrics") as resp:
            doc = json.loads(resp.read().decode("utf-8"))
        with urllib.request.urlopen(base + "/metrics") as resp:
            content_type = resp.headers.get("Content-Type", "")
            text = resp.read().decode("utf-8")
    finally:
        server.shutdown()
    problems = list(check_json_metrics(doc))
    if not content_type.startswith("text/plain"):
        problems.append(
            "/metrics Content-Type is {!r}".format(content_type))
    problems.extend(check_exposition(text))
    for family in ("repro_resilience_events_total",
                   "repro_breaker_state",
                   "repro_quarantined_payloads",
                   "repro_shm_segments",
                   "repro_payload_bytes",
                   "repro_payload_attach_failures_total"):
        if "\n# TYPE {} ".format(family) not in text:
            problems.append(
                "exposition missing family {!r}".format(family))
    for problem in problems:
        print("SCHEMA: {}".format(problem))
    if problems:
        print("{} metrics schema problem(s)".format(len(problems)))
        return 1
    samples = sum(1 for line in text.splitlines()
                  if line and not line.startswith("#"))
    print("metrics ok: JSON keys complete, {} exposition sample(s) "
          "parse".format(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
