#!/usr/bin/env python
"""Metrics-plane schema checker (the CI docs job).

Boots a smoke server on a small generated graph, runs one query, and
validates both metrics surfaces against their contracts, which
``repro.engine.tracing.METRICS`` declares once:

* ``GET /v1/metrics`` -- the JSON ``data`` document must resolve every
  ``METRICS`` row's path, plus the keys no row renders (``UNRENDERED``,
  the failure rule's counter, histogram fields with per-bucket data);
* ``GET /metrics`` -- the Prometheus text exposition (format 0.0.4)
  must carry a ``# TYPE`` line for every row's family and parse line
  by line: legal metric/label names, a ``# TYPE`` header before any
  sample of that family, cumulative ``le`` buckets ending in
  ``+Inf``, and ``_count`` equal to the ``+Inf`` bucket;
* ``docs/API.md`` -- its ``GET /metrics`` table must list exactly the
  rows' families, types and paths.

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

from repro.engine.tracing import METRICS  # noqa: E402

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)(?: [0-9]+)?$")
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

DOCS_ROW = re.compile(r"^\| `(repro_\w+)` \| (\w+) \| `([\w.]+)` \|",
                      re.MULTILINE)

# /v1/metrics keys no METRICS row renders, as dotted paths.
UNRENDERED = ("engine.fault_plan", "engine.payloads.transport",
              "engine.payloads.shm_available", "engine.traces.capacity",
              "engine.traces.buffered",
              "engine.traces.slow_threshold_seconds")
FAULT_PLAN_KEYS = ("seed", "rules", "injected")
HISTOGRAM_KEYS = ("count", "mean_ms", "p50_ms", "p95_ms", "max_ms",
                  "total_seconds", "buckets")
# Engine counters present from boot, bumped or not: the failure
# rule's inline reruns (see QueryEngine.run_job).
ENGINE_COUNTERS = ("job_inline_fallbacks",)


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
        base + "/v1/search",
        data=json.dumps({"vertex": "Jim Gray", "k": 3,
                         "algorithm": "global"}).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    urllib.request.urlopen(req).read()
    return server, base


def check_json_metrics(doc):
    """Yield problem strings for the ``/v1/metrics`` data document."""
    for path in [metric.path for metric in METRICS] + list(UNRENDERED):
        node = doc
        for key in path.split("."):
            if not isinstance(node, dict) or key not in node:
                yield "/v1/metrics missing key {!r}".format(path)
                break
            node = node[key]
    engine = doc.get("engine", {})
    fault_plan = engine.get("fault_plan")
    if fault_plan is not None:
        for key in FAULT_PLAN_KEYS:
            if key not in fault_plan:
                yield "engine.fault_plan missing key {!r}".format(key)
    counters = engine.get("counters", {})
    for key in ENGINE_COUNTERS:
        if key not in counters:
            yield "engine.counters missing key {!r}".format(key)
        elif not isinstance(counters.get(key), int) \
                or counters.get(key) < 0:
            yield ("engine counter {!r} is {!r}, not a "
                   "non-negative int".format(key, counters.get(key)))
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
    for metric in METRICS:
        if typed.get(metric.name) != metric.kind:
            yield "exposition has no '# TYPE {} {}' line".format(
                metric.name, metric.kind)
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


def check_docs():
    """Yield problem strings for ``docs/API.md``'s ``GET /metrics``
    table: its rows must be exactly the ``METRICS`` families."""
    with open(os.path.join(REPO_ROOT, "docs", "API.md"),
              encoding="utf-8") as handle:
        text = handle.read()
    section = text.partition("### `GET /metrics`")[2].partition("\n#")[0]
    documented = DOCS_ROW.findall(section)
    declared = [(m.name, m.kind, m.path) for m in METRICS]
    for row in sorted(set(declared) - set(documented)):
        yield "docs/API.md /metrics table lacks {} {} `{}`".format(*row)
    for row in sorted(set(documented) - set(declared)):
        yield "docs/API.md /metrics table has undeclared {} {} `{}`" \
            .format(*row)


def main(argv):
    server, base = boot_server()
    try:
        with urllib.request.urlopen(base + "/v1/metrics") as resp:
            doc = json.loads(resp.read().decode("utf-8"))["data"]
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
    problems.extend(check_docs())
    for event in ENGINE_COUNTERS:
        if 'repro_engine_events_total{{event="{}"}}'.format(event) \
                not in text:
            problems.append(
                "exposition missing engine event {!r}".format(event))
    for problem in problems:
        print("SCHEMA: {}".format(problem))
    if problems:
        print("{} metrics schema problem(s)".format(len(problems)))
        return 1
    samples = sum(1 for line in text.splitlines()
                  if line and not line.startswith("#"))
    print("metrics ok: JSON keys complete, {} exposition sample(s) "
          "parse, docs/API.md in sync".format(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
