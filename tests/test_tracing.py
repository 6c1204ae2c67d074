"""Tests for end-to-end query tracing (repro.engine.tracing)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine import tracing
from repro.engine.tracing import (
    QueryTrace,
    TraceRecorder,
    format_waterfall,
    render_prometheus,
)
from repro.explorer.cexplorer import CExplorer
from repro.server.app import make_server


# ----------------------------------------------------------------------
# span context propagation
# ----------------------------------------------------------------------
class TestContextPropagation:
    def test_no_trace_is_a_noop(self):
        assert tracing.current_trace() is None
        with tracing.span("plan", graph="g") as record:
            assert record is None
        assert tracing.add_span("merge", 0.01) is None

    def test_activate_binds_and_restores(self):
        trace = QueryTrace("q1", "search")
        with tracing.activate(trace):
            assert tracing.current_trace() is trace
            with tracing.span("plan", graph="g") as record:
                assert record.name == "plan"
        assert tracing.current_trace() is None
        assert [s.name for s in trace.spans] == ["plan"]
        assert trace.spans[0].tags == {"graph": "g"}

    def test_activate_none_is_a_noop(self):
        with tracing.activate(None) as trace:
            assert trace is None
            assert tracing.current_trace() is None

    def test_spans_nest_via_parent_indices(self):
        trace = QueryTrace("q1", "search")
        with tracing.activate(trace):
            with tracing.span("execute"):
                with tracing.span("merge"):
                    tracing.add_span("cache_store", 0.001)
        names = {s.name: s for s in trace.spans}
        assert names["execute"].parent is None
        assert trace.spans[names["merge"].parent].name == "execute"
        assert trace.spans[names["cache_store"].parent].name == "merge"

    def test_worker_log_collects_and_wires(self):
        with tracing.collect_worker_spans() as log:
            with tracing.span("index_thaw", job=1):
                with tracing.span("core_build"):
                    pass
            tracing.add_span("algorithm", 0.25, algorithm="acq")
        wire = log.wire()
        assert [w[0] for w in wire] == \
            ["index_thaw", "core_build", "algorithm"]
        # Intra-list parents: core_build nests under index_thaw.
        assert wire[0][3] is None
        assert wire[1][3] == 0
        assert wire[2][3] is None
        assert wire[2][2] == 0.25
        # The wire format must survive the pickle hop to the parent.
        import pickle
        assert pickle.loads(pickle.dumps(wire)) == wire

    def test_graft_reparents_wire_spans(self):
        with tracing.collect_worker_spans() as log:
            with tracing.span("index_thaw"):
                with tracing.span("core_build"):
                    pass
        trace = QueryTrace("q1", "search")
        index = trace.add_span("worker_execute", 0.5,
                               tags={"job": 0})
        trace.graft(index, log.wire())
        by_name = {s.name: s for s in trace.spans}
        assert by_name["index_thaw"].parent == index
        assert trace.spans[by_name["core_build"].parent].name == \
            "index_thaw"


# ----------------------------------------------------------------------
# TraceRecorder
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_ring_buffer_bounds_memory(self):
        recorder = TraceRecorder(capacity=3)
        for _ in range(10):
            recorder.finish(recorder.begin("search"))
        stats = recorder.stats()
        assert stats["buffered"] == 3
        assert stats["recorded"] == 10
        kept = [t.query_id for t in recorder.traces()]
        assert kept == ["q10", "q9", "q8"]
        assert recorder.get("q1") is None
        assert recorder.get("q10") is not None

    def test_finish_is_idempotent(self):
        recorder = TraceRecorder()
        trace = recorder.begin("search")
        recorder.finish(trace, "ok")
        recorder.finish(trace, "error")
        assert trace.status == "ok"
        assert recorder.stats()["recorded"] == 1

    def test_slow_query_log(self):
        recorder = TraceRecorder(slow_seconds=0.0)
        recorder.finish(recorder.begin("search", vertex="v"))
        stats = recorder.stats()
        assert stats["slow_queries"] == 1
        assert recorder.traces(slow=True)[0].query_id == "q1"
        # A fast query under a real threshold stays out of the log.
        recorder = TraceRecorder(slow_seconds=60.0)
        recorder.finish(recorder.begin("search"))
        assert recorder.stats()["slow_queries"] == 0

    def test_trace_scope_records_and_handles_errors(self):
        recorder = TraceRecorder()
        with recorder.trace("detect", graph="g") as trace:
            with tracing.span("merge"):
                pass
        assert trace.status == "ok"
        assert [s.name for s in trace.spans] == ["execute", "merge"]
        with pytest.raises(ValueError):
            with recorder.trace("detect") as failing:
                raise ValueError("boom")
        assert failing.status == "error"

    def test_trace_scope_reuses_active_trace(self):
        recorder = TraceRecorder()
        outer = recorder.begin("search")
        with tracing.activate(outer):
            with recorder.trace("search") as inner:
                assert inner is outer
        # The outer owner has not finished it; nothing published yet.
        assert outer.status == "active"
        assert recorder.stats()["recorded"] == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)
        with pytest.raises(ValueError):
            TraceRecorder(capacity=-1)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def _sample_metrics_doc():
    return {
        "uptime_seconds": 12.5,
        "requests": {"/v1/search": 4, "/v1/metrics": 1},
        "errors": 1,
        "engine": {
            "queue_depth": 0,
            "in_flight": 1,
            "workers": 2,
            "throughput_per_second": 0.32,
            "throughput_recent_per_second": 1.5,
            "counters": {"submitted": 4, "completed": 3},
            "latency": {
                "search": {
                    "count": 3,
                    "total_seconds": 0.75,
                    "buckets": [[0.1, 1], [0.5, 2], [None, 0]],
                },
            },
            "traces": {"recorded": 3, "slow_queries": 1},
        },
        "cache": {"hits": 2, "misses": 2, "evictions": 0,
                  "invalidations": 1, "entries": 2,
                  "invalidations_by_reason": {"core-cascade": 1}},
    }


class TestPrometheusRendering:
    def test_exposition_structure(self):
        text = render_prometheus(_sample_metrics_doc())
        lines = text.splitlines()
        assert text.endswith("\n")
        # Every sample line references a metric with a TYPE header.
        typed = set()
        for line in lines:
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
        for line in lines:
            if line.startswith("#"):
                continue
            metric = line.split("{")[0].split(" ")[0]
            base = metric
            for suffix in ("_bucket", "_sum", "_count"):
                if metric.endswith(suffix) and \
                        metric[:-len(suffix)] in typed:
                    base = metric[:-len(suffix)]
            assert base in typed, line

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_prometheus(_sample_metrics_doc())
        buckets = [line for line in text.splitlines()
                   if line.startswith("repro_latency_seconds_bucket")]
        values = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert values == sorted(values)
        assert 'le="+Inf"' in buckets[-1]
        assert values[-1] == 3
        count = [line for line in text.splitlines()
                 if line.startswith("repro_latency_seconds_count")][0]
        assert count.rsplit(" ", 1)[1] == "3"

    def test_recent_throughput_preferred(self):
        text = render_prometheus(_sample_metrics_doc())
        line = [ln for ln in text.splitlines()
                if ln.startswith("repro_engine_throughput_per_second ")]
        assert line[0].endswith("1.5")

    def test_label_escaping(self):
        doc = _sample_metrics_doc()
        doc["requests"] = {'/pa"th\nx\\y': 1}
        text = render_prometheus(doc)
        assert r'path="/pa\"th\nx\\y"' in text

    def test_empty_doc_renders(self):
        text = render_prometheus({})
        assert "repro_uptime_seconds 0.0" in text


class TestWaterfall:
    def test_renders_spans_with_depth(self):
        trace = QueryTrace("q7", "search", tags={"graph": "g", "k": 4})
        with tracing.activate(trace):
            with tracing.span("execute"):
                with tracing.span("merge", parts=2):
                    pass
        trace.finish("ok")
        text = format_waterfall(trace.to_dict())
        lines = text.splitlines()
        assert lines[0].startswith("q7 search [ok]")
        assert "graph=g" in lines[0]
        assert any(line.lstrip().startswith("execute") for line in lines)
        merge = [line for line in lines if "merge" in line][0]
        assert merge.startswith("    ")      # nested one level deeper
        assert "parts=2" in merge
        assert "#" in merge

    def test_empty_trace(self):
        trace = QueryTrace("q1", "search")
        trace.finish("ok")
        assert "0 span(s)" in format_waterfall(trace.to_dict())


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_search_records_trace_with_queue_and_execute(self):
        from repro.datasets import DblpConfig, generate_dblp_graph
        explorer = CExplorer(workers=2)
        explorer.add_graph("dblp", generate_dblp_graph(
            DblpConfig(n_authors=200, n_communities=6, seed=5)))
        try:
            future = explorer.engine.search("global", "Jim Gray", k=3)
            future.result(30)
            trace = future.trace
            assert trace is not None
            assert trace.status == "ok"
            names = [s.name for s in trace.spans]
            assert "queue_wait" in names
            assert "execute" in names
            assert "cache_lookup" in names
            assert trace.tags["cache"] == "miss"
            assert explorer.engine.tracer.get(trace.query_id) is trace

            # The cache-hit path deliberately skips tracing: a hit
            # resolves in microseconds and a trace would multiply its
            # cost (the <5% warm-path overhead budget).
            recorded = explorer.engine.tracer.stats()["recorded"]
            hit = explorer.engine.search("global", "Jim Gray", k=3)
            assert hit.result(5) == future.result(5)
            assert hit.trace is None
            assert explorer.engine.tracer.stats()["recorded"] == \
                recorded
        finally:
            explorer.engine.shutdown()

    def test_cold_acq_miss_traces_its_index_build(self, fig5):
        """The CL-tree build a cold ACQ miss pays runs on the thread
        executing the query, so it shows in that query's trace."""
        explorer = CExplorer(workers=1)
        explorer.add_graph("fig5", fig5)
        try:
            future = explorer.engine.search("acq", 0, k=1)
            future.result(30)
            names = [s.name for s in future.trace.spans]
            assert "index_build" in names
            assert explorer.indexes.stats("fig5")["builds"] == 1
        finally:
            explorer.engine.shutdown()

    def test_search_trace_says_why_its_plan_was_chosen(self, fig5):
        from repro.engine.plans import plan_search
        explorer = CExplorer(workers=1)
        explorer.add_graph("fig5", fig5)
        try:
            future = explorer.engine.search("auto", 0, k=1)
            future.result(30)
            tags = future.trace.to_dict()["tags"]
            plan = plan_search("auto", fig5)
            assert tags["algorithm"] == plan.algorithm == "acq"
            assert tags["reason"] == plan.reason
        finally:
            explorer.engine.shutdown()

    def test_snapshot_reports_tracer_stats(self):
        explorer = CExplorer(workers=1)
        try:
            doc = explorer.engine.snapshot()["traces"]
            # Tracing cannot be switched off, so no flag reports it.
            assert "enabled" not in doc
            assert doc["capacity"] == 256
        finally:
            explorer.engine.shutdown()


# ----------------------------------------------------------------------
# acceptance: whole query over the process backend, via HTTP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_server():
    from repro.datasets import DblpConfig, generate_dblp_graph
    from repro.engine.faults import FaultPlan
    # No faults: a killed job reruns inline, not in the pool these
    # tests trace.
    explorer = CExplorer(workers=2, backend="process",
                         faults=FaultPlan())
    explorer.add_graph("dblp", generate_dblp_graph(
        DblpConfig(n_authors=400, n_communities=8, seed=13)))
    srv = make_server(explorer, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    explorer.engine.shutdown()


def _url(server, path):
    return "http://127.0.0.1:{}{}".format(server.server_address[1],
                                          path)


def _get(server, path):
    with urllib.request.urlopen(_url(server, path)) as resp:
        return resp.status, resp.headers, resp.read()


def _get_json(server, path):
    """``(status, data)`` of a ``/v1`` document."""
    status, _, body = _get(server, path)
    return status, json.loads(body)["data"]


class TestProcessTraceAcceptance:
    def _run_traced_query(self, server, algorithm="acq", k=3):
        req = urllib.request.Request(
            _url(server, "/v1/search"),
            data=json.dumps({"vertex": "Jim Gray", "k": k,
                             "algorithm": algorithm}).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(req) as resp:
            doc = json.loads(resp.read())["data"]
        assert "trace" in doc["query"]
        status, trace = _get_json(
            server, "/v1/traces/" + doc["query"]["trace"])
        assert status == 200
        return trace

    def test_trace_covers_worker_execution(self, traced_server):
        trace = self._run_traced_query(traced_server)
        assert trace["status"] == "ok"
        spans = trace["spans"]
        by_name = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span["name"], []).append(i)

        workers = [spans[i] for i in by_name["worker_execute"]]
        # The whole query runs as one job in a worker process.
        assert [s["tags"] for s in workers] == \
            [{"job": 0, "backend": "process"}]
        assert [spans[i]["tags"] for i in by_name["shard_ipc"]] == \
            [{"job": 0}]

        # Worker-side sub-spans were shipped back over the wire and
        # grafted under the job's worker_execute span.  A warm
        # worker cache can legitimately skip thaw/build spans, but
        # the ACQ finish always records its algorithm run, and only
        # known worker phases may appear.
        grafted = set()
        for index in by_name["worker_execute"]:
            if spans[index]["tags"].get("backend") != "process":
                continue
            grafted |= {s["name"] for s in spans
                        if s["parent"] == index}
        assert "algorithm" in grafted
        assert grafted <= {"index_thaw", "core_build", "cltree_build",
                           "truss_build", "algorithm"}

    def test_top_level_spans_account_for_latency(self, traced_server):
        # k=2 keys a fresh cache entry, so this traces a full
        # worker execution rather than an earlier test's cache hit.
        trace = self._run_traced_query(traced_server, k=2)
        top = [s for s in trace["spans"]
               if s["parent"] is None and s["name"] != "request"]
        accounted = sum(s["seconds"] for s in top)
        # The instrumented phases partition the query end to end:
        # their sum must sit within ~10% of the measured total.
        assert accounted == pytest.approx(trace["seconds"], rel=0.10,
                                          abs=0.001)

    def test_traces_listing_and_limit(self, traced_server):
        # A fresh k keys a cache miss; hits record no trace at all.
        self._run_traced_query(traced_server, k=4)
        status, doc = _get_json(traced_server, "/v1/traces?limit=1")
        assert status == 200
        assert len(doc["traces"]) == 1
        assert doc["stats"]["recorded"] >= 1
        summary = doc["traces"][0]
        assert summary["op"] == "search"
        assert summary["seconds"] > 0

    def test_unknown_trace_404(self, traced_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(traced_server, "/v1/traces/q999999")
        assert err.value.code == 404

    def test_metrics_exposition_endpoint(self, traced_server):
        self._run_traced_query(traced_server, k=5)
        status, headers, body = _get(traced_server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE repro_latency_seconds histogram" in text
        assert 'repro_latency_seconds_bucket{le="+Inf",op="search"}' \
            in text
        assert "repro_traces_recorded_total" in text
