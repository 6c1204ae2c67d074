"""The engine's failure rule under chaos.

The load-bearing claim: under a seeded fault plan, every query
returns a result **byte-identical** to fault-free execution -- a job
whose attempt dies of an injected fault runs once more, inline and
fault-free -- and no future is ever left hanging.  Plus the machinery
around it: deterministic fault plans, discarding a corrupt payload,
cooperative worker deadlines, and the health/readiness serving
surfaces.  (How one dispatch applies the rule -- one-shot faults,
deadlines, the unpicklable-job escape -- is the substrate contract in
``test_job_pipeline.py``.)
"""

import json
import threading
import time

import pytest

from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine import backends
from repro.engine import payloads as payload_plane
from repro.engine.faults import (
    FaultPlan,
    FaultSpecError,
    corrupt_blob,
)
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import FaultInjectedError, QueryTimeoutError

VERTICES = ("jim gray", "michael stonebraker", "michael l. brodie",
            "bruce g. lindsay", "gerhard weikum")

_GRAPH = None


def _graph():
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = generate_dblp_graph(
            DblpConfig(n_authors=300, n_communities=6, seed=7))
    return _GRAPH


def _explorer(backend="thread", **kwargs):
    explorer = CExplorer(backend=backend, **kwargs)
    explorer.add_graph("dblp", _graph())
    return explorer


def _full_query(explorer, vertex, k):
    """One whole ``acq`` query as a ``full_query`` job.  The thread
    backend answers searches on the live graph, so this drives the job
    pipeline directly: on that backend the job runs inline."""
    return explorer.engine.search_full_query(
        "dblp", "acq", explorer.resolve_vertex(vertex), k)


def _canon(communities):
    return json.dumps([c.to_dict() for c in communities],
                      sort_keys=True)


def _fallbacks(explorer):
    return explorer.engine.stats.get("job_inline_fallbacks")


# ----------------------------------------------------------------------
# fault plans: grammar, determinism, draws
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "seed=7;kill:detect@0.05;delay:full_query@0.5=0.02;"
            "pool_break:*@1.0#3")
        assert plan.seed == 7
        assert [r.kind for r in plan.rules] == \
            ["kill", "delay", "pool_break"]
        assert plan.rules[1].param == 0.02
        assert plan.rules[2].limit == 3
        again = FaultPlan.from_spec(plan.to_spec())
        assert again.to_spec() == plan.to_spec()

    def test_json_spec(self):
        plan = FaultPlan.from_spec(json.dumps({
            "seed": 11,
            "rules": [{"kind": "kill", "target": "full_query",
                       "rate": 0.5, "limit": 2}],
        }))
        assert plan.seed == 11
        assert plan.rules[0].limit == 2

    def test_empty_spec_is_no_plan(self):
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec("   ") is None

    @pytest.mark.parametrize("bad", [
        "explode:shard@0.5",      # unknown kind
        "kill:shard@1.5",         # rate out of range
        "kill:shard",             # no rate
        "notarule",               # no structure
        "{not json",              # bad JSON
        "seed=x;kill:shard@0.5",  # bad seed
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(bad)

    def test_unknown_job_class_raises(self):
        # No job class is called "shard": a plan targeting it would
        # silently inject nothing.
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec("seed=1;kill:shard@0.05")
        with pytest.raises(FaultSpecError):
            FaultPlan.from_spec(json.dumps({
                "rules": [{"kind": "kill", "target": "shard*"}]}))
        # Patterns only need to match one dispatched class, and span
        # rules are exempt.
        assert FaultPlan.from_spec("kill:*query*@0.5")
        assert FaultPlan.from_spec("error:span:anything@0.5")

    def test_from_env(self):
        plan = FaultPlan.from_env(
            {"REPRO_FAULT_PLAN": "seed=3;kill:full_query@1.0"})
        assert plan.seed == 3
        assert FaultPlan.from_env({}) is None

    def test_draws_are_deterministic(self):
        spec = "seed=42;kill:full_query@0.3;delay:full_query@0.2=0.01"
        a = FaultPlan.from_spec(spec)
        b = FaultPlan.from_spec(spec)
        assert [a.draw("full_query") for _ in range(50)] == \
            [b.draw("full_query") for _ in range(50)]
        different = FaultPlan.from_spec(
            "seed=43;kill:full_query@0.3;delay:full_query@0.2=0.01")
        assert [a.draw("full_query") for _ in range(50)] != \
            [different.draw("full_query") for _ in range(50)]

    def test_rates_and_limits(self):
        always = FaultPlan.from_spec("kill:detect@1.0")
        assert all(always.draw("detect") == [("kill", None)]
                   for _ in range(10))
        never = FaultPlan.from_spec("kill:detect@0.0")
        assert all(never.draw("detect") is None for _ in range(10))
        capped = FaultPlan.from_spec("kill:detect@1.0#3")
        fired = [capped.draw("detect") for _ in range(10)]
        assert sum(1 for f in fired if f) == 3
        assert capped.injected("kill") == 3

    def test_target_pattern_scopes_ops(self):
        plan = FaultPlan.from_spec("kill:full_query*@1.0")
        assert plan.draw("full_query")
        assert plan.draw("detect") is None

    def test_corrupt_blob_always_detectable(self):
        import pickle
        blob = pickle.dumps({"a": 1, "b": [2, 3]})
        mangled = corrupt_blob(blob)
        assert mangled != blob
        with pytest.raises(Exception):
            pickle.loads(mangled)


# ----------------------------------------------------------------------
# cooperative worker deadlines
# ----------------------------------------------------------------------

class TestWorkerDeadlines:
    def test_check_deadline_raises_past_wall_deadline(self):
        backends.set_job_deadline(time.time() - 1.0)
        try:
            with pytest.raises(QueryTimeoutError):
                backends.check_deadline()
        finally:
            backends.set_job_deadline(None)
        backends.check_deadline()  # no deadline: no-op

    def test_expired_deadline_ships_into_process_worker(self):
        pool = backends.ProcessBackend(workers=1)
        try:
            future = pool.submit_job(backends.full_query_job,
                                     ("k", b"x", "acq", "v", 4, None),
                                     deadline=time.time() - 1.0)
            with pytest.raises(QueryTimeoutError):
                pool.job_result(future, 10.0)
        finally:
            pool.close()


# ----------------------------------------------------------------------
# one inline rerun absorbs an injected fault (identity preserved)
# ----------------------------------------------------------------------

class TestRetryAbsorption:
    def test_inline_fanout_retries_injected_kills(self):
        baseline = _explorer()
        expected = [_canon(baseline.search("acq", v, k=3))
                    for v in VERTICES]
        # the first four jobs' first attempts die; one fault-free
        # rerun each absorbs them all
        chaotic = _explorer(
            faults=FaultPlan.from_spec("seed=1;kill:full_query@1.0#4"))
        got = [_canon(_full_query(chaotic, v, 3)) for v in VERTICES]
        assert got == expected
        assert _fallbacks(chaotic) == 4
        assert chaotic.engine.faults.injected() == 4

    def test_process_full_query_retries_injected_kills(self):
        baseline = _explorer()
        expected = _canon(baseline.search("acq", VERTICES[0], k=3))
        chaotic = _explorer(
            backend="process",
            faults=FaultPlan.from_spec("seed=2;kill:full_query@1.0#2"))
        try:
            assert _canon(chaotic.search("acq", VERTICES[0], k=3)) \
                == expected
            assert _fallbacks(chaotic) == 1
        finally:
            chaotic.engine.shutdown()

    def test_span_fault_fires_inside_named_span(self):
        from repro.engine import tracing
        explorer = _explorer(
            faults=FaultPlan.from_spec("seed=4;error:span:execute@1.0"))
        engine = explorer.engine
        assert tracing._fault_hook is not None
        with pytest.raises(FaultInjectedError):
            engine.wait(engine.submit(lambda: 1, op="probe"))
        engine.shutdown()
        # shutdown uninstalls only its own hook
        assert tracing._fault_hook is None


# ----------------------------------------------------------------------
# a broken pool: each refused job runs inline, the pool comes back
# ----------------------------------------------------------------------

class TestBreakerDegradation:
    def test_pool_breaks_demote_then_probe_promotes(self):
        """Every query the broken pool refuses still answers, from one
        inline rerun; every dispatch tries the pool first, so once
        the faults stop the pool serves again."""
        explorer = _explorer(
            backend="process",
            faults=FaultPlan.from_spec(
                "seed=5;pool_break:full_query@1.0#3"))
        engine = explorer.engine
        baseline = _explorer()
        expected = {v: _canon(baseline.search("acq", v, k=3))
                    for v in VERTICES}
        try:
            for v in VERTICES[:3]:
                assert _canon(explorer.search("acq", v, k=3)) \
                    == expected[v]
            assert _fallbacks(explorer) == 3
            for v in VERTICES[3:]:
                assert _canon(explorer.search("acq", v, k=3)) \
                    == expected[v]
            assert _fallbacks(explorer) == 3
        finally:
            engine.shutdown()
        assert payload_plane.live_segments() == 0


# ----------------------------------------------------------------------
# corruption: the payload is discarded, the job reruns inline
# ----------------------------------------------------------------------

class TestCorruptionQuarantine:
    def test_corrupt_payload_discarded_and_query_recovers(self):
        baseline = _explorer()
        expected = _canon(baseline.search("acq", VERTICES[0], k=3))
        explorer = _explorer(
            backend="process",
            faults=FaultPlan.from_spec(
                "seed=6;corrupt:full_query@1.0#1"))
        engine = explorer.engine
        try:
            assert _canon(explorer.search("acq", VERTICES[0], k=3)) \
                == expected
            assert _fallbacks(explorer) == 1
            # the poisoned payload is gone: the next query re-freezes
            _, fresh = engine.indexes.full_payload("dblp")
            assert fresh
        finally:
            engine.shutdown()
        assert payload_plane.live_segments() == 0

    def test_discard_payload_drops_cached_copy(self):
        explorer = _explorer()
        engine = explorer.engine
        payload, _ = engine.indexes.full_payload("dblp")
        assert engine.indexes.discard_payload(payload.key)
        assert not engine.indexes.discard_payload(payload.key)


# ----------------------------------------------------------------------
# the chaos property: worker kills and delays, identity every time
# ----------------------------------------------------------------------

class TestChaosProperty:
    def test_seeded_kill_plan_preserves_results_no_hung_futures(self):
        baseline = _explorer()
        queries = [("acq", v, k) for v in VERTICES for k in (3, 4)] * 2
        expected = [_canon(baseline.search(a, v, k=k))
                    for a, v, k in queries]
        chaotic = _explorer(
            faults=FaultPlan.from_spec(
                "seed=13;kill:full_query@0.05;"
                "delay:full_query@0.05=0.005"))
        engine = chaotic.engine
        futures = [engine.submit(_full_query, chaotic, v, k,
                                 op="search", timeout=30.0)
                   for _, v, k in queries]
        got = [_canon(future.result(30.0)) for future in futures]
        # A rerun is pristine, so no injected fault can surface: every
        # answer is the fault-free one.
        assert got == expected
        assert all(f.done() for f in futures)
        snapshot = engine.snapshot()
        assert snapshot["fault_plan"]["injected"]
        assert engine.faults.injected() > 0


# ----------------------------------------------------------------------
# serving surfaces: /v1/health, /v1/ready, failure-rule metrics
# ----------------------------------------------------------------------

def _serve(explorer):
    from repro.server.app import make_server
    server = make_server(explorer, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _get(server, path):
    import urllib.error
    import urllib.request
    url = "http://127.0.0.1:{}{}".format(server.server_address[1],
                                         path)
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestServingSurfaces:
    def test_health_and_ready_endpoints(self):
        explorer = _explorer()
        server = _serve(explorer)
        try:
            status, doc = _get(server, "/v1/health")
            assert status == 200
            assert doc["data"]["status"] == "ok"
            assert set(doc["data"]) == {"status", "uptime_seconds",
                                        "backend"}
            status, doc = _get(server, "/v1/ready")
            assert status == 200
            assert doc["data"]["ready"] is True
        finally:
            server.shutdown()

    def test_ready_flips_to_503_not_ready(self):
        explorer = _explorer()
        server = _serve(explorer)
        try:
            explorer.engine.shutdown()
            status, doc = _get(server, "/v1/ready")
            assert status == 503
            assert doc["error"]["code"] == "not_ready"
            # liveness still answers
            status, _ = _get(server, "/v1/health")
            assert status == 200
        finally:
            server.shutdown()

    def test_metrics_resilience_block_schema(self):
        """What is left of the resilience block: the rerun counter
        among the engine counters, and the installed plan."""
        doc = _explorer(faults=FaultPlan()).engine.snapshot()
        assert "resilience" not in doc
        assert doc["counters"]["job_inline_fallbacks"] == 0
        assert doc["fault_plan"] == {"seed": 0, "rules": [],
                                     "injected": {}}
        plan = FaultPlan.from_spec("seed=3;kill:detect@0.5")
        doc = _explorer(faults=plan).engine.snapshot()
        assert doc["fault_plan"]["rules"] == ["kill:detect@0.5"]

    def test_prometheus_exports_resilience_series(self):
        from repro.engine.tracing import render_prometheus
        explorer = _explorer(
            faults=FaultPlan.from_spec("seed=10;kill:full_query@1.0#1"))
        _full_query(explorer, VERTICES[0], 3)
        text = render_prometheus(
            {"engine": explorer.engine.snapshot()})
        assert 'repro_engine_events_total{event="job_inline_fallbacks"}' \
            ' 1\n' in text
        assert "repro_resilience" not in text

    def test_engine_busy_queue_makes_not_ready(self):
        explorer = CExplorer(workers=1, max_queue=1)
        explorer.add_graph("dblp", _graph())
        engine = explorer.engine
        release = threading.Event()
        engine.submit(release.wait, op="wedge")   # occupies the worker
        try:
            for _ in range(200):                  # wait for the claim
                if engine._in_flight:
                    break
                time.sleep(0.005)
            engine.submit(release.wait, op="wedge")  # fills the queue
            assert not engine.accepting
        finally:
            release.set()
            engine.shutdown()


# ----------------------------------------------------------------------
# plumbing: env plan pickup, fixture, CLI parsing
# ----------------------------------------------------------------------

class TestInstallation:
    def test_engine_picks_up_env_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=21;kill:full_query@0.1")
        explorer = CExplorer()
        assert explorer.engine.faults is not None
        assert explorer.engine.faults.seed == 21

    def test_explicit_plan_beats_env(self, monkeypatch, fault_plan):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "seed=21;kill:full_query@0.1")
        explorer = CExplorer(faults=fault_plan("seed=5;drop:full_query@0.2"))
        assert explorer.engine.faults.seed == 5

    def test_fixture_builds_plans(self, fault_plan):
        plan = fault_plan("seed=7;kill:full_query@0.05")
        assert isinstance(plan, FaultPlan)

    def test_cli_fault_plan_flag(self, tmp_path, capsys):
        from repro import cli
        graph_path = tmp_path / "g.json"
        from repro.graph.io import write_graph_json
        write_graph_json(_graph(), str(graph_path))
        rc = cli.main(["search", "--graph", str(graph_path),
                       "--vertex", VERTICES[0], "-k", "3",
                       "--fault-plan", "seed=2;kill:full_query@1.0#1",
                       "--json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out
