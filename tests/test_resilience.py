"""The fault-tolerant execution plane: chaos properties.

The load-bearing claim: under a seeded fault plan, every query either
returns a result **byte-identical** to fault-free execution (retries,
hedges and substrate fallbacks absorbed the fault) or fails fast with
a stable error from the registered taxonomy -- and no future is ever
left hanging.  Plus the machinery itself: deterministic fault plans,
retry backoff, circuit-breaker demotion/re-promotion, payload
quarantine, cooperative worker deadlines, and the health/readiness
serving surfaces.  (How one dispatch applies them -- one-shot faults,
retry budgets, deadlines, the unpicklable-job escape -- is the
substrate contract in ``test_job_pipeline.py``.)
"""

import json
import threading
import time

import pytest

from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine import backends
from repro.engine.faults import (
    FaultPlan,
    FaultSpecError,
    corrupt_blob,
)
from repro.engine.retry import (
    POLICIES,
    RETRYABLE,
    CircuitBreaker,
    RetryPolicy,
)
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import (
    CExplorerError,
    FaultInjectedError,
    PayloadCorruptionError,
    QueryTimeoutError,
    WorkerKilledError,
)

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


def _inline_job_explorer(**kwargs):
    """A thread-backend explorer whose searches run as inline
    ``full_query`` jobs: once the frozen payload is cached the planner
    routes every built-in algorithm through the job pipeline."""
    explorer = _explorer(**kwargs)
    explorer.indexes.full_payload("dblp")
    return explorer


def _canon(communities):
    return json.dumps([c.to_dict() for c in communities],
                      sort_keys=True)


def _resilience(explorer):
    return explorer.engine.snapshot()["resilience"]


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
        assert FaultPlan.from_spec("kill:*batch*@0.5")
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
        assert plan.draw("full_query_batch")
        assert plan.draw("detect") is None

    def test_corrupt_blob_always_detectable(self):
        import pickle
        blob = pickle.dumps({"a": 1, "b": [2, 3]})
        mangled = corrupt_blob(blob)
        assert mangled != blob
        with pytest.raises(Exception):
            pickle.loads(mangled)


# ----------------------------------------------------------------------
# retry policy + circuit breaker mechanics
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_caps_and_jitters_deterministically(self):
        policy = RetryPolicy(attempts=5, base_delay=0.01,
                             max_delay=0.05)
        delays = [policy.backoff(n, token="full_query:0")
                  for n in range(1, 6)]
        assert delays == [policy.backoff(n, token="full_query:0")
                          for n in range(1, 6)]
        # capped exponential: never above max_delay * 1.5 (jitter)
        assert all(d <= 0.05 * 1.5 for d in delays)
        assert delays[0] < delays[2]
        assert delays != [policy.backoff(n, token="full_query:1")
                          for n in range(1, 6)]

    def test_job_class_policies(self):
        assert POLICIES["full_query"].hedge
        assert not POLICIES["full_query_batch"].hedge
        assert not POLICIES["detect"].hedge
        assert all(issubclass(exc, CExplorerError) for exc in RETRYABLE)


class TestCircuitBreaker:
    def test_opens_probes_and_promotes(self):
        breaker = CircuitBreaker("process", failure_threshold=3,
                                 cooldown=0.05)
        assert breaker.allow() is True
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False
        time.sleep(0.06)
        assert breaker.allow() == "probe"
        # only one probe in flight
        assert breaker.allow() is False
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() is True
        doc = breaker.snapshot()
        assert doc["opens"] == 1
        assert doc["promotions"] == 1
        assert doc["degraded_seconds"] > 0

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker("process", failure_threshold=2,
                                 cooldown=0.05)
        breaker.record_failure()
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow() == "probe"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.allow() is False

    def test_success_resets_consecutive_count(self):
        # sparse failures (well under the windowed error rate) never
        # open the breaker, however many accumulate in total
        breaker = CircuitBreaker("process", failure_threshold=3)
        for _ in range(10):
            breaker.record_failure()
            breaker.record_success()
            breaker.record_success()
            breaker.record_success()
        assert breaker.state == "closed"

    def test_windowed_error_rate_opens_without_consecutive(self):
        breaker = CircuitBreaker("process", failure_threshold=3,
                                 window=8, error_rate=0.5)
        for _ in range(8):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == "open"


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
# retries absorb injected faults (identity preserved)
# ----------------------------------------------------------------------

class TestRetryAbsorption:
    def test_inline_fanout_retries_injected_kills(self):
        baseline = _explorer()
        expected = [_canon(baseline.search("acq", v, k=3))
                    for v in VERTICES]
        # the first four inline jobs' first attempts die; retries
        # absorb all
        chaotic = _inline_job_explorer(
            faults=FaultPlan.from_spec("seed=1;kill:full_query@1.0#4"))
        got = [_canon(chaotic.search("acq", v, k=3))
               for v in VERTICES]
        assert got == expected
        counters = _resilience(chaotic)["counters"]
        assert counters["retries"] >= 4
        assert counters["faults_injected"] == 4

    def test_process_full_query_retries_injected_kills(self):
        baseline = _explorer()
        expected = _canon(baseline.search("acq", VERTICES[0], k=3))
        chaotic = _explorer(
            backend="process",
            faults=FaultPlan.from_spec("seed=2;kill:full_query@1.0#2"))
        try:
            assert _canon(chaotic.search("acq", VERTICES[0], k=3)) \
                == expected
            counters = _resilience(chaotic)["counters"]
            assert counters["retries"] >= 1
        finally:
            chaotic.engine.shutdown()

    def test_span_fault_fires_inside_named_span(self):
        from repro.engine import tracing
        explorer = _explorer(
            faults=FaultPlan.from_spec("seed=4;error:span:execute@1.0"))
        engine = explorer.engine
        assert tracing._fault_hook is not None
        with pytest.raises(FaultInjectedError):
            engine.execute(lambda: 1, op="probe")
        engine.shutdown()
        # shutdown uninstalls only its own hook
        assert tracing._fault_hook is None


# ----------------------------------------------------------------------
# degradation ladder: process -> inline -> promotion back
# ----------------------------------------------------------------------

class TestBreakerDegradation:
    def test_pool_breaks_demote_then_probe_promotes(self):
        explorer = _explorer(
            backend="process",
            faults=FaultPlan.from_spec(
                "seed=5;pool_break:full_query@1.0#3"))
        engine = explorer.engine
        breaker = engine.resilience.breakers["process"]
        breaker.cooldown = 0.2
        baseline = _explorer()
        expected = {v: _canon(baseline.search("acq", v, k=3))
                    for v in VERTICES}
        try:
            # three broken dispatches: every query still answers
            # (inline fallback), then the breaker is open
            for v in VERTICES[:3]:
                assert _canon(explorer.search("acq", v, k=3)) \
                    == expected[v]
            assert breaker.state == "open"
            # while open: the process pool is skipped, results intact
            assert _canon(explorer.search("acq", VERTICES[3], k=3)) \
                == expected[VERTICES[3]]
            assert _resilience(explorer)["degraded"]
            # after the cooldown the probe fan-out re-promotes
            time.sleep(0.25)
            assert _canon(explorer.search("acq", VERTICES[4], k=3)) \
                == expected[VERTICES[4]]
            assert breaker.state == "closed"
            doc = breaker.snapshot()
            assert doc["opens"] == 1
            assert doc["promotions"] == 1
            assert not _resilience(explorer)["degraded"]
        finally:
            engine.shutdown()


# ----------------------------------------------------------------------
# corruption: quarantine, not breaker food
# ----------------------------------------------------------------------

class TestCorruptionQuarantine:
    def test_corrupt_payload_quarantined_and_query_recovers(self):
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
            doc = _resilience(explorer)
            assert doc["counters"]["quarantines"] == 1
            assert doc["quarantined"] == 1
            # corruption must NOT have condemned the substrate
            assert doc["breakers"]["process"]["state"] == "closed"
        finally:
            engine.shutdown()

    def test_discard_payload_drops_cached_copy(self):
        explorer = _explorer()
        engine = explorer.engine
        payload, _ = engine.indexes.full_payload("dblp")
        assert engine.indexes.discard_payload(payload.key)
        assert not engine.indexes.discard_payload(payload.key)


# ----------------------------------------------------------------------
# hedging
# ----------------------------------------------------------------------

class TestHedging:
    def test_straggler_gets_hedged_duplicate(self):
        explorer = _explorer(
            backend="process",
            faults=FaultPlan.from_spec(
                "seed=8;delay:full_query@1.0=0.4#1"))
        engine = explorer.engine
        try:
            # warm the latency history so p95 is trusted (and tiny)
            for _ in range(25):
                engine.stats.observe("full_query", 0.002)
            start = time.perf_counter()
            explorer.search("acq", VERTICES[0], k=3)
            elapsed = time.perf_counter() - start
            counters = _resilience(explorer)["counters"]
            assert counters["hedges"] == 1
            assert counters["hedges_won"] \
                + counters["hedges_lost"] == 1
            # the hedge answered well before the 0.4s delay resolved
            assert elapsed < 0.4
        finally:
            engine.shutdown()

    def test_batch_jobs_never_hedge(self):
        assert not POLICIES["full_query_batch"].hedge


# ----------------------------------------------------------------------
# blast radius: batch member isolation
# ----------------------------------------------------------------------

class TestBatchMemberIsolation:
    def test_failed_member_retried_solo_group_survives(self):
        from repro.engine.batching import QueryBatcher
        baseline = _explorer()
        queries = [("acq", v, 3) for v in VERTICES[:4]]
        expected = [_canon(baseline.search(a, v, k=k))
                    for a, v, k in queries]
        explorer = _explorer(
            backend="process",
            faults=FaultPlan.from_spec("seed=9;kill:batch_member@0.5"))
        batcher = QueryBatcher(explorer, window=0.02)
        try:
            futures = [batcher.submit(a, v, k=k)
                       for a, v, k in queries]
            got = [_canon(f.result(60.0)) for f in futures]
            assert got == expected
            counters = _resilience(explorer)["counters"]
            assert counters["batch_member_retries"] >= 1
        finally:
            batcher.close()
            explorer.engine.shutdown()


# ----------------------------------------------------------------------
# the chaos property: 5% worker kills, identity or stable failure
# ----------------------------------------------------------------------

class TestChaosProperty:
    def test_seeded_kill_plan_preserves_results_no_hung_futures(self):
        baseline = _explorer()
        queries = [("acq", v, k) for v in VERTICES for k in (3, 4)] * 2
        expected = [_canon(baseline.search(a, v, k=k))
                    for a, v, k in queries]
        chaotic = _inline_job_explorer(
            faults=FaultPlan.from_spec(
                "seed=13;kill:full_query@0.05;"
                "delay:full_query@0.05=0.005"))
        engine = chaotic.engine
        futures = [engine.search(a, v, k=k, timeout=30.0)
                   for a, v, k in queries]
        identical = 0
        failures = []
        for future, want in zip(futures, expected):
            try:
                got = _canon(future.result(30.0))
            except CExplorerError as exc:
                failures.append(exc)
            else:
                identical += got == want
        # every future resolved one way or the other: nothing hangs
        assert all(f.done() for f in futures)
        assert identical / len(queries) >= 0.99
        for exc in failures:
            assert isinstance(exc, (WorkerKilledError,
                                    QueryTimeoutError))
        doc = _resilience(chaotic)
        assert doc["fault_plan"]["injected"]
        assert doc["counters"]["faults_injected"] > 0


# ----------------------------------------------------------------------
# serving surfaces: /v1/health, /v1/ready, resilience metrics
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
            assert doc["data"]["degraded"] is False
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
        from repro.engine.retry import ResiliencePlane
        explorer = _explorer()
        doc = explorer.engine.snapshot()["resilience"]
        assert set(doc["counters"]) == set(ResiliencePlane.COUNTER_KEYS)
        assert set(doc["breakers"]) == {"process"}
        for breaker in doc["breakers"].values():
            assert {"state", "opens", "probes", "promotions",
                    "degraded_seconds"} <= set(breaker)
        assert doc["quarantined"] == 0
        assert doc["degraded"] is False

    def test_prometheus_exports_resilience_series(self):
        from repro.engine.tracing import render_prometheus
        explorer = _explorer(
            faults=FaultPlan.from_spec("seed=10;kill:full_query@1.0#1"))
        explorer.search("acq", VERTICES[0], k=3)
        text = render_prometheus(
            {"engine": explorer.engine.snapshot()})
        assert "repro_resilience_events_total" in text
        assert 'repro_breaker_state{backend="process"}' in text
        assert "repro_breaker_degraded_seconds_total" in text
        assert "repro_quarantined_payloads" in text

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
