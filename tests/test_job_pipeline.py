"""The substrate contract of ``QueryEngine.run_jobs``.

Every unit of engine work below a query -- whole queries, query
batches, detections, index builds -- is a ``(function,
args)`` job dispatched by one method onto one of two substrates: a
worker process (``backend="process"``) or the calling thread
(``backend="thread"``, and the floor the process substrate demotes
to).  This suite states what a dispatch promises *whichever substrate
runs it*: same values, same spans, the same latency accounting, the
same deadline, fault, retry and escape-hatch behaviour.  The jobs
leave their evidence in files, the one side channel that works across
a process boundary.
"""

import os
import time

import pytest

from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine import backends
from repro.engine import payloads as payload_plane
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.retry import DEFAULT_POLICY
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import QueryTimeoutError, WorkerKilledError

SUBSTRATES = {"inline": "thread", "process": "process"}


@pytest.fixture(params=sorted(SUBSTRATES))
def substrate(request):
    return request.param


@pytest.fixture
def make_engine(substrate):
    """Engines on the substrate under test, shut down afterwards."""
    engines = []

    def make(**kwargs):
        explorer = CExplorer(workers=2, backend=SUBSTRATES[substrate],
                             **kwargs)
        engines.append(explorer.engine)
        return explorer.engine

    yield make
    for engine in engines:
        engine.shutdown()


# -- jobs (module level: process jobs pickle by reference) -------------
def _square(x):
    from repro.engine import tracing
    with tracing.span("algorithm", algorithm="square"):
        return x * x


def _mark(path, value="ran"):
    """Append one line to ``path`` -- proof the job body ran."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{}\n".format(os.getpid()))
    return value


def _mark_then_die(path):
    _mark(path)
    raise WorkerKilledError("this job never survives")


def _runs(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return len(handle.readlines())
    except FileNotFoundError:
        return 0


def _worker_state():
    """What this process caches: worker-cache identities (with their
    versions) and payload-plane attachments."""
    return ({identity: version
             for identity, (version, _) in
             backends._WORKER_CACHE.items()},
            sorted(payload_plane._attached, key=str))


def _probe_plan(seed, kind, rate, param=None, limit=None):
    """A one-rule plan aimed at this suite's ``probe`` job class.
    Built directly: ``FaultPlan.from_spec`` only accepts targets that
    match a job class the engine itself dispatches."""
    return FaultPlan(seed, [FaultRule(kind, "probe", rate, param=param,
                                      limit=limit)])


def _counters(engine):
    return engine.snapshot()["resilience"]["counters"]


# ----------------------------------------------------------------------
# values, spans, accounting
# ----------------------------------------------------------------------
class TestDispatch:
    def test_values_in_job_order(self, make_engine):
        engine = make_engine()
        assert engine.run_jobs([(_square, (n,)) for n in range(6)],
                               op="probe") == [0, 1, 4, 9, 16, 25]
        assert engine.run_jobs([], op="probe") == []

    def test_span_tree_and_latency_accounting(self, make_engine,
                                              substrate):
        engine = make_engine()
        with engine.tracer.trace("probe") as trace:
            engine.run_jobs([(_square, (n,)) for n in range(3)],
                            op="probe")
        root, *spans = trace.to_dict()["spans"]
        assert root["name"] == "execute"
        # Identical on both substrates: per job one ``worker_execute``
        # (tagged with its index and the substrate) with the job's own
        # spans grafted under it, and one ``shard_ipc``.
        assert [span["name"] for span in spans] == \
            ["worker_execute", "algorithm", "shard_ipc"] * 3
        workers = [i for i, span in enumerate(spans)
                   if span["name"] == "worker_execute"]
        assert [spans[i]["tags"] for i in workers] == [
            {"job": n, "backend": substrate} for n in range(3)]
        for index in workers:     # parent indices count the root
            assert spans[index]["parent"] == 0
            assert spans[index + 1]["parent"] == index + 1
        doc = engine.snapshot()
        assert doc["latency"]["probe"]["count"] == 3
        assert doc["latency"]["shard_ipc"]["count"] == 3

    def test_index_build_is_a_job(self, make_engine, karate):
        engine = make_engine()
        core, tree = engine._build_in_process(karate)
        assert tree.graph is karate
        assert tree.community_vertices(0, 2)
        latency = engine.snapshot()["latency"]
        assert latency["index_build"]["count"] == 1
        assert latency["index_build_ipc"]["count"] == 1


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_expired_deadline_starts_no_job(self, make_engine,
                                            tmp_path):
        engine = make_engine()
        marker = str(tmp_path / "ran")

        def late_fanout():
            time.sleep(0.15)          # the job's deadline passes here
            return engine.run_jobs([(_mark, (marker,))] * 3,
                                   op="probe")

        future = engine.submit(late_fanout, timeout=0.05)
        with pytest.raises(QueryTimeoutError):
            future.result(30.0)
        time.sleep(0.1)               # nothing may trickle in later
        assert _runs(marker) == 0

    def test_deadline_ships_with_the_job(self, make_engine):
        engine = make_engine()

        def remaining():
            return engine.run_jobs([(_job_deadline, ())], op="probe")

        (wall,), = [engine.execute(remaining, timeout=30.0)]
        assert 0 < wall - time.time() <= 30.0
        assert engine.run_jobs([(_job_deadline, ())],
                               op="probe") == [None]


def _job_deadline():
    return getattr(backends._job_env, "deadline", None)


# ----------------------------------------------------------------------
# faults and retries
# ----------------------------------------------------------------------
class TestFaultsAndRetries:
    def test_injected_fault_is_one_shot_across_retries(
            self, make_engine, tmp_path):
        engine = make_engine(
            faults=_probe_plan(3, "error", 1.0))
        marker = str(tmp_path / "ran")
        # Attempt 1 dies to the injected fault *before* the job body;
        # the retry resubmits the pristine job and succeeds.
        assert engine.run_jobs([(_mark, (marker,))], op="probe") \
            == ["ran"]
        assert _runs(marker) == 1
        counters = _counters(engine)
        assert counters["retries"] == 1
        assert counters["faults_injected"] == 1

    def test_one_fault_draw_per_job_per_dispatch(self, make_engine):
        engine = make_engine(
            faults=_probe_plan(3, "delay", 0.5, param=0.001))
        reference = _probe_plan(3, "delay", 0.5, param=0.001)
        engine.run_jobs([(_square, (n,)) for n in range(8)],
                        op="probe")
        for _ in range(8):
            reference.draw("probe")
        assert engine.faults.injected() == reference.injected() > 0

    def test_exhausted_retries_surface_the_fault(self, make_engine,
                                                 tmp_path):
        engine = make_engine()
        marker = str(tmp_path / "ran")
        sibling = str(tmp_path / "sibling")
        with pytest.raises(WorkerKilledError):
            engine.run_jobs([(_mark_then_die, (marker,)),
                             (_mark, (sibling,))], op="probe")
        # Unknown job classes get DEFAULT_POLICY's budget.
        assert _runs(marker) == DEFAULT_POLICY.attempts
        counters = _counters(engine)
        assert counters["retries"] == DEFAULT_POLICY.attempts - 1
        assert counters["retry_exhausted"] == 1


# ----------------------------------------------------------------------
# the ladder: process -> inline
# ----------------------------------------------------------------------
class TestLadder:
    def test_unpicklable_job_runs_inline_pool_intact(
            self, make_engine, substrate, tmp_path):
        engine = make_engine()
        marker = str(tmp_path / "sibling")

        def local_job(value):         # a closure: it cannot ship
            return value()

        assert engine.run_jobs(
            [(_mark, (marker,)), (local_job, (lambda: "ran",)),
             (_mark, (marker,))], op="probe") == ["ran"] * 3
        assert _runs(marker) == 2
        shipped = substrate == "process"
        assert engine.stats.get("job_inline_fallbacks") == \
            (1 if shipped else 0)
        assert engine.stats.get("process_fallbacks") == 0
        assert engine.resilience.breakers["process"].state == "closed"
        if shipped:
            # The siblings still ran in the pool, not here.
            with open(marker, encoding="utf-8") as handle:
                assert str(os.getpid()) not in handle.read().split()

    def test_pool_break_demotes_then_probe_promotes(
            self, make_engine, substrate, tmp_path):
        engine = make_engine(
            faults=_probe_plan(5, "pool_break", 1.0, limit=5))
        breaker = engine.resilience.breakers["process"]
        breaker.cooldown = 0.2
        marker = str(tmp_path / "ran")
        jobs = [(_mark, (marker,))] * 2
        for _ in range(3):
            assert engine.run_jobs(jobs, op="probe") == ["ran"] * 2
        assert _runs(marker) == 6     # every job ran exactly once
        if substrate == "inline":
            # Nothing ships, so a pool fault has nothing to break.
            assert breaker.state == "closed"
            assert engine.stats.get("process_fallbacks") == 0
            return
        assert breaker.state == "open"
        assert engine.stats.get("process_fallbacks") == 3
        assert engine.run_jobs(jobs, op="probe") == ["ran"] * 2
        assert _counters(engine)["breaker_rejections"] >= 1
        time.sleep(0.25)
        assert engine.run_jobs(jobs, op="probe") == ["ran"] * 2
        assert breaker.state == "closed"
        assert breaker.snapshot()["promotions"] == 1

    def test_failed_job_still_reports_the_probe(self, tmp_path):
        """A half-open breaker's probe fan-out must report back even
        when one of its *jobs* fails -- the pool did its part."""
        engine = CExplorer(workers=1, backend="process").engine
        try:
            breaker = engine.resilience.breakers["process"]
            breaker.cooldown = 0.0
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            with pytest.raises(WorkerKilledError):
                engine.run_jobs(
                    [(_mark_then_die, (str(tmp_path / "ran"),))],
                    op="probe")
            assert breaker.state == "closed"
        finally:
            engine.shutdown()


# ----------------------------------------------------------------------
# worker-side state: one entry per payload identity
# ----------------------------------------------------------------------
class TestWorkerState:
    def test_version_bumps_replace_worker_entries(self, substrate):
        graph = generate_dblp_graph(
            DblpConfig(n_authors=300, n_communities=6, seed=7))
        explorer = CExplorer(workers=1,
                             backend=SUBSTRATES[substrate])
        engine = explorer.engine
        try:
            explorer.add_graph("g", graph)
            maintainer = explorer.maintainer()
            epoch = explorer.indexes._payload_epoch
            fringe = sorted(graph.vertices(),
                            key=lambda v: (graph.degree(v), v))[:12]
            inserted = 0
            for u in fringe:
                for v in fringe:
                    if u < v and not graph.has_edge(u, v) \
                            and inserted < 5:
                        maintainer.insert_edge(u, v)
                        inserted += 1
                        # Cache the new version's payload so the
                        # search runs as a job on either substrate.
                        explorer.indexes.full_payload("g")
                        assert explorer.search(
                            "acq", "jim gray", k=3, use_cache=False)
            assert inserted == 5
            (cache, attached), = engine.run_jobs(
                [(_worker_state, ())], op="probe")
            mine = {identity: version
                    for identity, version in cache.items()
                    if identity[0] == epoch}
            # One entry per identity, and it is the current version's,
            # whatever the number of versions that passed through.
            assert set(mine) == {(epoch, "g", "full")}
            assert mine[(epoch, "g", "full")] == \
                (explorer.indexes.version("g"),)
            if substrate == "process":
                assert [key for key in attached
                        if key[0] == epoch] == sorted(mine, key=str)
        finally:
            engine.shutdown()
        assert payload_plane.live_segments() == 0
