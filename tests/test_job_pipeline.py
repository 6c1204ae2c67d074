"""The substrate contract of ``QueryEngine.run_job``.

A whole ACQ search on the frozen payload is a ``(function, args)`` job
run by one method on one of two substrates: a worker process
(``backend="process"``) or the calling thread (``backend="thread"``,
and where a job the pool cannot finish runs once more).  This suite
states what a run promises *whichever substrate runs it*: same values,
same spans, the same latency accounting, the same deadline, fault and
failure-rule behaviour.  The jobs leave their evidence in files, the
one side channel that works across a process boundary.
"""

import os
import signal
import time

import pytest

from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine import backends
from repro.engine import payloads as payload_plane
from repro.engine.faults import FaultPlan, FaultRule
from repro.engine.stats import RECENT_WINDOW_SECONDS
from repro.explorer.cexplorer import CExplorer
from repro.util.errors import QueryTimeoutError, WorkerKilledError

SUBSTRATES = {"inline": "thread", "process": "process"}


@pytest.fixture(params=sorted(SUBSTRATES))
def substrate(request):
    return request.param


@pytest.fixture
def make_engine(substrate):
    """Engines on the substrate under test, shut down afterwards.
    Unless a test installs its own plan, none is installed -- not even
    one from the environment -- so fallback counts are exact."""
    engines = []

    def make(**kwargs):
        kwargs.setdefault("faults", FaultPlan())
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


def _mark_then_type_error(path):
    _mark(path)
    return 1 + "x"


_PARENT_PID = os.getpid()


def _mark_then_kill_worker(path, value):
    """Kill the worker process running this job (never the parent)."""
    _mark(path)
    if os.getpid() != _PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


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


def _plan(seed, kind, rate, param=None, limit=None):
    """A one-rule plan aimed at the one job class, ``full_query``."""
    return FaultPlan(seed, [FaultRule(kind, "full_query", rate,
                                      param=param, limit=limit)])


# ----------------------------------------------------------------------
# values, spans, accounting
# ----------------------------------------------------------------------
class TestDispatch:
    def test_returns_the_jobs_value(self, make_engine):
        engine = make_engine()
        assert [engine.run_job(_square, (n,)) for n in range(4)] == \
            [0, 1, 4, 9]

    def test_span_tree_and_latency_accounting(self, make_engine,
                                              substrate):
        engine = make_engine()
        with engine.tracer.trace("probe") as trace:
            for n in range(3):
                engine.run_job(_square, (n,))
        root, *spans = trace.to_dict()["spans"]
        assert root["name"] == "execute"
        # Identical on both substrates: per job one ``worker_execute``
        # (tagged with the substrate) with the job's own spans grafted
        # under it, and one ``shard_ipc``.
        assert [span["name"] for span in spans] == \
            ["worker_execute", "algorithm", "shard_ipc"] * 3
        workers = [i for i, span in enumerate(spans)
                   if span["name"] == "worker_execute"]
        assert [spans[i]["tags"] for i in workers] == \
            [{"backend": substrate}] * 3
        for index in workers:     # parent indices count the root
            assert spans[index]["parent"] == 0
            assert spans[index + 1]["parent"] == index + 1
        doc = engine.snapshot()
        assert doc["latency"]["full_query"]["count"] == 3
        assert doc["latency"]["shard_ipc"]["count"] == 3

    def test_only_admitted_jobs_count_toward_throughput(self,
                                                        make_engine):
        engine = make_engine()
        engine.wait(engine.submit(
            lambda: [engine.run_job(_square, (n,)) for n in range(3)]))
        engine.stats.started_at -= RECENT_WINDOW_SECONDS
        doc = engine.snapshot()
        # The jobs and their ``shard_ipc`` are latency samples inside
        # the one admitted job, not completions.
        assert doc["latency"]["full_query"]["count"] == 3
        assert doc["latency"]["shard_ipc"]["count"] == 3
        assert doc["throughput_recent_per_second"] == \
            round(1 / RECENT_WINDOW_SECONDS, 4)

    def test_index_build_is_no_job(self, make_engine, karate):
        """A CL-tree build runs on the calling thread under either
        backend, over the live graph: no job, no job latency."""
        engine = make_engine()
        engine.explorer.add_graph("k", karate)
        tree = engine.explorer.index()
        assert tree.graph is karate
        assert tree.community_vertices(0, 2)
        latency = engine.snapshot()["latency"]
        assert "index_build" not in latency
        assert "full_query" not in latency


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
class TestDeadline:
    def test_expired_deadline_starts_no_job(self, make_engine,
                                            tmp_path):
        engine = make_engine()
        marker = str(tmp_path / "ran")

        def late_job():
            time.sleep(0.15)          # the job's deadline passes here
            return engine.run_job(_mark, (marker,))

        future = engine.submit(late_job, timeout=0.05)
        with pytest.raises(QueryTimeoutError):
            future.result(30.0)
        time.sleep(0.1)               # nothing may trickle in later
        assert _runs(marker) == 0

    def test_deadline_ships_with_the_job(self, make_engine):
        engine = make_engine()

        def remaining():
            return engine.run_job(_job_deadline, ())

        wall = engine.wait(engine.submit(remaining, timeout=30.0), 30.0)
        assert 0 < wall - time.time() <= 30.0
        assert engine.run_job(_job_deadline, ()) is None

    def test_index_build_ships_no_deadline(self, make_engine, karate,
                                           monkeypatch):
        """A build slower than its caller's deadline still finishes
        and is installed: it runs on the caller's thread, outside the
        job pipeline, and nothing hands it a deadline -- the graph
        must not become unbuildable."""
        from repro.engine import index_manager

        build = index_manager.build_cltree

        def slow_build(*args, **kwargs):
            time.sleep(0.2)
            return build(*args, **kwargs)

        monkeypatch.setattr(index_manager, "build_cltree", slow_build)
        engine = make_engine()
        engine.explorer.add_graph("k", karate)
        future = engine.submit(engine.explorer.index, timeout=0.05)
        assert future.result(30.0).graph is karate
        assert engine.indexes.record("k").cltree is not None


def _job_deadline():
    return getattr(backends._job_env, "deadline", None)


# ----------------------------------------------------------------------
# faults and the failure rule
# ----------------------------------------------------------------------
class TestFaultsAndRetries:
    def test_injected_fault_is_one_shot_across_retries(
            self, make_engine, tmp_path):
        engine = make_engine(faults=_plan(3, "error", 1.0))
        marker = str(tmp_path / "ran")
        # The first attempt dies to the injected fault *before* the job
        # body; the inline rerun carries no faults and succeeds.
        assert engine.run_job(_mark, (marker,)) == "ran"
        assert _runs(marker) == 1
        assert engine.stats.get("job_inline_fallbacks") == 1
        assert engine.faults.injected() == 1

    def test_one_fault_draw_per_job_per_dispatch(self, make_engine):
        engine = make_engine(faults=_plan(3, "delay", 0.5, param=0.001))
        reference = _plan(3, "delay", 0.5, param=0.001)
        for n in range(8):
            engine.run_job(_square, (n,))
        for _ in range(8):
            reference.draw("full_query")
        assert engine.faults.injected() == reference.injected() > 0

    def test_exhausted_retries_surface_the_fault(self, make_engine,
                                                 tmp_path):
        engine = make_engine()
        marker = str(tmp_path / "ran")
        with pytest.raises(WorkerKilledError):
            engine.run_job(_mark_then_die, (marker,))
        # One attempt on the substrate, one inline rerun, no more.
        assert _runs(marker) == 2
        assert engine.stats.get("job_inline_fallbacks") == 1

    def test_worker_type_error_is_the_jobs_own(self, make_engine,
                                               tmp_path):
        """A ``TypeError`` the job body raises is not a pickling
        failure: it propagates as itself, and the body ran once."""
        engine = make_engine()
        marker = str(tmp_path / "ran")
        with pytest.raises(TypeError):
            engine.run_job(_mark_then_type_error, (marker,))
        assert _runs(marker) == 1
        assert engine.stats.get("job_inline_fallbacks") == 0


# ----------------------------------------------------------------------
# the failure rule on the pool: one inline rerun per failed job
# ----------------------------------------------------------------------
class TestLadder:
    def test_unpicklable_job_runs_inline_pool_intact(
            self, make_engine, substrate, tmp_path):
        engine = make_engine()
        marker = str(tmp_path / "shipped")

        def local_job(value):         # a closure: it cannot ship
            return value()

        assert [engine.run_job(_mark, (marker,)),
                engine.run_job(local_job, (lambda: "ran",)),
                engine.run_job(_mark, (marker,))] == ["ran"] * 3
        assert _runs(marker) == 2
        shipped = substrate == "process"
        assert engine.stats.get("job_inline_fallbacks") == \
            (1 if shipped else 0)
        if shipped:
            # The jobs around it still ran in the pool, not here.
            with open(marker, encoding="utf-8") as handle:
                assert str(os.getpid()) not in handle.read().split()

    def test_pool_break_demotes_then_probe_promotes(
            self, make_engine, substrate, tmp_path):
        """Each job the broken pool refuses is demoted to one inline
        run; every job tries the pool first, so the first one after
        the faults stop is back on it."""
        engine = make_engine(faults=_plan(5, "pool_break", 1.0, limit=5))
        marker = str(tmp_path / "ran")
        for _ in range(6):
            assert engine.run_job(_mark, (marker,)) == "ran"
        assert _runs(marker) == 6     # every job ran exactly once
        # Nothing ships inline, so a pool fault has nothing to break.
        broken = 5 if substrate == "process" else 0
        assert engine.stats.get("job_inline_fallbacks") == broken
        # The plan is spent: the next job runs on the pool again.
        assert engine.run_job(_mark, (marker,)) == "ran"
        assert engine.stats.get("job_inline_fallbacks") == broken

    def test_worker_death_reruns_inline_on_a_fresh_pool(self,
                                                        tmp_path):
        """A job that SIGKILLs its worker: the pool dies under it, it
        reruns inline, and the next job gets a fresh pool."""
        engine = CExplorer(workers=2, backend="process",
                           faults=FaultPlan()).engine
        marker = str(tmp_path / "job")
        try:
            assert engine.run_job(_mark_then_kill_worker,
                                  (marker, 2)) == 2
            assert _runs(marker) == 2     # the worker's run, the rerun
            assert engine.stats.get("job_inline_fallbacks") == 1
            assert engine.run_job(_square, (4,)) == 16
            assert engine.stats.get("job_inline_fallbacks") == 1
        finally:
            engine.shutdown()
        assert payload_plane.live_segments() == 0


# ----------------------------------------------------------------------
# worker-side state: one entry per payload identity
# ----------------------------------------------------------------------
class TestWorkerState:
    def test_version_bumps_replace_worker_entries(self, substrate):
        graph = generate_dblp_graph(
            DblpConfig(n_authors=300, n_communities=6, seed=7))
        # No faults: a job killed on its last dispatch would rerun in
        # the parent, leaving the worker one version behind.
        explorer = CExplorer(workers=1,
                             backend=SUBSTRATES[substrate],
                             faults=FaultPlan())
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
                        assert engine.search_full_query(
                            "g", "acq", graph.id_of("Jim Gray"), 3)
            assert inserted == 5
            cache, attached = engine.run_job(_worker_state, ())
            mine = {identity: version
                    for identity, version in cache.items()
                    if identity[0] == epoch}
            # One entry per identity, and it is the current version's,
            # whatever the number of versions that passed through.
            assert set(mine) == {(epoch, "g", "full")}
            assert mine[(epoch, "g", "full")] == \
                (explorer.indexes.record("g").version,)
            if substrate == "process":
                assert [key for key in attached
                        if key[0] == epoch] == sorted(mine, key=str)
        finally:
            engine.shutdown()
        assert payload_plane.live_segments() == 0
