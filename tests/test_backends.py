"""Tests for the execution-backend abstraction (repro.engine.backends).

The load-bearing invariants:

* **equivalence** -- the process backend returns results identical to
  the thread backend, keywords or not, property-tested over random
  graphs;
* **payload lifecycle** -- whole-graph snapshots are frozen once per
  (graph, version) and invalidated exactly when maintenance bumps the
  version, so process results track mutations;
* **index builds** -- CL-tree builds run on the caller's thread under
  either backend, over the live graph;
* **fallback** -- a thread-backend engine runs the same job
  inline, and a job the pool cannot finish runs once more in-process
  instead of failing the query.

The dispatch contract both substrates share is
``test_job_pipeline.py``'s.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from repro.engine import backends
from repro.engine.backends import (
    BACKENDS,
    ProcessBackend,
    full_query_job,
    validate_backend,
)
from repro.core.kcore import core_decomposition
from repro.explorer.cexplorer import CExplorer
from repro.graph.frozen import freeze
from repro.util.errors import EngineError

from conftest import random_graphs


# A launcher in miniature: the main thread blocks reading stdin while
# a server thread answers the first ACQ search under the process
# backend.  The parent holds stdin open until the child exits.
_STDIN_LAUNCHER = """
import multiprocessing, os, sys, threading
from repro import CExplorer
from repro.datasets import karate_club_graph
from repro.engine.faults import FaultPlan

explorer = CExplorer(workers=1, backend="process", faults=FaultPlan())
explorer.add_graph("k", karate_club_graph())

def serve():
    engine = explorer.engine
    try:
        engine.wait(engine.search("acq", 0, k=2, timeout=10.0), 10.0)
        print("answered", engine.stats.get("worker_full_query"))
    except Exception as exc:
        print("failed", type(exc).__name__)
    sys.stdout.flush()
    for child in multiprocessing.active_children():
        child.kill()
    os._exit(0)

threading.Thread(target=serve).start()
sys.stdin.read()
"""


def _equivalent(plain, other, queries, algorithms=("global", "acq")):
    for q, k in queries:
        for algorithm in algorithms:
            expected = plain.search(algorithm, q, k=k, use_cache=False)
            got = other.search(algorithm, q, k=k, use_cache=False)
            assert got == expected, (algorithm, q, k)


# ----------------------------------------------------------------------
# configuration surface
# ----------------------------------------------------------------------
class TestBackendConfig:
    def test_backend_names(self):
        assert validate_backend("thread") == "thread"
        assert validate_backend("process") == "process"
        with pytest.raises(EngineError):
            validate_backend("greenlet")
        assert set(BACKENDS) == {"thread", "process"}

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(EngineError):
            CExplorer(backend="fibers")

    def test_snapshot_reports_backend(self, dblp_small):
        explorer = CExplorer()
        assert explorer.engine.snapshot()["backend"] == "thread"
        proc = CExplorer(backend="process")
        assert proc.engine.snapshot()["backend"] == "process"
        proc.engine.shutdown()


# ----------------------------------------------------------------------
# job functions (in-process: they are plain picklable functions)
# ----------------------------------------------------------------------
class TestJobFunctions:
    def test_full_query_job_same_on_every_handle(self, karate):
        """One resolver: the in-process payload object, the pickled
        blob and the shared-memory ref all resolve to the same whole
        query, and its answer is the inline search's."""
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        payload, _ = explorer.indexes.full_payload("k")
        for k in (1, 2, 3):
            expected = [c.to_wire() for c in
                        explorer.search("acq", 0, k=k,
                                        use_cache=False)]
            in_process = full_query_job(
                payload.key, payload.job_arg(shipped=False), "acq",
                0, k)
            assert in_process == expected
            for handle in (payload.blob, payload.job_arg()):
                # Each handle must be resolved, not served from the
                # entry the previous one cached.
                backends._WORKER_CACHE.pop(payload.key[:3])
                assert full_query_job(payload.key, handle, "acq",
                                      0, k) == in_process
        explorer.engine.shutdown()

    def test_worker_cltree_matches_local_build(self, karate):
        """The CL-tree a worker builds over its frozen snapshot (and
        caches per payload identity) answers like the live graph's."""
        from repro.core.cltree import build_cltree
        entry = {"frozen": freeze(karate)}
        tree = backends._entry_cltree(entry)
        assert backends._entry_cltree(entry) is tree
        assert entry["core"] == core_decomposition(karate)
        oracle = build_cltree(karate)
        for v in karate.vertices():
            for k in range(max(entry["core"]) + 2):
                assert tree.community_vertices(v, k) == \
                    oracle.community_vertices(v, k)


# ----------------------------------------------------------------------
# payload lifecycle
# ----------------------------------------------------------------------
class TestGraphPayloads:
    def test_payload_cached_per_version(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate)
        payload, fresh = explorer.indexes.full_payload("k")
        assert fresh
        again, fresh = explorer.indexes.full_payload("k")
        assert not fresh
        assert again is payload

    def test_maintenance_invalidates_payload(self, karate):
        explorer = CExplorer()
        explorer.add_graph("k", karate.copy())
        payload, _ = explorer.indexes.full_payload("k")
        explorer.maintainer().insert_edge(0, 9)
        rebuilt, fresh = explorer.indexes.full_payload("k")
        assert fresh                  # version bumped: re-frozen
        assert rebuilt.key != payload.key


# ----------------------------------------------------------------------
# end-to-end equivalence
# ----------------------------------------------------------------------
class TestProcessBackendEquivalence:
    def test_keywords_and_variants(self, dblp_small):
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        jim = dblp_small.id_of("Jim Gray")
        keywords = set(sorted(dblp_small.keywords(jim))[:2])
        for algorithm in ("acq", "acq-inc-s", "acq-inc-t"):
            for kw in (None, keywords):
                assert proc.search(algorithm, jim, k=3, keywords=kw) \
                    == plain.search(algorithm, jim, k=3, keywords=kw)
        proc.engine.shutdown()

    @settings(max_examples=8, deadline=None)
    @given(random_graphs(max_n=14, max_m=40, keywords=list("ab")))
    def test_process_equals_thread_property(self, graph):
        plain = CExplorer()
        plain.add_graph("g", graph)
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", graph)
        try:
            core = core_decomposition(graph)
            queries = [(v, min(core[v], 2)) for v in
                       list(graph.vertices())[:3]]
            _equivalent(plain, proc, queries)
        finally:
            proc.engine.shutdown()

    def test_results_track_maintenance(self, karate):
        plain = CExplorer()
        plain.add_graph("k", karate.copy())
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate.copy())
        mp_, mt = plain.maintainer(), proc.maintainer()
        for u, v in ((0, 9), (4, 12), (33, 9)):
            if proc.indexes.graph("k").has_edge(u, v):
                mt.remove_edge(u, v)
                mp_.remove_edge(u, v)
            else:
                mt.insert_edge(u, v)
                mp_.insert_edge(u, v)
            _equivalent(plain, proc, [(0, 2), (33, 3)])
        proc.engine.shutdown()

    def test_process_index_builds(self, dblp_small):
        """``index()`` builds on the calling thread under the process
        backend too: no job, no ``index_build`` latency op, and the
        tree is over the live graph, not a frozen copy."""
        plain = CExplorer()
        plain.add_graph("g", dblp_small)
        plain.index()
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("g", dblp_small)
        tree = proc.index()
        assert proc.indexes.built("g")
        assert tree.graph is dblp_small
        jim = dblp_small.id_of("Jim Gray")
        assert proc.search("acq", jim, k=3) == \
            plain.search("acq", jim, k=3)
        ops = proc.engine.snapshot()["latency"]
        assert "index_build" not in ops
        assert "snapshot_build" in ops      # the ACQ search's payload
        proc.engine.shutdown()


# ----------------------------------------------------------------------
# fallback paths
# ----------------------------------------------------------------------
class TestFallbacks:
    def test_thread_engine_runs_jobs_inline(self, karate):
        explorer = CExplorer()           # thread backend
        explorer.add_graph("k", karate)
        payload, _ = explorer.indexes.full_payload("k")
        result = explorer.engine.run_job(
            full_query_job, (payload.key, payload.blob, "acq", 0, 2))
        assert result == [c.to_wire() for c in
                          explorer.search("acq", 0, k=2)]

    def test_broken_pool_falls_back_inline(self, karate):
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate)
        # Sabotage the pool: close it so the next fan-out breaks and
        # the engine degrades to inline execution.
        proc.engine._process.close()
        proc.engine._process._pool = None

        class _Exploding:
            def submit(self, *a, **kw):
                raise RuntimeError("boom")

            def shutdown(self, *a, **kw):
                pass

        proc.engine._process._pool = _Exploding()
        result = proc.search("acq", 0, k=2, use_cache=False)
        plain = CExplorer()
        plain.add_graph("k", karate)
        assert result == plain.search("acq", 0, k=2)
        assert proc.engine.stats.get("job_inline_fallbacks") >= 1
        proc.engine.shutdown()

    def test_broken_pool_leaves_index_builds_alone(self, karate):
        """A CL-tree build never touches the pool, so a pool that
        breaks on every job costs it nothing."""
        from repro.core.cltree import build_cltree
        from repro.engine.faults import FaultPlan

        proc = CExplorer(workers=1, backend="process",
                         faults=FaultPlan.from_spec(
                             "pool_break:full_query@1.0"))
        proc.add_graph("k", karate)
        try:
            tree = proc.indexes.snapshot("k").cltree
            assert proc.engine.stats.get("job_inline_fallbacks") == 0
            assert proc.engine.faults.injected() == 0
            assert tree.graph is karate
            assert tree.describe() == build_cltree(karate).describe()
        finally:
            proc.engine.shutdown()

    def test_shutdown_detaches_process_pool(self, karate):
        proc = CExplorer(workers=2, backend="process")
        proc.add_graph("k", karate)
        proc.engine.shutdown()
        assert proc.engine._process is None
        # A post-shutdown search runs inline instead of resurrecting
        # a pool nothing would ever close.
        assert proc.search("acq", 0, k=2)
        assert proc.engine._process is None

    def test_workers_fork_before_a_reader_blocks_stdin(self):
        """The pool's workers fork when the engine is built.  Forked
        later, while the main thread is blocked reading ``sys.stdin``
        (a launcher's command loop), each child would hang closing
        stdin before its first job, and every ACQ search would time
        out.  Run in a child interpreter, which kills its pool on the
        way out, so a regression fails instead of hanging the suite."""
        child = subprocess.Popen(
            [sys.executable, "-c", _STDIN_LAUNCHER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        try:
            child.wait(timeout=60)
        finally:
            child.kill()
            child.stdin.close()
        assert child.stdout.read().split() == ["answered", "1"], \
            child.stderr.read()

    def test_pool_recovers_after_break(self, karate):
        backend = ProcessBackend(workers=1)
        try:
            for _ in range(2):
                future = backend.submit_job(core_decomposition,
                                            (freeze(karate),))
                child, spans, result = backend.job_result(future, 30.0)
                assert result == core_decomposition(karate)
                assert child > 0
                backend._break()
        finally:
            backend.close()
