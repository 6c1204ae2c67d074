"""Everything a graph version derives is computed once per version.

:meth:`IndexManager._derive` is the one compute-once path: core
numbers, the CL-tree, the truss map, the payload and every ``derived``
value (dataset panel, CODICIL partition, ``global`` bodies) are
computed by one flight per ``(record, slot)``, which concurrent first
readers share.  Each race here releases two threads through a barrier
into a computation patched to sleep, so the second reader arrives
while the first is still computing.
"""

import sys
import threading
import time

from repro.algorithms.registry import get_cd_algorithm
from repro.engine import index_manager
from repro.engine.index_manager import IndexManager
from repro.explorer.cexplorer import CExplorer

SLOW = 0.2


def _race(*calls):
    """Run each call on its own thread, released together; returns
    ``(results, errors)`` indexed like ``calls``."""
    barrier = threading.Barrier(len(calls), timeout=5)
    results = [None] * len(calls)
    errors = [None] * len(calls)

    def run(i):
        barrier.wait()
        try:
            results[i] = calls[i]()
        except Exception as exc:
            errors[i] = exc
    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(calls))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
        assert not thread.is_alive(), "a reader hung"
    return results, errors


def test_racing_codicil_searches_partition_once(fig5, monkeypatch):
    """Two first ``codicil`` searches of *different* vertices miss
    different cache keys, and still share one partition."""
    info = get_cd_algorithm("codicil")
    calls = []
    real = info.func

    def slow(*args, **kwargs):
        calls.append(args)
        time.sleep(SLOW)
        return real(*args, **kwargs)
    monkeypatch.setattr(info, "func", slow)
    explorer = CExplorer()
    explorer.add_graph("g", fig5)
    results, errors = _race(
        lambda: explorer.search("codicil", "A", k=2),
        lambda: explorer.search("codicil", "E", k=2))
    assert errors == [None, None]
    assert len(calls) == 1
    assert results[0] and results[1]


def test_racing_first_truss_reads_decompose_once(fig5, monkeypatch):
    calls = []
    real = index_manager.truss_decomposition

    def slow(graph):
        calls.append(graph)
        time.sleep(SLOW)
        return real(graph)
    monkeypatch.setattr(index_manager, "truss_decomposition", slow)
    manager = IndexManager()
    manager.register("g", fig5)
    results, errors = _race(lambda: manager.truss("g"),
                            lambda: manager.truss("g"))
    assert errors == [None, None]
    assert len(calls) == 1
    assert results[0] is results[1]


def test_failed_leader_wakes_its_waiters(fig5):
    """A leader that raises ends its flight: the waiter does not hang,
    finds nothing stored and computes itself, and what it stores is
    what the next reader gets."""
    manager = IndexManager()
    manager.register("g", fig5)
    calls = []

    def compute():
        calls.append(1)
        time.sleep(SLOW)
        if len(calls) == 1:
            raise RuntimeError("leader failed")
        return "value"

    def read():
        return manager.derived("g", "probe", (), compute)
    results, errors = _race(read, read)
    assert sorted(type(e).__name__ for e in errors if e) == \
        ["RuntimeError"]
    assert "value" in results
    assert len(calls) == 2
    assert read() == "value" and len(calls) == 2


def test_launcher_reset_recomputes_bodies_not_indexes(dblp_small):
    """``engine.memo.invalidate()`` (the benchmark launcher's pass
    reset) drops the current version's derived values: the next
    ``global`` read computes its body again, and no index is rebuilt."""
    explorer = CExplorer()
    explorer.add_graph("g", dblp_small)
    explorer.index()
    first = explorer.search("global", "Jim Gray", k=3)[0]
    record = explorer.indexes.snapshot("g")
    core, cltree = record.core, record.cltree
    builds = explorer.indexes.stats("g")["builds"]
    assert first.body in record.derived[("global-bodies", 3)]
    explorer.cache.invalidate()
    explorer.engine.memo.invalidate()
    assert record.derived == {}
    again = explorer.search("global", "Jim Gray", k=3)[0]
    assert again.body is not first.body
    assert again.vertices == first.vertices
    assert record.derived[("global-bodies", 3)] == [again.body]
    assert explorer.indexes.stats("g")["builds"] == builds
    assert record.core is core and record.cltree is cltree



def test_stress_every_value_computed_once(fig5):
    """Eight threads, a shortened switch interval, 200 values read in
    different orders: each value is computed once and every reader
    gets that one object."""
    manager = IndexManager()
    manager.register("g", fig5)
    keys = list(range(200))
    computed = {key: [] for key in keys}
    seen = [None] * 8

    def compute(key):
        value = object()
        computed[key].append(value)
        time.sleep(0.001)       # let another reader arrive mid-compute
        return value

    def read(i):
        order = keys[i * 25:] + keys[:i * 25]
        if i % 2:
            order.reverse()
        seen[i] = {key: manager.derived("g", "stress", key,
                                        lambda key=key: compute(key))
                   for key in order}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(len(values) == 1 for values in computed.values())
    for values in seen:
        assert all(values[key] is computed[key][0] for key in keys)
