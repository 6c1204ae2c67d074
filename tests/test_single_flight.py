"""Concurrent identical cache misses share one computation.

``CExplorer.search`` runs a cacheable miss single-flight, through the
index manager's one flight table (``IndexManager.once``): the first
caller of a missed ``(version record, cache key)`` computes, and a
concurrent caller of the same key waits for it and answers from the
record.  Covered here:

* the herd -- eight clients released on one cold ``/v1/search``, on
  both front-ends with default arguments: the algorithm runs once per
  round and every answer is the serial one, byte for byte;
* the flight semantics -- distinct keys still run concurrently, a
  failed leader leaves its waiters to compute, a query admitted after
  an update never joins the pre-update flight, uncacheable searches
  never join one, and no flight outlives its computation.

Computations are counted through the ``acq`` registry entry, wrapped
by :class:`_Counted`, not by timing.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.algorithms.registry import get_cs_algorithm
from repro.engine.index_manager import VersionRecord
from repro.explorer.cexplorer import CExplorer
from repro.server.app import make_server
from repro.server.async_app import make_async_server

HUB = "jim gray"
OTHER = "michael stonebraker"
CLIENTS = 8


class _Counted:
    """Stands in for the ``acq`` registry entry's function: counts the
    calls, holds each until :attr:`release` is set, and can fail the
    first one."""

    def __init__(self, func, hold=False, fail_first=False, delay=0.0):
        self.func = func
        self.calls = 0
        self.entered = threading.Semaphore(0)
        self.release = threading.Event()
        if not hold:
            self.release.set()
        self.fail_first = fail_first
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        self.entered.release()
        assert self.release.wait(10.0)
        time.sleep(self.delay)
        if first and self.fail_first:
            raise RuntimeError("the leader failed")
        return self.func(*args, **kwargs)

    def wait_entered(self, times):
        """Block until ``times`` more calls have entered."""
        for _ in range(times):
            assert self.entered.acquire(timeout=10.0)


@pytest.fixture
def count_acq(monkeypatch):
    """``count_acq(**options)`` installs a :class:`_Counted` around
    ``acq`` for the rest of the test and returns it."""
    entry = get_cs_algorithm("acq")

    def install(**options):
        counted = _Counted(entry.func, **options)
        monkeypatch.setattr(entry, "func", counted)
        return counted
    return install


def _explorer(graph, **kwargs):
    explorer = CExplorer(**kwargs)
    explorer.add_graph("dblp", graph)
    return explorer


def _joins(monkeypatch, explorer):
    """An event set whenever a search joins someone else's answer
    flight, keyed ``(record, cache key)`` (a derived value's flight,
    keyed ``(record, slot)`` with a structure name or a ``(kind,
    key)`` pair as its slot, does not count)."""
    joined = threading.Event()
    indexes = explorer.indexes
    once = indexes.once

    def spy(key, held, compute):
        record, what = key
        assert isinstance(record, VersionRecord)
        answer_flight = isinstance(what, tuple) \
            and len(what) == len(explorer.cache.key("dblp", "acq", 0, 3))
        if answer_flight and key in indexes._flights:
            joined.set()
        return once(key, held, compute)
    monkeypatch.setattr(indexes, "once", spy)
    return joined


def _assert_no_flight_open(explorer):
    """No computation is in flight in the explorer's one flight
    table: neither a search miss nor a derived value."""
    assert explorer.indexes._flights == {}


def _canon(communities):
    return json.dumps([c.to_dict() for c in communities])


def _run_threads(target, n):
    """Run ``target(i)`` on ``n`` threads and wait for all of them."""
    threads = [threading.Thread(target=target, args=(i,), daemon=True)
               for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
# the herd, over HTTP
# ----------------------------------------------------------------------

def _post_raw(server, doc):
    request = urllib.request.Request(
        "http://127.0.0.1:{}/v1/search".format(server.server_address[1]),
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        return resp.read()


class TestHerd:
    @pytest.mark.parametrize("front", ["sync", "async"])
    def test_one_computation_per_round(self, front, dblp_small,
                                       count_acq):
        vertices = (HUB, OTHER, "gerhard weikum")
        serial = _explorer(dblp_small)
        expected = {
            v: '"communities": [{}]}}'.format(", ".join(
                c.to_json() for c in serial.search("acq", v, k=3)))
            .encode() for v in vertices}
        explorer = _explorer(dblp_small)
        if front == "sync":
            server = make_server(explorer, port=0)
            threading.Thread(target=server.serve_forever,
                             daemon=True).start()
        else:
            server = make_async_server(explorer,
                                       port=0).start_background()
        # Slow enough that every client's request arrives while the
        # first computation is still running.
        counted = count_acq(delay=0.05)
        try:
            for rounds, vertex in enumerate(vertices, 1):
                barrier = threading.Barrier(CLIENTS, timeout=30.0)
                bodies = [None] * CLIENTS

                def client(i, vertex=vertex, barrier=barrier,
                           bodies=bodies):
                    barrier.wait()
                    bodies[i] = _post_raw(server, {
                        "vertex": vertex, "k": 3, "algorithm": "acq"})
                _run_threads(client, CLIENTS)
                assert counted.calls == rounds
                for body in bodies:
                    assert expected[vertex] in body
        finally:
            server.shutdown()
            if front == "sync":
                server.server_close()
        assert explorer.engine.stats.get("shared_answers") >= 1
        _assert_no_flight_open(explorer)


# ----------------------------------------------------------------------
# flight semantics, on the engine's search path
# ----------------------------------------------------------------------

class TestFlights:
    def test_waiter_shares_the_leader_answer(self, dblp_small,
                                             count_acq, monkeypatch):
        explorer = _explorer(dblp_small)
        joined = _joins(monkeypatch, explorer)
        counted = count_acq(hold=True)
        engine = explorer.engine
        leader = engine.search("acq", HUB, k=3)
        counted.wait_entered(1)
        waiter = engine.search("acq", HUB, k=3)
        assert joined.wait(10.0)
        counted.release.set()
        assert waiter.result(10.0) is leader.result(10.0)
        assert counted.calls == 1
        assert engine.stats.get("shared_answers") == 1
        assert waiter.trace.to_dict()["tags"]["shared"] is True
        assert "shared" not in leader.trace.to_dict()["tags"]
        _assert_no_flight_open(explorer)

    def test_distinct_keys_run_concurrently(self, dblp_small,
                                            count_acq, monkeypatch):
        serial = _explorer(dblp_small)
        expected = [_canon(serial.search("acq", v, k=3))
                    for v in (HUB, OTHER)]
        explorer = _explorer(dblp_small, workers=2)
        joined = _joins(monkeypatch, explorer)
        counted = count_acq(hold=True)
        futures = [explorer.engine.search("acq", v, k=3)
                   for v in (HUB, OTHER)]
        # Both computations are inside the algorithm at once.
        counted.wait_entered(2)
        counted.release.set()
        assert [_canon(f.result(10.0)) for f in futures] == expected
        assert not joined.is_set()
        _assert_no_flight_open(explorer)

    def test_failed_leader_leaves_the_waiter_to_compute(
            self, dblp_small, count_acq, monkeypatch):
        serial = _explorer(dblp_small)
        expected = _canon(serial.search("acq", HUB, k=3))
        explorer = _explorer(dblp_small)
        joined = _joins(monkeypatch, explorer)
        counted = count_acq(hold=True, fail_first=True)
        engine = explorer.engine
        leader = engine.search("acq", HUB, k=3)
        counted.wait_entered(1)
        waiter = engine.search("acq", HUB, k=3)
        assert joined.wait(10.0)
        counted.release.set()
        with pytest.raises(RuntimeError, match="leader failed"):
            leader.result(10.0)
        assert _canon(waiter.result(10.0)) == expected
        assert counted.calls == 2
        assert engine.stats.get("shared_answers") == 0
        _assert_no_flight_open(explorer)

    def test_update_starts_a_new_flight(self, dblp_small, count_acq,
                                        monkeypatch):
        graph = dblp_small.copy()
        explorer = _explorer(graph)
        explorer.index()
        joined = _joins(monkeypatch, explorer)
        counted = count_acq(hold=True)
        engine = explorer.engine
        before = engine.search("acq", HUB, k=3)
        counted.wait_entered(1)
        u, v = next((u, v) for u in graph.vertices()
                    for v in graph.vertices()
                    if u < v and not graph.has_edge(u, v))
        explorer.maintainer().insert_edge(u, v)
        after = engine.search("acq", HUB, k=3)
        # The post-update query computes under its own flight instead
        # of waiting for the answer computed before the update.
        counted.wait_entered(1)
        assert not joined.is_set()
        counted.release.set()
        answer = _canon(after.result(10.0))
        before.result(10.0)
        assert counted.calls == 2
        _assert_no_flight_open(explorer)
        assert answer == _canon(_explorer(graph).search("acq", HUB, k=3))
        # The cached entry is the post-update answer: the pre-update
        # leader's store, whenever it lands, is dropped.
        assert explorer.peek_cached("acq", HUB, k=3) is after.result(0)

    def test_straddling_answer_is_not_cached(self, dblp_small,
                                             monkeypatch):
        """A search computed before an update and stored after it must
        not be served from the cache: ``global`` answers for the hub,
        the hub's edges are stripped, then the answer is stored."""
        graph = dblp_small.copy()
        explorer = _explorer(graph)
        entry = get_cs_algorithm("global")
        computed = threading.Event()
        release = threading.Event()
        kernel = entry.func

        def held(*args, **kwargs):
            result = kernel(*args, **kwargs)
            computed.set()
            assert release.wait(10.0)
            return result
        monkeypatch.setattr(entry, "func", held)
        leader = explorer.engine.search("global", HUB, k=3)
        assert computed.wait(10.0)
        hub = graph.id_of("Jim Gray")
        maintainer = explorer.maintainer()
        for neighbor in sorted(graph.neighbors(hub)):
            maintainer.remove_edge(hub, neighbor)
        release.set()
        assert leader.result(10.0)          # the pre-update answer
        cached = explorer.search("global", HUB, k=3)
        fresh = explorer.search("global", HUB, k=3, use_cache=False)
        assert _canon(cached) == _canon(fresh) == "[]"
        _assert_no_flight_open(explorer)

    def test_uncacheable_searches_never_join(self, dblp_small,
                                             count_acq, monkeypatch):
        explorer = _explorer(dblp_small, workers=3)
        index = explorer.index()
        joined = _joins(monkeypatch, explorer)
        counted = count_acq(hold=True)
        engine = explorer.engine
        futures = [engine.search("acq", HUB, k=3)]
        counted.wait_entered(1)
        futures.append(engine.submit(explorer.search, "acq", HUB, k=3,
                                     use_cache=False))
        futures.append(engine.search("acq", HUB, k=3, index=index))
        counted.wait_entered(2)
        assert not joined.is_set()
        counted.release.set()
        answers = [_canon(f.result(10.0)) for f in futures]
        assert len(set(answers)) == 1
        assert counted.calls == 3
        _assert_no_flight_open(explorer)


def test_make_server_accepts_only_a_none_batch_window(dblp_small):
    explorer = _explorer(dblp_small)
    server = make_server(explorer, port=0, batch_window=None)
    server.server_close()
    with pytest.raises(ValueError):
        make_server(explorer, port=0, batch_window=0.005)


def test_stress_one_computation_per_key(dblp_small, count_acq):
    """Sixteen threads (more than the cores) race over the same twelve
    keys with a shortened switch interval: a lost update to the flight
    table would show as a second computation of some key, a wrong
    answer, a hang or a leftover flight."""
    import random
    import sys

    keys = [(v, k) for v in (HUB, OTHER, "gerhard weikum",
                             "michael l. brodie", "bruce g. lindsay",
                             "david j. dewitt")
            for k in (3, 4)]
    serial = _explorer(dblp_small)
    expected = {key: _canon(serial.search("acq", key[0], k=key[1]))
                for key in keys}
    explorer = _explorer(dblp_small)
    explorer.index()
    counted = count_acq(delay=0.002)
    answers = [{} for _ in range(16)]

    def client(i):
        order = keys * 3
        random.Random(i).shuffle(order)
        for vertex, k in order:
            answers[i][vertex, k] = _canon(
                explorer.search("acq", vertex, k=k))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(client, 16)
    finally:
        sys.setswitchinterval(interval)
    assert all(got == expected for got in answers)
    assert counted.calls == len(keys)
    _assert_no_flight_open(explorer)
