"""The zero-copy payload plane.

The load-bearing claims: (1) whichever transport ships a frozen
payload to a worker -- pickled bytes or a shared-memory segment
attached zero-copy -- query results are identical; (2) segments are
reference-counted and unlinked on version bumps, quarantine discards,
and engine shutdown, so no run leaks ``/dev/shm`` entries; (3) a lost segment (the
``segment_loss`` chaos fault) is absorbed by the re-freeze ladder;
(4) the persistent store round-trips frozen payloads and CL-trees so
a restarted explorer comes up warm without rebuilding, and spilled
results readmit identically.
"""

import gc
import pickle

import pytest
from conftest import random_graphs
from hypothesis import HealthCheck, given, settings

from repro.core.cltree import build_cltree
from repro.datasets import DblpConfig, generate_dblp_graph
from repro.engine import payloads as payload_plane
from repro.engine.faults import FaultPlan
from repro.explorer.cexplorer import CExplorer
from repro.graph.frozen import FrozenGraph, freeze
from repro.graph.io import write_graph_json
from repro.util.errors import CExplorerError, PayloadCorruptionError

TRANSPORTS = ("pickle", "shm")


@pytest.fixture(autouse=True)
def _finalize_orphans():
    """Engines other test modules dropped without ``shutdown()`` hold
    payloads until their GC finalizer runs; collect them so the
    absolute ``live_segments() == 0`` assertions below are about
    *this* test's engines."""
    gc.collect()


@pytest.fixture
def transport_mode():
    """Restore the ambient transport after a test reconfigures it."""
    previous = payload_plane.configure("shm")
    yield payload_plane.configure
    payload_plane.configure(previous)


def _csr_lists(frozen):
    return list(frozen.indptr), list(frozen.indices)


def _attributes(frozen):
    return ([frozen.keywords(v) for v in frozen.vertices()],
            [frozen.label(v) for v in frozen.vertices()])


# ----------------------------------------------------------------------
# packing: the segment/file layout round-trips
# ----------------------------------------------------------------------
def test_pack_unpack_full_payload(dblp_small):
    frozen = freeze(dblp_small)
    buf = memoryview(b"".join(payload_plane.pack_payload(frozen)))
    out = payload_plane.unpack_payload(buf, key="t")
    assert _csr_lists(out) == _csr_lists(frozen)
    # The keyword/label sidecar is lazy: structural access leaves it
    # undecoded; the first attribute read materialises it.
    assert out._sidecar is not None
    assert list(out.neighbors(3)) == list(frozen.neighbors(3))
    assert out._sidecar is not None
    assert _attributes(out) == _attributes(frozen)
    assert out._sidecar is None


def test_unpack_rejects_torn_buffer(dblp_small):
    frozen = freeze(dblp_small)
    packed = b"".join(payload_plane.pack_payload(frozen))
    with pytest.raises(PayloadCorruptionError):
        payload_plane.unpack_payload(memoryview(packed[:40]), key="t")
    garbled = b"XXXX" + packed[4:]
    with pytest.raises(PayloadCorruptionError):
        payload_plane.unpack_payload(memoryview(garbled), key="t")


def test_repickling_lazy_snapshot_materialises(dblp_small):
    frozen = freeze(dblp_small)
    buf = memoryview(b"".join(payload_plane.pack_payload(frozen)))
    out = payload_plane.unpack_payload(buf, key="t")
    clone = pickle.loads(pickle.dumps(out))
    assert _csr_lists(clone) == _csr_lists(frozen)
    assert _attributes(clone) == _attributes(frozen)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graph=random_graphs(keywords=["db", "ir", "ml"]))
def test_packed_equivalent_to_pickled(graph):
    """Property: the packed zero-copy layout decodes to the same
    snapshot the pickle transport ships, for arbitrary graphs."""
    frozen = freeze(graph)
    via_pickle = pickle.loads(pickle.dumps(frozen))
    buf = memoryview(b"".join(payload_plane.pack_payload(frozen)))
    via_pack = payload_plane.unpack_payload(buf, key="t")
    assert _csr_lists(via_pack) == _csr_lists(via_pickle)
    assert _attributes(via_pack) == _attributes(via_pickle)


# ----------------------------------------------------------------------
# segment lifecycle
# ----------------------------------------------------------------------
def test_publish_attach_destroy(transport_mode, dblp_small):
    frozen = freeze(dblp_small)
    before = payload_plane.live_segments()
    segment = payload_plane.publish(("t", "g", 1), frozen)
    assert segment is not None
    assert payload_plane.live_segments() == before + 1
    assert payload_plane.live_bytes() > 0
    attached = payload_plane.attach(segment.ref)
    assert _csr_lists(attached) == _csr_lists(frozen)
    ref = segment.ref
    segment.release()  # drops the only reference -> unlink
    assert payload_plane.live_segments() == before
    with pytest.raises(PayloadCorruptionError):
        payload_plane.attach(ref)


def test_refcount_holds_segment_alive(transport_mode, dblp_small):
    frozen = freeze(dblp_small)
    before = payload_plane.live_segments()
    segment = payload_plane.publish(("t", "g", 2), frozen)
    segment.acquire()
    segment.release()
    assert payload_plane.live_segments() == before + 1
    segment.release()
    assert payload_plane.live_segments() == before


def test_corrupt_ref_fails_attach(transport_mode, dblp_small):
    frozen = freeze(dblp_small)
    segment = payload_plane.publish(("t", "g", 3), frozen)
    try:
        ref = payload_plane.corrupt_ref(segment.ref)
        stats = payload_plane.plane_stats()
        with pytest.raises(PayloadCorruptionError):
            payload_plane.attach(ref)
        assert payload_plane.plane_stats()["attach_failures"] \
            == stats["attach_failures"] + 1
    finally:
        segment.release()


def test_one_attachment_per_payload_identity(transport_mode,
                                            dblp_small):
    """Version churn replaces the kept attachment of a payload
    identity instead of accumulating one per version; a late ref to
    an older version is served without displacing the newer one."""
    frozen = freeze(dblp_small)
    identity = ("epoch-t", "g", "full")
    segments = [payload_plane.publish(identity + (version,), frozen)
                for version in (1, 2, 3)]
    try:
        for segment in segments:
            payload_plane.attach(segment.ref)
            kept = payload_plane._attached[identity]
            assert kept[1] == segment.name
        late = payload_plane.attach(segments[0].ref)
        assert _csr_lists(late) == _csr_lists(frozen)
        assert payload_plane._attached[identity][1] \
            == segments[2].name
        assert sum(1 for key in payload_plane._attached
                   if key[0] == "epoch-t") == 1
    finally:
        for segment in segments:
            segment.release()
    assert identity not in payload_plane._attached


def test_configure_rejects_unknown_transport():
    with pytest.raises(CExplorerError):
        payload_plane.configure("carrier-pigeon")
    with pytest.raises(CExplorerError):
        payload_plane.configure("registry")


# ----------------------------------------------------------------------
# transport equivalence through the engine
# ----------------------------------------------------------------------
def _answers(explorer, vertices):
    out = [explorer.search("acq", v, k=4, use_cache=False)
           for v in vertices]
    out.append(explorer.search("global", vertices[0], k=3,
                               use_cache=False))
    return out


def test_process_transport_equivalence(transport_mode, dblp_small):
    """Process execution returns identical communities on both
    transports."""
    vertices = [dblp_small.label(v) for v in (10, 25)]
    results = {}
    for transport in TRANSPORTS:
        transport_mode(transport)
        # The failure counter is process-global and cumulative:
        # diff it.
        failures = payload_plane.plane_stats()["attach_failures"]
        explorer = CExplorer(workers=2, backend="process")
        try:
            explorer.add_graph("g", dblp_small)
            results[transport] = _answers(explorer, vertices)
            if transport == "shm":
                stats = explorer.engine.snapshot()["payloads"]
                assert stats["attach_failures"] == failures
        finally:
            explorer.engine.shutdown()
        # Shutdown releases every payload this engine published.
        assert payload_plane.live_segments() == 0
    assert results["shm"] == results["pickle"]


def test_thread_backend_equivalence(transport_mode, dblp_small):
    vertices = [dblp_small.label(v) for v in (10, 25)]
    results = {}
    for transport in ("pickle", "shm"):
        transport_mode(transport)
        explorer = CExplorer(workers=2, backend="thread")
        try:
            explorer.add_graph("g", dblp_small)
            results[transport] = _answers(explorer, vertices)
        finally:
            explorer.engine.shutdown()
    assert results["shm"] == results["pickle"]


def test_invalidate_releases_segments(transport_mode, dblp_small):
    explorer = CExplorer(workers=2, backend="process")
    try:
        explorer.add_graph("g", dblp_small)
        explorer.search("acq", dblp_small.label(10), k=4,
                        use_cache=False)
        held = payload_plane.live_segments()
        assert held > 0
        explorer.indexes.invalidate("g")
        assert payload_plane.live_segments() < held
    finally:
        explorer.engine.shutdown()
    assert payload_plane.live_segments() == 0


def test_segment_loss_chaos_recovers(transport_mode, dblp_small):
    """The ``segment_loss`` fault unlinks a published segment while
    its ref is in flight.  Each query runs against a freshly
    published segment (the graph is invalidated between queries), so
    a loss is a genuine torn attachment -- the worker's attach fails,
    the payload is quarantined (the next dispatch re-publishes), and
    the query still answers exactly.  Answers must match
    fault-free ones and nothing may leak."""
    vertices = [dblp_small.label(v) for v in (10, 25, 40)]

    def run(faults):
        explorer = CExplorer(workers=2, backend="process",
                             faults=faults)
        try:
            explorer.add_graph("g", dblp_small)
            answers = []
            for v in vertices:
                explorer.indexes.invalidate("g")
                answers.append(explorer.search("acq", v, k=4,
                                               use_cache=False))
            return answers, explorer.engine.snapshot()
        finally:
            explorer.engine.shutdown()

    clean, _ = run(None)
    chaotic, snap = run(
        FaultPlan.from_spec("seed=17;segment_loss:full_query@0.5"))
    assert chaotic == clean
    counters = snap["resilience"]["counters"]
    assert counters["faults_injected"] > 0
    assert counters["quarantines"] >= 1
    assert payload_plane.live_segments() == 0


# ----------------------------------------------------------------------
# the persistent warm store
# ----------------------------------------------------------------------
def _small_graph():
    return generate_dblp_graph(DblpConfig(n_authors=200,
                                          n_communities=6, seed=7))


def test_graph_store_roundtrip(tmp_path):
    graph = _small_graph()
    frozen = freeze(graph)
    cltree = build_cltree(graph)
    store = payload_plane.GraphStore(str(tmp_path))
    store.save("g", frozen, cltree)
    assert store.matches("g", frozen)
    assert store.has_cltree("g")
    loaded = store.load_frozen("g")
    assert _csr_lists(loaded) == _csr_lists(frozen)
    assert _attributes(loaded) == _attributes(frozen)
    tree = store.load_cltree("g", graph)
    assert list(tree.core) == list(cltree.core)
    described = store.describe()
    assert [doc["graph"] for doc in described["graphs"]] == ["g"]
    assert described["graphs"][0]["payload_bytes"] > 0
    assert described["graphs"][0]["cltree_bytes"] > 0
    assert described["total_bytes"] > 0
    assert store.clear() > 0
    assert store.describe()["graphs"] == []


def test_store_mismatch_stays_cold(tmp_path):
    store = payload_plane.GraphStore(str(tmp_path))
    store.save("g", freeze(_small_graph()))
    other = generate_dblp_graph(DblpConfig(n_authors=180,
                                           n_communities=5, seed=9))
    assert not store.matches("g", freeze(other))


def test_warm_restart_skips_rebuild(tmp_path):
    graph = _small_graph()
    vertex = graph.label(15)

    cold = CExplorer(workers=2, store_dir=str(tmp_path))
    try:
        cold.add_graph("g", graph)
        cold.index()
        cold_answer = cold.search("acq", vertex, k=4)
        assert cold.engine.stats.get("store_saves") == 1
    finally:
        cold.engine.shutdown()

    warm = CExplorer(workers=2, store_dir=str(tmp_path))
    try:
        warm.add_graph("g", graph)
        assert warm.engine.stats.get("warm_restores") == 1
        assert warm.engine.stats.get("warm_restore_failures") == 0
        # The restored CL-tree installs without a build; querying and
        # re-requesting the index must not trigger one either.
        warm.index()
        warm_answer = warm.search("acq", vertex, k=4, use_cache=False)
        assert warm.indexes.stats("g")["builds"] == 0
        assert warm_answer == cold_answer
    finally:
        warm.engine.shutdown()


def test_uploaded_graph_restarts_warm(tmp_path):
    """A graph loaded through ``upload`` is written through to the
    store and restored whole on the next upload."""
    graph = _small_graph()
    path = str(tmp_path / "dblp.json")
    write_graph_json(graph, path)
    store = str(tmp_path / "store")
    vertex = graph.label(15)

    cold = CExplorer(workers=2, store_dir=store)
    try:
        assert cold.upload(path) == "dblp"
        cold.index()
        cold_answer = cold.search("acq", vertex, k=4)
        assert cold.engine.stats.get("store_saves") == 1
    finally:
        cold.engine.shutdown()

    warm = CExplorer(workers=2, store_dir=store)
    try:
        warm.upload(path, shards=1)
        assert warm.engine.stats.get("warm_restores") == 1
        assert warm.search("acq", vertex, k=4,
                           use_cache=False) == cold_answer
        assert warm.indexes.stats("dblp")["builds"] == 0
    finally:
        warm.engine.shutdown()


def test_result_spill_readmission(tmp_path):
    graph = _small_graph()
    vertex = graph.label(15)

    first = CExplorer(workers=2, store_dir=str(tmp_path))
    try:
        first.add_graph("g", graph)
        first.index()
        answer = first.search("acq", vertex, k=4)
    finally:
        first.engine.shutdown()  # flushes live cache entries to disk

    second = CExplorer(workers=2, store_dir=str(tmp_path))
    try:
        second.add_graph("g", graph)
        readmitted = second.search("acq", vertex, k=4)
        assert readmitted == answer
        stats = second.engine.cache.stats()
        assert stats["spill_hits"] == 1
        assert stats["spill"]["hits"] == 1
    finally:
        second.engine.shutdown()
