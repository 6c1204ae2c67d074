"""The zero-copy payload plane.

The load-bearing claims: (1) whichever transport ships a frozen
payload to a worker -- pickled bytes or a shared-memory segment
attached zero-copy -- query results are identical; (2) segments are
reference-counted and unlinked on version bumps, corruption discards,
and engine shutdown, so no run leaks ``/dev/shm`` entries; (3) a lost segment (the
``segment_loss`` chaos fault) is absorbed by one inline rerun.
"""

import gc
import pickle

import pytest
from conftest import random_graphs
from hypothesis import HealthCheck, given, settings

from repro.engine import payloads as payload_plane
from repro.engine.faults import FaultPlan
from repro.engine.index_manager import GraphPayload
from repro.explorer.cexplorer import CExplorer
from repro.graph.frozen import freeze
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


def test_reregister_releases_segment(transport_mode, karate):
    """Replacing a graph supersedes its record: the old version's
    payload segment goes at once."""
    explorer = CExplorer()
    explorer.add_graph("k", karate)
    payload, _ = explorer.indexes.full_payload("k")
    before = payload_plane.live_segments()
    assert payload.ref() is not None
    assert payload_plane.live_segments() == before + 1
    explorer.add_graph("k", karate.copy())
    assert payload_plane.live_segments() == before
    assert explorer.indexes.full_payload("k")[0] is not payload


def test_collected_payload_releases_segment(transport_mode, karate):
    """A payload nothing releases explicitly -- one frozen for a
    version superseded meanwhile, or held by an engine dropped without
    shutdown -- unlinks its segment when it is collected."""
    payload = GraphPayload(("t", "k", "full", 1), 1, freeze(karate), 0.0)
    before = payload_plane.live_segments()
    assert payload.ref() is not None
    assert payload_plane.live_segments() == before + 1
    del payload
    gc.collect()
    assert payload_plane.live_segments() == before


def test_segment_loss_chaos_recovers(transport_mode, dblp_small):
    """The ``segment_loss`` fault unlinks a published segment while
    its ref is in flight.  Each query runs against a freshly
    published segment (the graph is invalidated between queries), so
    a loss is a genuine torn attachment -- the worker's attach fails,
    the payload is discarded (the next dispatch re-publishes), the job
    reruns inline, and the query still answers exactly.  Answers must match
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
    assert snap["fault_plan"]["injected"]["segment_loss"] > 0
    assert snap["counters"]["job_inline_fallbacks"] >= 1
    assert payload_plane.live_segments() == 0
