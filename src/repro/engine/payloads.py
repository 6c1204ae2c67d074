"""The zero-copy payload plane: shared-memory CSR segments.

The process backend used to ship every :class:`~repro.graph.frozen.
FrozenGraph` payload to workers as a pickled blob -- one serialize /
copy / deserialize round per dispatch, multiplied by the worker count
in resident memory.  This module separates *data placement* from
*compute* (the Polynesia split, PAPERS.md): the CSR arrays of a frozen
payload are published once into a POSIX shared-memory segment, jobs
carry a tiny picklable *ref*, and workers attach the mapping and build
a :class:`FrozenGraph` over ``memoryview`` slices of it -- zero-copy,
amortised across every dispatch and every worker.

Transport ladder (the first rung degrades to the second by itself):

1. **shm** -- ``multiprocessing.shared_memory`` segments.  One
   refcounted :class:`Segment` per ``(graph, version)`` payload,
   owned by the parent; unlinked on version bump, corruption
   discard, engine shutdown, when its payload is collected, and
   (backstop) at interpreter exit, so no
   ``resource_tracker`` leak warnings survive a clean run.
2. **pickle** -- the pickled-blob path: the only transport on hosts
   without ``/dev/shm`` (segment creation failing poisons the shm
   rung for the process) and the reference the transport-equivalence
   tests compare against.

A failed attach in a worker raises
:class:`~repro.util.errors.PayloadCorruptionError` carrying the
payload key: the engine then calls ``discard_payload`` (which unlinks
the segment, so the next query re-freezes and re-publishes) and
reruns the job inline on the in-process payload.  The chaos plane's
``segment_loss`` fault exercises exactly this recovery.

Nothing here outlives the process: a restarted server re-freezes its
graphs and rebuilds its CL-trees, which measured as fast as restoring
them from disk (``docs/ARCHITECTURE.md``, "Where each rung wins").
"""

import atexit
import os
import pickle
import struct
import threading
from array import array

from repro.util.errors import CExplorerError, PayloadCorruptionError

try:
    from multiprocessing import shared_memory as _shared_memory
    from multiprocessing import resource_tracker as _resource_tracker
except ImportError:  # pragma: no cover - always present on CPython 3.8+
    _shared_memory = None
    _resource_tracker = None

ENV_TRANSPORT = "REPRO_PAYLOAD_TRANSPORT"
TRANSPORTS = ("shm", "pickle")

# Packed payload layout: magic, then byte lengths of the three parts
# (raw int32 indptr, raw int32 indices, the pickled keyword/label
# sidecar), then the parts themselves.  The sidecar stays *undecoded in
# the buffer* until a vertex attribute is actually read -- structural
# kernels never pay for it.
_MAGIC = b"RPP3"
_HEADER = struct.Struct("<4sQQQ")

_lock = threading.RLock()
_segments = {}            # name -> Segment (parent-side owners)
# Payload identity ``key[:3]`` -> (version, segment name, SharedMemory
# or None, decoded payload): the one attachment this process keeps per
# graph.  A newer version of the same identity replaces (and
# closes) its predecessor, so version churn never accumulates
# mappings in a long-lived worker.
_attached = {}
_shm_ok = True            # poisoned when segment creation fails
_seq = 0
_attach_failures = 0


def _transport():
    mode = os.environ.get(ENV_TRANSPORT, "shm").strip().lower()
    return mode if mode in TRANSPORTS else "shm"


def configure(transport):
    """Force the payload transport (``shm``/``pickle``).

    Used by tests and benchmarks to compare the two transports; the
    environment variable :data:`ENV_TRANSPORT` does the same for a
    whole process.  Returns the previous mode.
    """
    if transport not in TRANSPORTS:
        raise CExplorerError(
            "unknown payload transport: {!r} (expected one of {})".format(
                transport, "/".join(TRANSPORTS)))
    previous = _transport()
    os.environ[ENV_TRANSPORT] = transport
    return previous


# ----------------------------------------------------------------------
# packing / unpacking
# ----------------------------------------------------------------------
def _array_bytes(arr):
    """Raw little-endian int32 bytes of a CSR array (array or view)."""
    if isinstance(arr, array):
        return arr.tobytes()
    return bytes(arr)


def pack_payload(frozen):
    """Pack a frozen graph into the flat segment layout.  Returns a
    list of byte chunks."""
    frozen._ensure_sidecar()
    indptr = _array_bytes(frozen.indptr)
    indices = _array_bytes(frozen.indices)
    sidecar = pickle.dumps((frozen._keywords, frozen._labels),
                           protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, len(indptr), len(indices),
                          len(sidecar))
    return [header, indptr, indices, sidecar]


def unpack_payload(buf, key=None):
    """Decode a packed payload from ``buf`` (a memoryview over a shm
    segment).  The CSR arrays stay *views into the buffer* --
    this is the zero-copy attach -- and the keyword/label sidecar is
    handed to the snapshot as a lazy loader over its buffer slice, so
    a structural query never unpickles it.  Returns the
    :class:`FrozenGraph` ``pickle.loads`` produces on the blob path.
    """
    from repro.graph.frozen import FrozenGraph

    try:
        magic, n_indptr, n_indices, n_sidecar = \
            _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ValueError("bad payload magic: {!r}".format(magic))
        off = _HEADER.size
        if off + n_indptr + n_indices + n_sidecar > len(buf):
            raise ValueError("payload buffer is truncated")
        indptr = buf[off:off + n_indptr].cast("i")
        off += n_indptr
        indices = buf[off:off + n_indices].cast("i")
        off += n_indices
        side = buf[off:off + n_sidecar]
    except PayloadCorruptionError:
        raise
    except Exception as exc:
        raise PayloadCorruptionError(
            "payload segment decode failed: {}".format(exc), key=key)

    def load_sidecar(view=side, key=key):
        # The closed-over view pins the segment mapping alive
        # for as long as the snapshot may still need it.
        try:
            return pickle.loads(bytes(view))
        except Exception as exc:
            raise PayloadCorruptionError(
                "payload sidecar decode failed: {}".format(exc),
                key=key)

    return FrozenGraph(indptr, indices, None, None,
                       sidecar_loader=load_sidecar)


# ----------------------------------------------------------------------
# refs: the tiny picklable objects that travel in job args
# ----------------------------------------------------------------------
class ShmPayloadRef:
    """Locator for a payload living in a shared-memory segment."""

    __slots__ = ("segment", "key", "nbytes", "corrupted")

    def __init__(self, segment, key, nbytes, corrupted=False):
        self.segment = segment
        self.key = key
        self.nbytes = nbytes
        self.corrupted = corrupted

    def __repr__(self):
        return "ShmPayloadRef(segment={!r}, key={!r})".format(
            self.segment, self.key)


def is_ref(obj):
    """Whether ``obj`` is a payload-plane locator (vs a pickled blob
    or an in-process payload object)."""
    return isinstance(obj, ShmPayloadRef)


def corrupt_ref(ref):
    """A detectably-corrupted copy of ``ref`` (the chaos plane's
    ``corrupt`` fault on zero-copy transport): attaching it raises
    :class:`PayloadCorruptionError` with the *real* key, so the engine
    discards the right payload."""
    return ShmPayloadRef(ref.segment, ref.key, ref.nbytes,
                         corrupted=True)


# ----------------------------------------------------------------------
# parent side: segment ownership
# ----------------------------------------------------------------------
if _shared_memory is not None:
    class _QuietSharedMemory(_shared_memory.SharedMemory):
        """``SharedMemory`` that tolerates live exported views.

        A zero-copy consumer in *this* process (inline rerun,
        thread backend) holds memoryviews into the
        mapping, so ``close`` during an unlink -- or ``__del__`` at
        interpreter shutdown -- would raise ``BufferError: cannot
        close exported pointers exist``.  Swallowing it is correct:
        the name is unlinked eagerly either way, and the mapping
        itself is reclaimed once the last view dies.
        """

        def close(self):
            try:
                super().close()
            except BufferError:
                # The views pin the mapping, not the descriptor:
                # close that now or every replaced segment leaks one.
                if self._fd >= 0:
                    os.close(self._fd)
                    self._fd = -1

        def __del__(self):
            try:
                super().__del__()
            except Exception:
                pass


class Segment:
    """A refcounted parent-side owner of one shared-memory segment.

    The publishing payload holds one reference; :meth:`release` at
    zero closes and unlinks.  ``destroy`` is idempotent so an
    externally-lost segment (``segment_loss`` chaos, atexit sweep)
    and a later release do not double-unlink.
    """

    __slots__ = ("name", "key", "nbytes", "_shm", "_refs", "_pid")

    def __init__(self, shm, key, nbytes):
        self.name = shm.name
        self.key = key
        self.nbytes = nbytes
        self._shm = shm
        self._refs = 1
        self._pid = os.getpid()

    @property
    def ref(self):
        return ShmPayloadRef(self.name, self.key, self.nbytes)

    def acquire(self):
        with _lock:
            self._refs += 1
        return self

    def release(self):
        with _lock:
            self._refs -= 1
            dead = self._refs <= 0
        if dead:
            self.destroy()

    def destroy(self):
        with _lock:
            shm, self._shm = self._shm, None
            _segments.pop(self.name, None)
            identity = self.key[:3]
            kept = _attached.get(identity)
            if kept is not None and kept[1] == self.name:
                del _attached[identity]
        if shm is None or self._pid != os.getpid():
            return
        try:
            shm.close()
        except Exception:  # pragma: no cover - close never fails first
            pass
        try:
            shm.unlink()
        except Exception:
            pass


def _next_segment_name():
    global _seq
    with _lock:
        _seq += 1
        return "repro-{:x}-{:x}".format(os.getpid(), _seq)


def publish(key, frozen):
    """Place one frozen payload in a shared-memory segment.

    Returns the :class:`Segment` owner (holding one reference) or
    ``None`` when the plane is disabled or segment creation fails --
    the caller then ships the pickled blob.
    """
    global _shm_ok
    if _transport() != "shm" or not _shm_ok or _shared_memory is None:
        return None
    chunks = pack_payload(frozen)
    nbytes = sum(len(c) for c in chunks)
    try:
        shm = _QuietSharedMemory(
            name=_next_segment_name(), create=True,
            size=max(nbytes, 1))
        off = 0
        for chunk in chunks:
            shm.buf[off:off + len(chunk)] = chunk
            off += len(chunk)
    except Exception:
        # /dev/shm missing, full, or unwritable: poison the rung for
        # this process; payloads ship pickled from here on.
        _shm_ok = False
        return None
    segment = Segment(shm, key, nbytes)
    with _lock:
        _segments[segment.name] = segment
    return segment


# ----------------------------------------------------------------------
# worker side: attach
# ----------------------------------------------------------------------
def _attach_shm(name):
    """Open an existing segment without taking unlink responsibility.

    Before Python 3.13 every ``SharedMemory`` attach registers with
    the caller's ``resource_tracker`` (bpo-39959), which would unlink
    the parent's segment when a worker exits.  Forked workers share
    the parent's tracker process, so even register-then-unregister is
    wrong (the worker's unregister would strip the *parent's* claim
    and its eventual unlink would then trip the tracker); instead the
    registration is suppressed entirely for the duration of the
    attach.
    """
    try:
        return _QuietSharedMemory(name=name, track=False)
    except TypeError:
        pass
    if _resource_tracker is None:  # pragma: no cover - fallback
        return _QuietSharedMemory(name=name)
    original = _resource_tracker.register
    _resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _QuietSharedMemory(name=name)
    finally:
        _resource_tracker.register = original


def attach(ref):
    """Resolve a payload ref to the payload object, zero-copy.

    Any failure -- corrupted ref, unlinked segment -- raises
    :class:`PayloadCorruptionError` carrying the payload key; the
    engine discards that payload and reruns the job inline.

    The process keeps one attachment per payload identity
    (``key[:3]``: manager epoch, graph, ``"full"``): repeat jobs against
    the same segment reuse its decoded payload, a segment at least as
    new as the kept one replaces it -- closing the predecessor's
    mapping -- and a late job for an older version is served without
    displacing the newer attachment.
    """
    global _attach_failures
    if ref.corrupted:
        with _lock:
            _attach_failures += 1
        raise PayloadCorruptionError(
            "payload ref corrupted in flight", key=ref.key)
    identity, version = ref.key[:3], ref.key[3:]
    with _lock:
        kept = _attached.get(identity)
        owner = _segments.get(ref.segment)
    if kept is not None and kept[1] == ref.segment:
        return kept[3]
    kept = None  # never pin a predecessor this attach may displace
    shm = None
    if owner is not None and owner._shm is not None:
        # In-process resolution (inline substrate): the segment is
        # our own -- decode straight from the live mapping.
        buf = owner._shm.buf
    else:
        try:
            shm = _attach_shm(ref.segment)
        except Exception as exc:
            with _lock:
                _attach_failures += 1
            raise PayloadCorruptionError(
                "shared-memory attach failed: {}".format(exc),
                key=ref.key)
        buf = shm.buf
    payload = unpack_payload(buf, key=ref.key)
    displaced = _keep(identity, version, ref.segment, shm, payload)
    if displaced is not None:
        displaced.close()
    return payload


def _keep(identity, version, segment, shm, payload):
    """Make this the identity's kept attachment unless a newer one is
    already kept.  Returns the displaced predecessor's mapping for the
    caller to close -- after this frame has dropped the predecessor's
    decoded payload, whose views would otherwise pin it."""
    with _lock:
        kept = _attached.get(identity)
        if kept is not None and version < kept[0]:
            return None
        # The kept mapping stays open as long as it is kept: the
        # decoded FrozenGraph holds memoryviews into it, and a
        # parent-side unlink leaves attached mappings valid.
        _attached[identity] = (version, segment, shm, payload)
        return kept[2] if kept is not None else None


def lose_segment(ref):
    """Destroy the backing of ``ref`` in place (the ``segment_loss``
    chaos fault: a torn attachment).  The ref itself still travels, so
    the worker's attach fails exactly like a real loss."""
    with _lock:
        owner = _segments.get(ref.segment)
    if owner is not None:
        owner.destroy()
    elif _shared_memory is not None:
        try:
            shm = _attach_shm(ref.segment)
            shm.close()
            shm.unlink()
        except Exception:
            pass


# ----------------------------------------------------------------------
# accounting
# ----------------------------------------------------------------------
def live_segments():
    """Count of shared-memory segments this process currently owns."""
    pid = os.getpid()
    with _lock:
        return sum(1 for seg in _segments.values()
                   if seg._pid == pid and seg._shm is not None)


def live_bytes():
    """Total payload bytes resident in owned segments."""
    pid = os.getpid()
    with _lock:
        return sum(seg.nbytes for seg in _segments.values()
                   if seg._pid == pid and seg._shm is not None)


def plane_stats():
    """The payload-plane block of the engine metrics document."""
    with _lock:
        failures = _attach_failures
    return {
        "transport": _transport(),
        "shm_available": bool(_shared_memory is not None and _shm_ok),
        "shm_segments": live_segments(),
        "payload_bytes": live_bytes(),
        "attach_failures": failures,
    }


@atexit.register
def _sweep():
    """Backstop: unlink every still-owned segment at interpreter exit
    so no run -- even one that skipped engine shutdown -- leaves
    ``resource_tracker`` warnings or orphaned ``/dev/shm`` files.
    Guarded per-segment by owner pid: forked workers inherit
    ``_segments`` but must never unlink the parent's segments."""
    pid = os.getpid()
    with _lock:
        owned = [seg for seg in _segments.values() if seg._pid == pid]
    for seg in owned:
        seg.destroy()
