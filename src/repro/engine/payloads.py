"""The zero-copy payload plane: shared-memory CSR segments and the
persistent warm store.

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
   owned by the parent; unlinked on version bump, eviction, engine
   shutdown, and (backstop) at interpreter exit, so no
   ``resource_tracker`` leak warnings survive a clean run.
2. **pickle** -- the pickled-blob path: the only transport on hosts
   without ``/dev/shm`` (segment creation failing poisons the shm
   rung for the process) and the reference the transport-equivalence
   tests compare against.

A failed attach in a worker raises
:class:`~repro.util.errors.PayloadCorruptionError` carrying the
payload key, which plugs into the existing resilience ladder:
quarantine -> ``discard_payload`` (which unlinks the segment) -> one
retry against a freshly frozen and published payload.  The chaos
plane's ``segment_loss`` fault exercises exactly this recovery.

Persistence rides on the same byte layout: :class:`GraphStore` writes
the packed payload to ``frozen.bin`` (re-loaded via ``mmap``, also
zero-copy) next to the serialized CL-tree and a fingerprint, and
:class:`ResultSpill` spills :class:`~repro.engine.cache.ResultCache`
entries to disk keyed by ``(graph, version, query)`` -- together they
let a restarted server come up warm instead of rebuilding indexes and
caches from nothing.
"""

import atexit
import hashlib
import json
import mmap
import os
import pickle
import re
import shutil
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

# Packed payload layout: magic, then byte lengths of the four parts
# (raw int32 indptr, raw int32 indices, a reserved slot holding a
# pickled ``None`` -- kept so stored ``frozen.bin`` files stay
# readable -- and the pickled keyword/label sidecar), then the parts
# themselves.  The sidecar stays *undecoded in the buffer* until a vertex
# attribute is actually read -- structural kernels never pay for it.
# Identical for shm segments and on-disk ``frozen.bin`` files, so
# attach and mmap-load share one decoder.
_MAGIC = b"RPP2"
_HEADER = struct.Struct("<4sQQQQ")

_lock = threading.RLock()
_segments = {}            # name -> Segment (parent-side owners)
# Payload identity ``key[:3]`` -> (version, segment name, SharedMemory
# or None, decoded payload): the one attachment this process keeps per
# graph.  A newer version of the same identity replaces (and
# closes) its predecessor, so version churn never accumulates
# mappings in a long-lived worker.
_attached = {}
_mmaps = []               # (mmap, file) keep-alive for store loads
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
# packing / unpacking (shared by shm segments and the disk store)
# ----------------------------------------------------------------------
def _array_bytes(arr):
    """Raw little-endian int32 bytes of a CSR array (array or view)."""
    if isinstance(arr, array):
        return arr.tobytes()
    return bytes(arr)


def pack_payload(frozen):
    """Pack a frozen graph into the flat segment/file layout.  Returns
    a list of byte chunks."""
    frozen._ensure_sidecar()
    indptr = _array_bytes(frozen.indptr)
    indices = _array_bytes(frozen.indices)
    meta = pickle.dumps(None, protocol=pickle.HIGHEST_PROTOCOL)
    sidecar = pickle.dumps((frozen._keywords, frozen._labels),
                           protocol=pickle.HIGHEST_PROTOCOL)
    header = _HEADER.pack(_MAGIC, len(indptr), len(indices),
                          len(meta), len(sidecar))
    return [header, indptr, indices, meta, sidecar]


def unpack_payload(buf, key=None):
    """Decode a packed payload from ``buf`` (a memoryview over a shm
    segment or mmap).  The CSR arrays stay *views into the buffer* --
    this is the zero-copy attach -- and the keyword/label sidecar is
    handed to the snapshot as a lazy loader over its buffer slice, so
    a structural query never unpickles it.  Returns the
    :class:`FrozenGraph` ``pickle.loads`` produces on the blob path.
    """
    from repro.graph.frozen import FrozenGraph

    try:
        magic, n_indptr, n_indices, n_meta, n_sidecar = \
            _HEADER.unpack_from(buf, 0)
        if magic != _MAGIC:
            raise ValueError("bad payload magic: {!r}".format(magic))
        off = _HEADER.size
        if off + n_indptr + n_indices + n_meta + n_sidecar > len(buf):
            raise ValueError("payload buffer is truncated")
        indptr = buf[off:off + n_indptr].cast("i")
        off += n_indptr
        indices = buf[off:off + n_indices].cast("i")
        off += n_indices + n_meta
        side = buf[off:off + n_sidecar]
    except PayloadCorruptionError:
        raise
    except Exception as exc:
        raise PayloadCorruptionError(
            "payload segment decode failed: {}".format(exc), key=key)

    def load_sidecar(view=side, key=key):
        # The closed-over view pins the segment/mmap mapping alive
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
    :class:`PayloadCorruptionError` with the *real* key, so quarantine
    targets the right payload."""
    return ShmPayloadRef(ref.segment, ref.key, ref.nbytes,
                         corrupted=True)


# ----------------------------------------------------------------------
# parent side: segment ownership
# ----------------------------------------------------------------------
if _shared_memory is not None:
    class _QuietSharedMemory(_shared_memory.SharedMemory):
        """``SharedMemory`` that tolerates live exported views.

        A zero-copy consumer in *this* process (inline fallback,
        thread backend, mmap twin) holds memoryviews into the
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
    :class:`PayloadCorruptionError` carrying the payload key, which
    the engine's quarantine/retry ladder turns into a fresh payload
    on the next attempt.

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


# ----------------------------------------------------------------------
# the persistent warm store
# ----------------------------------------------------------------------
STORE_FORMAT = "c-explorer-store"
STORE_VERSION = 2  # 2: RPP2 split-sidecar frozen.bin layout
ENV_STORE = "REPRO_STORE_DIR"


def _atomic_write(path, data):
    tmp = "{}.tmp.{}".format(path, os.getpid())
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def _stable(value):
    """A deterministic, order-independent form of a cache key part
    (frozenset iteration order varies across interpreter runs)."""
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(_stable(v) for v in value))
    if isinstance(value, (list, tuple)):
        return tuple(_stable(v) for v in value)
    return value


def fingerprint(frozen):
    """A restart-stable identity for a frozen graph: CSR bytes plus a
    canonical rendering of labels and keyword sets.  Pickle bytes are
    *not* stable across runs (hash-randomised set ordering), so the
    sidecar is hashed in sorted form instead."""
    digest = hashlib.sha256()
    digest.update(_array_bytes(frozen.indptr))
    digest.update(b"|")
    digest.update(_array_bytes(frozen.indices))
    digest.update(b"|")
    for v in range(frozen.vertex_count):
        digest.update(repr((frozen.label(v),
                            sorted(frozen.keywords(v)))).encode("utf-8"))
    return digest.hexdigest()


def load_frozen_mmap(path, key=None):
    """Memory-map a packed payload file and decode it zero-copy (the
    warm-restart twin of a shm attach).  The mapping is pinned for the
    process lifetime -- the returned graph's CSR arrays are views into
    it."""
    handle = open(path, "rb")
    try:
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except Exception:
        handle.close()
        raise
    with _lock:
        _mmaps.append((mapping, handle))
    return unpack_payload(memoryview(mapping), key=key)


class GraphStore:
    """Per-graph on-disk store: packed frozen payload, serialized
    CL-tree (the :mod:`repro.core.persistence` JSON format), metadata
    with a content fingerprint, and the result-spill directory.

    Layout::

        <root>/<slug>/meta.json      identity + fingerprint
        <root>/<slug>/frozen.bin     packed payload (mmap-loaded)
        <root>/<slug>/cltree.json    c-explorer-cltree document
        <root>/<slug>/results/<version>/<keyhash>.pkl
    """

    def __init__(self, root):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths ---------------------------------------------------------
    def _slug(self, name):
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)[:48]
        tag = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
        return "{}-{}".format(safe, tag)

    def graph_dir(self, name, create=False):
        path = os.path.join(self.root, self._slug(name))
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def results_dir(self, name, version, create=False):
        path = os.path.join(self.graph_dir(name), "results", str(version))
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    # -- save / load ---------------------------------------------------
    def save(self, name, frozen, cltree=None):
        """Persist ``name``'s frozen payload (and CL-tree, when built)
        with its fingerprint.  Atomic per file: a crashed save leaves
        the previous generation readable."""
        from repro.core import persistence

        base = self.graph_dir(name, create=True)
        _atomic_write(os.path.join(base, "frozen.bin"),
                      b"".join(pack_payload(frozen)))
        if cltree is not None:
            doc = json.dumps(persistence.cltree_to_dict(cltree),
                             indent=0, sort_keys=True)
            _atomic_write(os.path.join(base, "cltree.json"),
                          doc.encode("utf-8"))
        meta = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "graph": name,
            "fingerprint": fingerprint(frozen),
            "vertex_count": frozen.vertex_count,
            "edge_count": frozen.edge_count,
            "has_cltree": cltree is not None or self.has_cltree(name),
        }
        _atomic_write(os.path.join(base, "meta.json"),
                      json.dumps(meta, indent=2).encode("utf-8"))
        return meta

    def meta(self, name):
        """The stored metadata for ``name`` or ``None``."""
        path = os.path.join(self.graph_dir(name), "meta.json")
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            return None
        if doc.get("format") != STORE_FORMAT:
            return None
        return doc

    def has_cltree(self, name):
        return os.path.exists(os.path.join(self.graph_dir(name),
                                           "cltree.json"))

    def matches(self, name, frozen):
        """Whether the stored snapshot is byte-identical to
        ``frozen`` (the warm-restart admission check)."""
        meta = self.meta(name)
        return (meta is not None
                and meta.get("fingerprint") == fingerprint(frozen))

    def load_frozen(self, name):
        """The stored payload as an mmap-backed frozen graph."""
        return load_frozen_mmap(
            os.path.join(self.graph_dir(name), "frozen.bin"))

    def load_cltree(self, name, graph):
        """Deserialize the stored CL-tree bound to ``graph``."""
        from repro.core import persistence

        return persistence.load_cltree(
            os.path.join(self.graph_dir(name), "cltree.json"), graph)

    # -- inspection / maintenance (the ``repro cache`` CLI) ------------
    def describe(self):
        """Occupancy report: per-graph payload/CL-tree/result bytes."""
        graphs = []
        total_bytes = 0
        for entry in sorted(os.listdir(self.root)):
            base = os.path.join(self.root, entry)
            meta_path = os.path.join(base, "meta.json")
            if not os.path.isfile(meta_path):
                continue
            try:
                with open(meta_path, encoding="utf-8") as handle:
                    meta = json.load(handle)
            except (OSError, ValueError):
                continue
            sizes = {}
            for fname in ("frozen.bin", "cltree.json"):
                path = os.path.join(base, fname)
                sizes[fname] = (os.path.getsize(path)
                                if os.path.exists(path) else 0)
            result_entries = 0
            result_bytes = 0
            results = os.path.join(base, "results")
            if os.path.isdir(results):
                for dirpath, _dirs, files in os.walk(results):
                    for fname in files:
                        result_entries += 1
                        result_bytes += os.path.getsize(
                            os.path.join(dirpath, fname))
            doc = {
                "graph": meta.get("graph", entry),
                "fingerprint": meta.get("fingerprint"),
                "payload_bytes": sizes["frozen.bin"],
                "cltree_bytes": sizes["cltree.json"],
                "result_entries": result_entries,
                "result_bytes": result_bytes,
            }
            total_bytes += (sizes["frozen.bin"] + sizes["cltree.json"]
                            + result_bytes)
            graphs.append(doc)
        return {"path": self.root, "graphs": graphs,
                "total_bytes": total_bytes}

    def clear(self):
        """Delete every stored graph.  Returns the number removed."""
        removed = 0
        for entry in list(os.listdir(self.root)):
            base = os.path.join(self.root, entry)
            if os.path.isdir(base) and os.path.isfile(
                    os.path.join(base, "meta.json")):
                shutil.rmtree(base, ignore_errors=True)
                removed += 1
        return removed


class ResultSpill:
    """Disk spill for the result cache, keyed ``(graph, version,
    query)``.

    Entries are written in the graph-free :meth:`Community.to_wire`
    form (values that are not community lists stay memory-only), so
    readmission just rebinds to the live graph.  Version is part of
    the path: a maintenance bump orphans old entries instead of
    requiring coordinated invalidation, and a warm restart readmits
    only results for the exact stored snapshot.
    """

    def __init__(self, store, version_of, rebind):
        self._store = store
        self._version_of = version_of
        self._rebind = rebind
        self._io_lock = threading.Lock()
        self.writes = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.bytes_written = 0

    def _path(self, key, version, create=False):
        token = repr(_stable(key)).encode("utf-8")
        digest = hashlib.sha256(token).hexdigest()
        directory = self._store.results_dir(key[0], version, create=create)
        return os.path.join(directory, digest + ".pkl")

    def _encode(self, value):
        if not isinstance(value, list) or not value:
            return None
        wires = []
        for item in value:
            to_wire = getattr(item, "to_wire", None)
            if to_wire is None:
                return None
            wires.append(to_wire())
        return wires

    def offer(self, key, value, vertices):
        """Spill one evicted/flushed entry; silently skips values with
        no wire form and graphs with no known version."""
        wires = self._encode(value)
        if wires is None:
            return False
        version = self._version_of(key[0])
        if version is None:
            return False
        blob = pickle.dumps(
            {"wires": wires,
             "vertices": sorted(vertices) if vertices else None},
            protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with self._io_lock:
                _atomic_write(self._path(key, version, create=True), blob)
        except OSError:
            self.errors += 1
            return False
        self.writes += 1
        self.bytes_written += len(blob)
        return True

    def fetch(self, key):
        """Readmit a spilled entry for the graph's *current* version,
        or ``None``.  Returns ``(value, vertices)``."""
        version = self._version_of(key[0])
        if version is None:
            self.misses += 1
            return None
        path = self._path(key, version)
        try:
            with open(path, "rb") as handle:
                doc = pickle.loads(handle.read())
            value = self._rebind(key[0], doc["wires"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            self.errors += 1
            return None
        self.hits += 1
        vertices = doc.get("vertices")
        return value, (set(vertices) if vertices is not None else None)

    def stats(self):
        return {
            "enabled": True,
            "writes": self.writes,
            "hits": self.hits,
            "misses": self.misses,
            "errors": self.errors,
            "bytes_written": self.bytes_written,
        }
