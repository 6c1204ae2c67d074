"""Query sessions (and the original standalone result cache).

* :class:`ExplorationSession` -- the per-browser-session trail: which
  queries ran, in order, with what result summary.  It powers a
  "history" panel and the back-navigation the demo's exploration loop
  implies (Jim Gray -> Stonebraker -> ...).

* :class:`QueryCache` -- the original LRU cache over
  (graph, algorithm, q, k, S) keys.  The server path now uses the
  engine's :class:`~repro.engine.cache.ResultCache` (which adds
  eviction counters and footprint-based selective invalidation).
  QueryCache has no caller outside its own tests; it is due for
  deletion together with them.
"""

import threading
import time
from collections import OrderedDict


class QueryCache:
    """Thread-safe LRU cache for community-search results."""

    def __init__(self, capacity=256):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(graph_name, algorithm, q, k, keywords=None):
        """Build a hashable cache key from query parameters."""
        if isinstance(q, (list, tuple, set)):
            q = tuple(sorted(q))
        kw = frozenset(keywords) if keywords is not None else None
        return (graph_name, algorithm, q, k, kw)

    def get(self, key):
        """Return the cached value or None; refreshes recency."""
        with self._lock:
            if key not in self._data:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]

    def put(self, key, value):
        """Insert ``value``, evicting least-recently-used entries
        beyond the capacity."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def invalidate(self, graph_name=None):
        """Drop everything (or only one graph's entries, e.g. after an
        upload replaced it)."""
        with self._lock:
            if graph_name is None:
                self._data.clear()
                return
            stale = [k for k in self._data if k[0] == graph_name]
            for k in stale:
                del self._data[k]

    def __len__(self):
        return len(self._data)

    def stats(self):
        """Occupancy and hit-rate counters."""
        total = self.hits + self.misses
        return {
            "entries": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
        }


class ExplorationSession:
    """One user's exploration trail (the history panel)."""

    def __init__(self, session_id, max_entries=200):
        self.session_id = session_id
        self.max_entries = max_entries
        self._entries = []

    def record(self, algorithm, query_vertex, k, community_count,
               keywords=None):
        """Append one query to the trail."""
        self._entries.append({
            "timestamp": time.time(),
            "algorithm": algorithm,
            "vertex": query_vertex,
            "k": k,
            "keywords": sorted(keywords) if keywords else None,
            "communities": community_count,
        })
        if len(self._entries) > self.max_entries:
            self._entries = self._entries[-self.max_entries:]

    def history(self, limit=None):
        """Most-recent-first trail entries."""
        entries = list(reversed(self._entries))
        return entries[:limit] if limit is not None else entries

    def last(self):
        """The most recent entry, or ``None``."""
        return self._entries[-1] if self._entries else None

    def __len__(self):
        return len(self._entries)


class SessionStore:
    """Thread-safe registry of exploration sessions by id."""

    def __init__(self):
        self._sessions = {}
        self._lock = threading.Lock()
        self._counter = 0

    def create(self):
        """Mint a fresh session; returns it."""
        with self._lock:
            self._counter += 1
            session_id = "s{:06d}".format(self._counter)
            session = ExplorationSession(session_id)
            self._sessions[session_id] = session
            return session

    def get(self, session_id, create_missing=True):
        """Fetch a session by id; unknown ids create a new session
        under that id when ``create_missing`` (browser reconnects)."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None and create_missing:
                session = ExplorationSession(session_id)
                self._sessions[session_id] = session
            return session

    def __len__(self):
        return len(self._sessions)
