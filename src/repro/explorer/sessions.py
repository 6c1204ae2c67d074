"""Query sessions: the server's per-browser exploration trails.

* :class:`ExplorationSession` -- the per-browser-session trail: which
  queries ran, in order, with what result summary.  It powers a
  "history" panel and the back-navigation the demo's exploration loop
  implies (Jim Gray -> Stonebraker -> ...).

* :class:`SessionStore` -- the server's sessions by id.

Query results are cached by the engine's
:class:`~repro.engine.cache.ResultCache`, not here.
"""

import threading
import time


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
