"""Updatable min-heap keyed by item.

The ``Local`` community-search baseline pops the best-scored frontier
vertex while scores change, so it needs a priority queue supporting
decrease/increase-key, which :mod:`heapq` alone does not.  The classic
lazy-deletion wrapper below provides it with O(log n) amortised ops.
"""

import heapq
import itertools

_REMOVED = object()


class UpdatableMinHeap:
    """Min-heap of ``(priority, item)`` with O(log n) priority updates.

    Items must be hashable and unique.  To obtain max-heap behaviour,
    negate priorities at the call site.
    """

    def __init__(self):
        self._heap = []
        self._entries = {}
        self._counter = itertools.count()

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __contains__(self, item):
        return item in self._entries

    def push(self, item, priority):
        """Insert ``item`` or update its priority if already present."""
        if item in self._entries:
            self._entries[item][-1] = _REMOVED
        entry = [priority, next(self._counter), item]
        self._entries[item] = entry
        heapq.heappush(self._heap, entry)

    def discard(self, item):
        """Remove ``item`` if present; no-op otherwise."""
        entry = self._entries.pop(item, None)
        if entry is not None:
            entry[-1] = _REMOVED

    def pop(self):
        """Remove and return ``(item, priority)`` with smallest priority."""
        while self._heap:
            priority, _, item = heapq.heappop(self._heap)
            if item is not _REMOVED:
                del self._entries[item]
                return item, priority
        raise KeyError("pop from empty heap")

