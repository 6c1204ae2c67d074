"""Union-find (disjoint-set) forest.

:class:`UnionFind` is the classic structure with union by rank and
path compression.  The advanced CL-tree construction
(:func:`~repro.core.cltree.build_cltree`) runs on it and keeps each
set's anchor node in a dict beside it.
"""


class UnionFind:
    """Disjoint-set forest over arbitrary hashable items.

    Items are added lazily on first use.  ``find`` uses iterative path
    compression (no recursion, safe for million-element graphs) and
    ``union`` uses union by rank.
    """

    def __init__(self, items=()):
        self._parent = {}
        self._rank = {}
        for item in items:
            self.add(item)

    def add(self, item):
        """Register ``item`` as a singleton set if not already present."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def __contains__(self, item):
        return item in self._parent

    def __len__(self):
        return len(self._parent)

    def find(self, item):
        """Return the canonical representative of ``item``'s set."""
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        # Path compression: point every node on the path at the root.
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a, b):
        """Merge the sets containing ``a`` and ``b``.

        Returns the representative of the merged set.  Both items are
        added if missing.
        """
        self.add(a)
        self.add(b)
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra
