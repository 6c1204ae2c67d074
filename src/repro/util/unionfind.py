"""Union-find (disjoint-set) forests.

Two variants are provided:

* :class:`UnionFind` -- the classic structure with union by rank and
  path compression, used wherever connected components are needed
  (graph validation, CODICIL clustering, Steiner search).

* :class:`AnchoredUnionFind` -- the "anchored union-find forest" used
  by the advanced (linear-time) CL-tree construction of the ACQ paper
  (illustrated in Figure 5(b) of the C-Explorer paper).  On top of the
  plain structure it lets each set carry an *anchor* payload -- for the
  CL-tree build, the id of the tree node currently representing that
  partially-built connected component -- which survives unions.
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

    def connected(self, a, b):
        """Return True when ``a`` and ``b`` are in the same set."""
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def sets(self):
        """Return the partition as ``{representative: set(items)}``."""
        groups = {}
        for item in self._parent:
            groups.setdefault(self.find(item), set()).add(item)
        return groups


class AnchoredUnionFind(UnionFind):
    """Union-find whose sets carry an *anchor* payload.

    The CL-tree advanced builder processes vertices in decreasing core
    number; each disjoint set corresponds to a partially assembled
    subtree, and the anchor of the set is the CL-tree node that is the
    current root of that subtree.  Unions keep exactly one anchor per
    set; :meth:`set_anchor` re-points it when a new parent node absorbs
    a component.
    """

    def __init__(self, items=()):
        # _anchor must exist before the base constructor calls add().
        self._anchor = {}
        super().__init__(items)

    def add(self, item):
        known = item in self._parent
        super().add(item)
        if not known:
            self._anchor[item] = None

    def set_anchor(self, item, anchor):
        """Attach ``anchor`` to the set containing ``item``."""
        self._anchor[self.find(item)] = anchor

    def union(self, a, b, anchor=None):
        """Merge sets, keeping ``anchor`` if given, else the winner's."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            if anchor is not None:
                self._anchor[ra] = anchor
            return ra
        anchor_a = self._anchor.get(ra)
        anchor_b = self._anchor.get(rb)
        root = super().union(ra, rb)
        if anchor is not None:
            self._anchor[root] = anchor
        else:
            self._anchor[root] = anchor_a if anchor_a is not None else anchor_b
        return root
