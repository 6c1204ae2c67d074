"""Author-name autocompletion for the query box.

The demo UI's name field ("jim gray" with a "+" to add more authors)
needs fast prefix lookup over a million author names.  A compressed-
enough character trie gives O(|prefix| + results) suggestions; lookups
are case-insensitive, matching how the demo accepts "jim gray" for
"Jim Gray".
"""

import threading


class _TrieNode:
    __slots__ = ("children", "name")

    def __init__(self):
        self.children = {}
        self.name = None  # set on terminal nodes to the original name


class NameIndex:
    """Prefix index over vertex display names, plus the
    case-insensitive label lookup behind "jim gray" (:meth:`find`).

    >>> index = NameIndex(["Jim Gray", "Jennifer Widom"])
    >>> index.suggest("ji")
    ['Jim Gray']
    """

    def __init__(self, names=()):
        self._root = _TrieNode()
        self._count = 0
        self._covered = 0       # graph vertices indexed by extend()
        self._folded = {}       # lowercased label -> first vertex id
        self._folded_covered = 0  # graph vertices folded by find()
        self._extend_lock = threading.Lock()
        for name in names:
            self.add(name)

    def extend(self, graph):
        """Index the display names of the vertices appended to
        ``graph`` since the last call.  Vertex ids are dense and only
        ever appended, so the vertices already covered need no
        second look."""
        count = graph.vertex_count
        if self._covered < count:
            with self._extend_lock:
                for v in range(self._covered, count):
                    self.add(graph.display_name(v))
                self._covered = max(self._covered, count)

    def find(self, graph, name):
        """The id of the first vertex of ``graph`` whose label equals
        ``name`` up to case and surrounding whitespace, or ``None``.

        The lowercase map is built on the first call and afterwards
        extended, like the trie, by the vertices appended since.  An
        unlabelled vertex's ``v<id>`` display name never matches.
        """
        count = graph.vertex_count
        if self._folded_covered < count:
            with self._extend_lock:
                for v in range(self._folded_covered, count):
                    label = graph.label(v)
                    if label is not None:
                        self._folded.setdefault(label.lower(), v)
                self._folded_covered = max(self._folded_covered, count)
        return self._folded.get(name.strip().lower())

    def __len__(self):
        return self._count

    def add(self, name):
        """Insert ``name``; duplicates are ignored."""
        node = self._root
        for ch in name.lower():
            node = node.children.setdefault(ch, _TrieNode())
        if node.name is None:
            node.name = name
            self._count += 1

    def __contains__(self, name):
        node = self._find(name.lower())
        return node is not None and node.name is not None

    def suggest(self, prefix, limit=10):
        """Up to ``limit`` names starting with ``prefix`` (sorted).

        An empty prefix returns the lexicographically first names --
        what the UI shows before the user types.
        """
        node = self._find(prefix.lower())
        if node is None:
            return []
        out = []
        # Iterative DFS in sorted-child order yields sorted names.
        stack = [node]
        while stack and len(out) < limit:
            current = stack.pop()
            if current.name is not None:
                out.append(current.name)
            for ch in sorted(current.children, reverse=True):
                stack.append(current.children[ch])
        return out[:limit]

    def _find(self, prefix):
        node = self._root
        for ch in prefix:
            node = node.children.get(ch)
            if node is None:
                return None
        return node
