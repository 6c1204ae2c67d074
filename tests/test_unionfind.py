"""Unit and property tests for the union-find forests."""

import pytest
from hypothesis import given, strategies as st

from repro.util.unionfind import UnionFind


def _set_count(uf, items):
    """How many disjoint sets ``items`` fall into, read off ``find``."""
    return len({uf.find(item) for item in items})


def _same_set(uf, a, b):
    """Whether ``a`` and ``b`` are known and share a representative."""
    return a in uf and b in uf and uf.find(a) == uf.find(b)


class TestUnionFind:
    def test_singletons_are_their_own_roots(self):
        uf = UnionFind(range(5))
        for i in range(5):
            assert uf.find(i) == i
        assert _set_count(uf, range(5)) == 5

    def test_union_merges_and_counts(self):
        uf = UnionFind(range(4))
        uf.union(0, 1)
        assert _same_set(uf, 0, 1)
        assert not _same_set(uf, 0, 2)
        assert _set_count(uf, range(4)) == 3
        uf.union(2, 3)
        uf.union(1, 3)
        assert _same_set(uf, 0, 2)
        assert _set_count(uf, range(4)) == 1

    def test_union_is_idempotent(self):
        uf = UnionFind(range(3))
        uf.union(0, 1)
        roots = [uf.find(i) for i in range(3)]
        uf.union(0, 1)
        uf.union(1, 0)
        assert [uf.find(i) for i in range(3)] == roots
        assert _set_count(uf, range(3)) == 2

    def test_items_added_lazily_by_union(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert _same_set(uf, "a", "b")
        assert len(uf) == 2

    def test_contains(self):
        uf = UnionFind(["x"])
        assert "x" in uf
        assert "y" not in uf

    def test_connected_unknown_items_is_false(self):
        uf = UnionFind(["x"])
        assert not _same_set(uf, "x", "zzz")
        assert not _same_set(uf, "zzz", "x")
        with pytest.raises(KeyError):
            uf.find("zzz")

    def test_sets_partition(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(3, 4)
        groups = {}
        for item in range(6):
            groups.setdefault(uf.find(item), set()).add(item)
        assert sorted(sorted(s) for s in groups.values()) == \
            [[0, 1], [2, 3, 4], [5]]

    def test_add_existing_is_noop(self):
        uf = UnionFind([1])
        uf.union(1, 2)
        uf.add(1)
        assert len(uf) == 2
        assert _set_count(uf, (1, 2)) == 1

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
                    max_size=60))
    def test_matches_naive_partition(self, unions):
        """Property: connectivity agrees with a naive set-merging model."""
        uf = UnionFind(range(20))
        naive = [{i} for i in range(20)]

        def naive_find(x):
            for group in naive:
                if x in group:
                    return group
            raise AssertionError

        for a, b in unions:
            uf.union(a, b)
            ga, gb = naive_find(a), naive_find(b)
            if ga is not gb:
                ga |= gb
                naive.remove(gb)
        for a in range(20):
            for b in range(20):
                assert _same_set(uf, a, b) == (naive_find(a) is naive_find(b))
        assert _set_count(uf, range(20)) == len(naive)


@pytest.mark.parametrize("n", [1, 2, 100])
def test_chain_union_compresses(n):
    uf = UnionFind(range(n))
    for i in range(n - 1):
        uf.union(i, i + 1)
    assert _set_count(uf, range(n)) == 1
    root = uf.find(0)
    assert all(uf.find(i) == root for i in range(n))
