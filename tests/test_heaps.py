"""Unit and property tests for the updatable min-heap."""

import pytest
from hypothesis import given, strategies as st

from repro.util.heaps import UpdatableMinHeap


def _heap(pairs):
    """A heap holding ``(item, priority)`` pairs, pushed in order."""
    heap = UpdatableMinHeap()
    for item, priority in pairs:
        heap.push(item, priority)
    return heap


class TestUpdatableMinHeap:
    def test_pop_returns_minimum(self):
        heap = _heap([("a", 3), ("b", 1), ("c", 2)])
        assert heap.pop() == ("b", 1)
        assert heap.pop() == ("c", 2)
        assert heap.pop() == ("a", 3)

    def test_pop_empty_raises(self):
        with pytest.raises(KeyError):
            UpdatableMinHeap().pop()

    def test_push_updates_priority(self):
        heap = _heap([("a", 5), ("b", 4)])
        heap.push("a", 1)
        assert heap.pop() == ("a", 1)
        assert heap.pop() == ("b", 4)

    def test_discard_removes(self):
        heap = _heap([("a", 1), ("b", 2)])
        heap.discard("a")
        assert "a" not in heap
        assert heap.pop() == ("b", 2)

    def test_discard_missing_is_noop(self):
        heap = UpdatableMinHeap()
        heap.discard("ghost")
        assert len(heap) == 0

    def test_len_and_bool(self):
        heap = UpdatableMinHeap()
        assert not heap
        heap.push("x", 0)
        assert heap
        assert len(heap) == 1

    def test_contains_after_update(self):
        heap = _heap([("a", 1)])
        heap.push("a", 10)
        assert "a" in heap
        heap.pop()
        assert "a" not in heap

    def test_stale_entries_do_not_resurface(self):
        heap = UpdatableMinHeap()
        heap.push("a", 1)
        heap.push("a", 50)
        heap.push("b", 10)
        assert heap.pop() == ("b", 10)
        assert heap.pop() == ("a", 50)
        assert not heap


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(-100, 100)),
                max_size=80))
def test_heap_sorts_like_sorted(ops):
    """Property: after arbitrary pushes/updates, draining the heap
    yields items in nondecreasing final-priority order and exactly the
    surviving key set."""
    heap = UpdatableMinHeap()
    final = {}
    for key, priority in ops:
        heap.push(key, priority)
        final[key] = priority
    drained = []
    while heap:
        drained.append(heap.pop())
    assert sorted(k for k, _ in drained) == sorted(final)
    priorities = [p for _, p in drained]
    assert priorities == sorted(priorities)
    for key, priority in drained:
        assert final[key] == priority
