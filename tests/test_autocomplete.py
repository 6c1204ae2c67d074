"""Tests for the author-name prefix index."""

import sys
import threading

from hypothesis import given, strategies as st

from repro.explorer.autocomplete import NameIndex
from repro.graph.attributed import AttributedGraph


def _indexed(graph):
    """A name index over every display name of ``graph``."""
    index = NameIndex()
    index.extend(graph)
    return index


class TestNameIndex:
    def test_basic_suggest(self):
        index = NameIndex(["Jim Gray", "Jennifer Widom", "Joe Smith"])
        assert index.suggest("ji") == ["Jim Gray"]
        assert index.suggest("j") == ["Jennifer Widom", "Jim Gray",
                                      "Joe Smith"]

    def test_case_insensitive(self):
        index = NameIndex(["Jim Gray"])
        assert index.suggest("JIM") == ["Jim Gray"]
        assert index.suggest("jIm g") == ["Jim Gray"]
        assert "jim gray" in index
        assert "JIM GRAY" in index

    def test_limit(self):
        index = NameIndex("name{:02d}".format(i) for i in range(30))
        assert len(index.suggest("name", limit=5)) == 5
        assert index.suggest("name", limit=5) == \
            ["name00", "name01", "name02", "name03", "name04"]

    def test_no_match(self):
        index = NameIndex(["Jim Gray"])
        assert index.suggest("zz") == []
        assert "Nobody" not in index

    def test_empty_prefix_returns_first_names(self):
        index = NameIndex(["b", "a", "c"])
        assert index.suggest("", limit=2) == ["a", "b"]

    def test_duplicates_ignored(self):
        index = NameIndex(["Jim Gray", "Jim Gray"])
        assert len(index) == 1

    def test_prefix_name_ordering(self):
        index = NameIndex(["Jim", "Jim Gray"])
        assert index.suggest("jim") == ["Jim", "Jim Gray"]

    def test_from_graph(self, fig5):
        index = _indexed(fig5)
        assert len(index) == 10
        assert index.suggest("a") == ["A"]

    def test_extend_indexes_appended_vertices(self, fig5):
        graph = fig5.copy()
        index = _indexed(graph)
        graph.add_vertex("Zed Newauthor")
        assert index.suggest("zed") == []
        index.extend(graph)
        assert index.suggest("zed") == ["Zed Newauthor"]
        assert len(index) == 11
        index.extend(graph)             # nothing appended since
        assert len(index) == 11

    def test_dblp_lookup(self, dblp_small):
        index = _indexed(dblp_small)
        assert "Jim Gray" in index.suggest("jim")

    @given(st.lists(st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
        min_size=1, max_size=8), max_size=25), st.text(
        alphabet=st.characters(whitelist_categories=("Ll",)),
        max_size=3))
    def test_suggest_matches_linear_scan(self, names, prefix):
        """Property: trie suggestions equal a sorted linear filter.

        Names differing only by case collapse to one entry (first
        insertion wins), matching the index's case-insensitive key."""
        index = NameIndex(names)
        kept = {}
        for name in names:
            kept.setdefault(name.lower(), name)
        expected = sorted(
            (original for key, original in kept.items()
             if key.startswith(prefix)),
            key=str.lower)
        assert index.suggest(prefix, limit=100) == expected[:100]


def test_find_races_appends_without_losing_a_label():
    """Readers race the lowercase map's first fill while a writer
    appends labelled vertices: every lookup answers, none raises, and
    no appended label is skipped."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            _race_find_against_appends()
    finally:
        sys.setswitchinterval(interval)


def _race_find_against_appends():
    graph = AttributedGraph()
    for i in range(2000):
        graph.add_vertex("Name {}".format(i))
    index = NameIndex()
    errors = []
    start = threading.Barrier(8)

    def read(offset):
        start.wait()
        try:
            for i in range(offset, 2000, 7):
                if index.find(graph, "name {}".format(i)) != i:
                    errors.append(i)
        except Exception as exc:
            errors.append(exc)

    def write():
        start.wait()
        try:
            for i in range(2000, 2400):
                graph.add_vertex("Name {}".format(i))
                index.find(graph, "name 0")
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=read, args=(offset,))
               for offset in range(7)]
    threads.append(threading.Thread(target=write))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(index.find(graph, "NAME {}".format(i)) == i
               for i in range(2400))
