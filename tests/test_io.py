"""Tests for graph (de)serialisation: the `upload` path."""

import json

import pytest
from hypothesis import given

from repro.graph.io import (
    load_graph,
    read_edge_list,
    read_graph_json,
    write_graph_json,
)
from repro.util.errors import GraphFormatError

from conftest import random_graphs
from support.edge_list import write_edge_list


def _graphs_equal(a, b):
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return False
    for v in a.vertices():
        if a.display_name(v) != b.display_name(v):
            return False
        if a.keywords(v) != b.keywords(v):
            return False
    return sorted(a.edges()) == sorted(b.edges())


class TestEdgeList:
    def test_roundtrip_fig5(self, fig5, tmp_path):
        path = str(tmp_path / "g.txt")
        write_edge_list(fig5, path)
        loaded = read_edge_list(path)
        assert _graphs_equal(fig5, loaded)

    def test_plain_two_column_format(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("% comment\na b\nb c\n\na c\n")
        g = read_edge_list(str(path))
        assert g.vertex_count == 3
        assert g.edge_count == 3
        assert g.keywords(g.id_of("a")) == frozenset()

    def test_vertex_lines_with_keywords(self, tmp_path):
        path = tmp_path / "attr.txt"
        path.write_text("#v alice data web\n#v bob data\nalice bob\n")
        g = read_edge_list(str(path))
        assert g.keywords(g.id_of("alice")) == {"data", "web"}
        assert g.keywords(g.id_of("bob")) == {"data"}
        assert g.has_edge(0, 1)

    def test_labels_with_spaces_escape(self, tmp_path):
        from repro.graph.attributed import AttributedGraph
        g = AttributedGraph()
        g.add_vertex("Jim Gray", {"data"})
        g.add_vertex("Michael Stonebraker")
        g.add_edge(0, 1)
        path = str(tmp_path / "spaces.txt")
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.has_label("Jim Gray")
        assert loaded.has_label("Michael Stonebraker")
        assert loaded.edge_count == 1

    def test_vertex_line_updates_keywords_of_known_vertex(self, tmp_path):
        path = tmp_path / "late.txt"
        path.write_text("a b\n#v a data\n")
        g = read_edge_list(str(path))
        assert g.keywords(g.id_of("a")) == {"data"}

    def test_bad_edge_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b c d\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            read_edge_list(str(path))

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("a a\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(str(path))

    def test_vertex_line_without_label(self, tmp_path):
        path = tmp_path / "nolabel.txt"
        path.write_text("#v\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(str(path))


class TestJson:
    def test_roundtrip_fig5(self, fig5, tmp_path):
        path = str(tmp_path / "g.json")
        write_graph_json(fig5, path)
        loaded = read_graph_json(path)
        assert _graphs_equal(fig5, loaded)

    def test_read_from_dict_and_string(self, fig5):
        doc = write_graph_json(fig5)
        assert _graphs_equal(fig5, read_graph_json(doc))
        assert _graphs_equal(fig5, read_graph_json(json.dumps(doc)))

    def test_wrong_format_marker(self):
        with pytest.raises(GraphFormatError):
            read_graph_json({"format": "something-else"})

    def test_bad_edge_entry(self):
        doc = {"format": "c-explorer-graph",
               "vertices": [{"id": 0}], "edges": [[0]]}
        with pytest.raises(GraphFormatError):
            read_graph_json(doc)

    def test_edge_to_unknown_vertex(self):
        doc = {"format": "c-explorer-graph",
               "vertices": [{"id": 0}], "edges": [[0, 7]]}
        with pytest.raises(GraphFormatError):
            read_graph_json(doc)

    def test_non_contiguous_source_ids_remapped(self):
        doc = {"format": "c-explorer-graph",
               "vertices": [{"id": 10, "label": "a"},
                            {"id": 20, "label": "b"}],
               "edges": [[10, 20]]}
        g = read_graph_json(doc)
        assert g.vertex_count == 2
        assert g.has_edge(0, 1)


class TestLoadGraph:
    def test_dispatch_on_extension(self, fig5, tmp_path):
        json_path = str(tmp_path / "g.json")
        txt_path = str(tmp_path / "g.txt")
        write_graph_json(fig5, json_path)
        write_edge_list(fig5, txt_path)
        assert _graphs_equal(load_graph(json_path), load_graph(txt_path))


@given(random_graphs(keywords=list("abcxyz")))
def test_json_roundtrip_property(g):
    """Property: JSON serialisation round-trips arbitrary graphs."""
    doc = write_graph_json(g)
    assert _graphs_equal(g, read_graph_json(doc))
