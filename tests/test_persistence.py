"""Tests for CL-tree save/load."""

import pytest
from hypothesis import given

from repro.core.cltree import build_cltree
from repro.core.persistence import (
    cltree_from_dict,
    cltree_to_dict,
    load_cltree,
    save_cltree,
)
from repro.util.errors import GraphFormatError

from conftest import build_graph, random_graphs


def _trees_equal(a, b):
    def shape(tree):
        def node_shape(node):
            return (node.k, frozenset(node.vertices),
                    frozenset(node_shape(c) for c in node.children))
        return frozenset(node_shape(r) for r in tree.roots)
    return shape(a) == shape(b) and a.core == b.core


class TestRoundtrip:
    def test_fig5_roundtrip(self, fig5, tmp_path):
        tree = build_cltree(fig5)
        path = str(tmp_path / "index.json")
        save_cltree(tree, path)
        loaded = load_cltree(path, fig5)
        assert _trees_equal(tree, loaded)
        assert loaded.describe() == tree.describe()

    def test_loaded_index_answers_queries(self, fig5, tmp_path):
        tree = build_cltree(fig5)
        path = str(tmp_path / "index.json")
        save_cltree(tree, path)
        loaded = load_cltree(path, fig5)
        a = fig5.id_of("A")
        for k in range(4):
            assert loaded.community_vertices(a, k) == \
                tree.community_vertices(a, k)

    def test_inverted_lists_rebuilt(self, fig5, tmp_path):
        tree = build_cltree(fig5)
        path = str(tmp_path / "index.json")
        save_cltree(tree, path)
        loaded = load_cltree(path, fig5)
        node = loaded.component_root(fig5.id_of("A"), 3)
        assert sorted(fig5.label(v) for v in node.inverted["x"]) == \
            ["A", "B", "C", "D"]

    @given(random_graphs(max_n=20, max_m=60, keywords=list("abc")))
    def test_roundtrip_property(self, g):
        tree = build_cltree(g)
        doc = cltree_to_dict(tree)
        import json
        doc = json.loads(json.dumps(doc))  # force JSON fidelity
        loaded = cltree_from_dict(doc, g)
        assert _trees_equal(tree, loaded)


class TestValidation:
    def test_wrong_format(self, fig5):
        with pytest.raises(GraphFormatError):
            cltree_from_dict({"format": "nope"}, fig5)

    def test_vertex_count_mismatch(self, fig5):
        tree = build_cltree(fig5)
        doc = cltree_to_dict(tree)
        other = build_graph(3, [(0, 1)])
        with pytest.raises(GraphFormatError, match="vertices"):
            cltree_from_dict(doc, other)

    def test_missing_child_reference(self, fig5):
        tree = build_cltree(fig5)
        doc = cltree_to_dict(tree)
        doc["nodes"][0]["children"] = [999]
        with pytest.raises(GraphFormatError, match="missing child"):
            cltree_from_dict(doc, fig5)

    def test_unknown_homed_vertex(self, fig5):
        tree = build_cltree(fig5)
        doc = cltree_to_dict(tree)
        doc["nodes"][0]["vertices"] = [42]
        with pytest.raises(GraphFormatError):
            cltree_from_dict(doc, fig5)

    def test_incomplete_coverage(self, fig5):
        tree = build_cltree(fig5)
        doc = cltree_to_dict(tree)
        for entry in doc["nodes"]:
            if entry["vertices"]:
                entry["vertices"] = entry["vertices"][:-1]
                break
        with pytest.raises(GraphFormatError, match="homes"):
            cltree_from_dict(doc, fig5)
