"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datasets import figure5_graph
from repro.graph.io import write_graph_json


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fig5.json"
    write_graph_json(figure5_graph(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def dblp_file(tmp_path_factory):
    from repro.datasets import DblpConfig, generate_dblp_graph
    path = tmp_path_factory.mktemp("cli") / "dblp.json"
    write_graph_json(generate_dblp_graph(
        DblpConfig(n_authors=300, n_communities=6, seed=2)), str(path))
    return str(path)


class TestGenerate:
    def test_generate_writes_graph(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        assert main(["generate", "--authors", "120", "--communities",
                     "4", "--out", out]) == 0
        assert "120 vertices" in capsys.readouterr().out
        with open(out) as f:
            doc = json.load(f)
        assert doc["format"] == "c-explorer-graph"


class TestSearch:
    def test_search_text_output(self, graph_file, capsys):
        assert main(["search", "--graph", graph_file, "--vertex", "A",
                     "-k", "2", "--keywords", "w", "x", "y"]) == 0
        out = capsys.readouterr().out
        assert "Community 1" in out
        assert "theme: x, y" in out

    def test_search_json_output(self, graph_file, capsys):
        assert main(["search", "--graph", graph_file, "--vertex", "A",
                     "-k", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["method"] == "ACQ"

    def test_search_draw(self, graph_file, capsys):
        assert main(["search", "--graph", graph_file, "--vertex", "A",
                     "-k", "2", "--draw"]) == 0
        assert "@" in capsys.readouterr().out

    def test_search_no_result_exit_code(self, graph_file, capsys):
        assert main(["search", "--graph", graph_file, "--vertex", "A",
                     "-k", "9"]) == 1

    def test_search_unknown_vertex_error(self, graph_file, capsys):
        assert main(["search", "--graph", graph_file, "--vertex",
                     "ZZZ"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_search_with_prebuilt_index(self, graph_file, tmp_path,
                                        capsys):
        index_path = str(tmp_path / "idx.json")
        assert main(["index", "--graph", graph_file, "--out",
                     index_path]) == 0
        capsys.readouterr()
        assert main(["search", "--graph", graph_file, "--index",
                     index_path, "--vertex", "A", "-k", "2"]) == 0
        assert "Community 1" in capsys.readouterr().out


class TestCompareDetect:
    def test_compare_renders_table(self, dblp_file, capsys):
        assert main(["compare", "--graph", dblp_file, "--vertex",
                     "jim gray", "-k", "3", "--methods", "global",
                     "acq"]) == 0
        out = capsys.readouterr().out
        assert "Method" in out
        assert "acq" in out

    def test_compare_json(self, dblp_file, capsys):
        assert main(["compare", "--graph", dblp_file, "--vertex",
                     "jim gray", "-k", "3", "--methods", "acq",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 3

    def test_detect(self, dblp_file, capsys):
        assert main(["detect", "--graph", dblp_file, "--algorithm",
                     "label-propagation", "--limit", "5"]) == 0
        assert "communities" in capsys.readouterr().out


class TestIndexProfile:
    def test_index_roundtrip(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "index.json")
        assert main(["index", "--graph", graph_file, "--out", out]) == 0
        assert "nodes" in capsys.readouterr().out
        with open(out) as f:
            doc = json.load(f)
        assert doc["format"] == "c-explorer-cltree"

    def test_profile_text(self, capsys):
        assert main(["profile", "--name", "Jim Gray"]) == 0
        assert "Jim Gray" in capsys.readouterr().out

    def test_profile_json(self, capsys):
        assert main(["profile", "--name", "Jim Gray", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "Jim Gray"


class TestBackendFlag:
    def test_process_backend_matches_thread(self, dblp_file, capsys):
        args = ["search", "--graph", dblp_file, "--vertex", "Jim Gray",
                "-k", "3", "--json"]
        assert main(args + ["--backend", "thread"]) == 0
        thread_out = json.loads(capsys.readouterr().out)
        assert main(args + ["--backend", "process", "--workers",
                            "2"]) == 0
        process_out = json.loads(capsys.readouterr().out)
        assert process_out == thread_out

    def test_unknown_backend_rejected(self, dblp_file, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--graph", dblp_file, "--vertex",
                  "Jim Gray", "--backend", "fibers"])
