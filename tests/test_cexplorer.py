"""Tests for the CExplorer facade (the paper's Figure 4 API)."""

import pytest

from repro.explorer.cexplorer import CExplorer
from repro.util.errors import CExplorerError, QueryError

from conftest import build_graph
from support.edge_list import write_edge_list


@pytest.fixture
def explorer(dblp_small):
    ex = CExplorer()
    ex.add_graph("dblp", dblp_small)
    return ex


class TestGraphManagement:
    def test_no_graph_yet(self):
        ex = CExplorer()
        with pytest.raises(CExplorerError):
            _ = ex.graph
        with pytest.raises(CExplorerError):
            ex.index()

    def test_upload_from_file(self, fig5, tmp_path):
        path = str(tmp_path / "fig5.txt")
        write_edge_list(fig5, path)
        ex = CExplorer()
        name = ex.upload(path)
        assert name == "fig5"
        assert ex.graph.vertex_count == 10

    def test_upload_rejects_shards(self, fig5, tmp_path):
        path = str(tmp_path / "fig5.txt")
        write_edge_list(fig5, path)
        ex = CExplorer()
        assert ex.upload(path, shards=1) == "fig5"
        with pytest.raises(CExplorerError, match="shards must be 1"):
            ex.upload(path, name="other", shards=2)
        assert ex.graph_names() == ["fig5"]

    def test_add_and_select_graphs(self, fig5, karate):
        ex = CExplorer()
        ex.add_graph("fig5", fig5)
        ex.add_graph("karate", karate)
        assert ex.graph_names() == ["fig5", "karate"]
        assert ex.graph is karate  # last added selected
        ex.add_graph("fig5", fig5)
        assert ex.graph is fig5
        assert ex.graph_names() == ["fig5", "karate"]

    def test_add_without_select(self, fig5, karate):
        ex = CExplorer()
        ex.add_graph("fig5", fig5)
        ex.add_graph("karate", karate, select=False)
        assert ex.graph is fig5


class TestIndexing:
    def test_index_cached(self, explorer):
        first = explorer.index()
        assert explorer.index() is first

    def test_index_tracks_build_time(self, explorer):
        index = explorer.index()
        assert index.build_seconds >= 0

    def test_core_numbers_cached(self, explorer):
        assert explorer.core_numbers() is explorer.core_numbers()


class TestPanelsFollowUpdates:
    """The dataset panel and the name box describe the current graph
    version: updates through the mutation gateway show in both."""

    def test_summary_after_gateway_inserts(self, dblp_small):
        graph = dblp_small.copy()
        ex = CExplorer()
        ex.add_graph("dblp", graph)
        before = ex.summary()
        gateway = ex.maintainer()
        pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)
                 if not graph.has_edge(u, v)][:50]
        for u, v in pairs:
            gateway.insert_edge(u, v)
        after = ex.summary()
        assert after["edges"] == before["edges"] + len(pairs) \
            == graph.edge_count
        assert ex.summary() is after        # memoized per version

    def test_suggest_finds_gateway_vertex(self, dblp_small, fig5):
        ex = CExplorer()
        ex.add_graph("dblp", dblp_small.copy())
        assert ex.suggest_names("Zed") == []
        vid = ex.maintainer().add_vertex(label="Zed Newauthor")
        assert ex.suggest_names("Zed") == ["Zed Newauthor"]
        assert ex.resolve_vertex("Zed Newauthor") == vid
        ex.add_graph("dblp", fig5)          # a replaced graph: new names
        assert ex.suggest_names("Zed") == []


class TestVertexResolution:
    def test_resolve_by_id_label_and_case(self, explorer):
        vid = explorer.graph.id_of("Jim Gray")
        assert explorer.resolve_vertex(vid) == vid
        assert explorer.resolve_vertex("Jim Gray") == vid
        assert explorer.resolve_vertex("jim gray") == vid
        assert explorer.resolve_vertex("  JIM GRAY ") == vid

    def test_case_insensitive_lookup_copies_no_labels(self, dblp_small,
                                                      monkeypatch):
        """"jim gray" resolves through a lowercase map, not a copy of
        every label per call; the map follows gateway additions, the
        first id wins among labels equal up to case, and an unlabelled
        vertex's ``v<id>`` display name does not match."""
        ex = CExplorer()
        ex.add_graph("dblp", dblp_small.copy())
        graph = ex.graph

        def no_copy():
            raise AssertionError("graph.labels() copied")

        monkeypatch.setattr(graph, "labels", no_copy)
        assert ex.resolve_vertex("jim gray") == graph.id_of("Jim Gray")
        gateway = ex.maintainer()
        first = gateway.add_vertex(label="Ada Case")
        second = gateway.add_vertex(label="ADA CASE")
        unlabelled = gateway.add_vertex()
        assert ex.resolve_vertex(" ada case ") == first
        assert ex.resolve_vertex("ADA CASE") == second
        assert ex.resolve_vertex("Ada CASE") == first
        with pytest.raises(QueryError, match="no author named"):
            ex.resolve_vertex(graph.display_name(unlabelled))

    def test_unknown_name(self, explorer):
        with pytest.raises(QueryError, match="no author named"):
            explorer.resolve_vertex("Nobody Atall")

    def test_bad_id(self, explorer):
        with pytest.raises(QueryError):
            explorer.resolve_vertex(10 ** 9)

    def test_query_options_panel(self, explorer):
        options = explorer.query_options("jim gray")
        assert options["name"] == "Jim Gray"
        assert options["max_k"] >= 1
        assert options["degree_choices"][0] == 1
        assert options["degree_choices"][-1] == options["max_k"]
        assert len(options["keywords"]) >= 20


class TestSearchDetect:
    def test_search_acq_by_name(self, explorer):
        communities = explorer.search("acq", "jim gray", k=3)
        assert communities
        assert explorer.graph.id_of("Jim Gray") in communities[0]

    def test_search_multi_vertex(self, explorer):
        g = explorer.graph
        jim = g.id_of("Jim Gray")
        partner = max(g.neighbors(jim), key=lambda v: g.degree(v))
        communities = explorer.search("acq", ["jim gray", partner], k=2)
        if communities:
            assert jim in communities[0]
            assert partner in communities[0]

    def test_search_all_registered_cs(self, explorer):
        for algorithm in ("global", "local"):
            communities = explorer.search(algorithm, "jim gray", k=3)
            assert communities, algorithm

    def test_triangle_family_rejects_k_below_two(self, explorer):
        for algorithm in ("k-truss", "atc"):
            with pytest.raises(QueryError):
                explorer.search(algorithm, "jim gray", k=1)

    def test_detect_label_propagation(self, explorer):
        communities = explorer.detect("label-propagation", seed=1)
        covered = {v for c in communities for v in c}
        assert covered == set(explorer.graph.vertices())


class TestAnalyzeCompareDisplay:
    def test_analyze_metrics(self, explorer):
        community = explorer.search("acq", "jim gray", k=3)[0]
        metrics = explorer.analyze(community)
        for key in ("vertices", "edges", "average_degree", "density",
                    "conductance", "cpj", "cmf",
                    "min_internal_degree"):
            assert key in metrics
        assert metrics["min_internal_degree"] >= 3

    def test_compare_report(self, explorer):
        report = explorer.compare("jim gray", k=3,
                                  methods=("global", "acq"))
        rows = report.table_rows()
        assert {r["method"] for r in rows} == {"global", "acq"}

    def test_display_formats(self, explorer):
        community = explorer.search("acq", "jim gray", k=3)[0]
        svg = explorer.display(community, fmt="svg")
        assert svg.startswith("<svg")
        art = explorer.display(community, fmt="ascii")
        assert "@" in art
        positions = explorer.display(community, fmt="positions")
        assert set(positions) == set(community.vertices)

    def test_display_layout_choices(self, explorer):
        community = explorer.search("acq", "jim gray", k=3)[0]
        for layout in ("ego", "circular", "spring"):
            assert explorer.display(community, fmt="positions",
                                    layout=layout)
        with pytest.raises(CExplorerError):
            explorer.display(community, layout="hexagonal")
        with pytest.raises(CExplorerError):
            explorer.display(community, fmt="3d-holo")

    def test_profile_lookup(self, explorer):
        profile = explorer.profile("jim gray")
        assert profile.name == "Jim Gray"
        assert not profile.synthetic
        other = explorer.profile(explorer.graph.id_of("Jim Gray"))
        assert other.name == "Jim Gray"

    def test_available_algorithms(self):
        algos = CExplorer.available_algorithms()
        assert "acq" in algos["cs"]
        assert "codicil" in algos["cd"]
