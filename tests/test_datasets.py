"""Tests for the dataset fixtures and the DBLP generator."""

import pytest

from repro.core.kcore import core_decomposition
from repro.datasets import DblpConfig, figure5_graph, generate_dblp_graph
from repro.datasets.dblp import COMMON_KEYWORDS, SEED_AUTHORS
from repro.graph.validation import validate_graph

from support.karate import karate_factions


class TestFigure5:
    def test_sizes_match_paper(self, fig5):
        assert fig5.vertex_count == 10
        assert fig5.edge_count == 11

    def test_keywords_match_paper(self, fig5):
        assert fig5.keywords(fig5.id_of("A")) == {"w", "x", "y"}
        assert fig5.keywords(fig5.id_of("D")) == {"x", "y", "z"}
        assert fig5.keywords(fig5.id_of("J")) == {"x"}

    def test_core_numbers_match_paper(self, fig5):
        core = core_decomposition(fig5)
        by_core = {}
        for v in fig5.vertices():
            by_core.setdefault(core[v], set()).add(fig5.label(v))
        assert by_core == {
            0: {"J"}, 1: {"F", "G", "H", "I"}, 2: {"E"},
            3: {"A", "B", "C", "D"},
        }

    def test_graph_is_valid(self, fig5):
        validate_graph(fig5, require_keywords=True)


class TestKarate:
    def test_shape(self, karate):
        assert karate.vertex_count == 34
        assert karate.edge_count == 78

    def test_factions_partition(self):
        factions = karate_factions()
        assert set(factions) == {"hi", "officer"}
        assert sum(len(m) for m in factions.values()) == 34

    def test_keywords_reflect_factions(self, karate):
        factions = karate_factions()
        for v in factions["hi"]:
            assert "instructor" in karate.keywords(v)
        for v in factions["officer"]:
            assert "administration" in karate.keywords(v)

    def test_valid(self, karate):
        validate_graph(karate, require_keywords=True)


class TestDblpGenerator:
    def test_default_shape(self, dblp_medium):
        assert dblp_medium.vertex_count == 2000
        assert dblp_medium.edge_count > 4000

    def test_deterministic(self):
        cfg = DblpConfig(n_authors=150, n_communities=5, seed=3)
        a = generate_dblp_graph(cfg)
        b = generate_dblp_graph(cfg)
        assert sorted(a.edges()) == sorted(b.edges())
        assert all(a.keywords(v) == b.keywords(v) for v in a.vertices())

    def test_different_seeds_differ(self):
        a = generate_dblp_graph(DblpConfig(n_authors=150, seed=1))
        b = generate_dblp_graph(DblpConfig(n_authors=150, seed=2))
        assert sorted(a.edges()) != sorted(b.edges())

    def test_seed_authors_present(self, dblp_medium):
        for name in SEED_AUTHORS:
            assert dblp_medium.has_label(name)

    def test_keywords_per_author(self, dblp_medium):
        cfg_default = DblpConfig()
        for v in list(dblp_medium.vertices())[:100]:
            assert len(dblp_medium.keywords(v)) >= \
                cfg_default.keywords_per_author

    def test_planted_communities_returned(self):
        cfg = DblpConfig(n_authors=200, n_communities=4, seed=9)
        graph, communities = generate_dblp_graph(cfg,
                                                 return_communities=True)
        covered = sorted(v for members in communities.values()
                         for v in members)
        assert covered == list(graph.vertices())
        assert len(communities) == 4

    def test_topic_keywords_shared_within_community(self):
        cfg = DblpConfig(n_authors=200, n_communities=4, seed=9,
                         topic_share=1.0)
        graph, communities = generate_dblp_graph(cfg,
                                                 return_communities=True)
        for members in communities.values():
            shared = frozenset.intersection(
                *(graph.keywords(v) for v in members))
            # With topic_share=1 every member carries the full topic
            # pool, so at least 8 keywords are common.
            assert len(shared) >= 8

    def test_leaders_have_boosted_degree(self, dblp_medium):
        jim = dblp_medium.id_of("Jim Gray")
        degrees = sorted(dblp_medium.degree(v)
                         for v in dblp_medium.vertices())
        # The leader sits in the top decile of the degree distribution.
        assert dblp_medium.degree(jim) >= degrees[int(len(degrees) * 0.9)]

    def test_heavy_tail_degrees(self, dblp_medium):
        degrees = [dblp_medium.degree(v) for v in dblp_medium.vertices()]
        mean = sum(degrees) / len(degrees)
        assert max(degrees) > 4 * mean

    def test_nontrivial_core_structure(self, dblp_medium):
        assert max(core_decomposition(dblp_medium)) >= 4

    def test_common_keywords_globally_frequent(self, dblp_medium):
        data_count = sum(1 for v in dblp_medium.vertices()
                         if "data" in dblp_medium.keywords(v))
        assert data_count > dblp_medium.vertex_count * 0.2

    def test_graph_is_valid(self, dblp_medium):
        validate_graph(dblp_medium, require_keywords=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DblpConfig(n_authors=3, n_communities=10)
        with pytest.raises(ValueError):
            DblpConfig(m_intra=0)

    def test_seed_author_list_sane(self):
        assert "Jim Gray" in SEED_AUTHORS
        assert len(set(SEED_AUTHORS)) == len(SEED_AUTHORS)
        assert "data" in COMMON_KEYWORDS
