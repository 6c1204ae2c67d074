"""Tests for the CODICIL pipeline."""

import pytest

from repro.algorithms.codicil import (
    _content_edges,
    _cosine,
    _tfidf_vectors,
    _topo_jaccard,
    codicil,
    codicil_community,
)
from repro.util.errors import QueryError

from conftest import build_graph


def _two_topics():
    """Two keyword-coherent squares joined by one bridge edge."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (3, 4)]
    kws = {v: {"db", "sql", "join"} for v in range(4)}
    kws.update({v: {"ml", "neural", "training"} for v in range(4, 8)})
    return build_graph(8, edges, kws)


class TestTfidf:
    def test_vectors_are_normalised(self):
        g = _two_topics()
        vectors, _ = _tfidf_vectors(g, df_cap_ratio=1.0)
        for vec in vectors.values():
            norm = sum(x * x for x in vec.values())
            assert norm == pytest.approx(1.0)

    def test_common_keywords_dropped_from_postings(self):
        g = build_graph(4, [], {v: {"common", "rare{}".format(v)}
                               for v in range(4)})
        _, postings = _tfidf_vectors(g, df_cap_ratio=0.5)
        assert "common" not in postings
        assert "rare0" in postings

    def test_cosine_bounds(self):
        g = _two_topics()
        vectors, _ = _tfidf_vectors(g, df_cap_ratio=1.0)
        same = _cosine(vectors[0], vectors[1])
        cross = _cosine(vectors[0], vectors[5])
        assert same == pytest.approx(1.0)
        assert cross == pytest.approx(0.0)

    def test_empty_keywords_zero_vector(self):
        g = build_graph(2, [(0, 1)])
        vectors, _ = _tfidf_vectors(g, df_cap_ratio=1.0)
        assert vectors[0] == {}


class TestContentEdges:
    def test_content_edges_connect_same_topic(self):
        g = _two_topics()
        vectors, postings = _tfidf_vectors(g, df_cap_ratio=1.0)
        edges = _content_edges(g, vectors, postings, t=2,
                               max_candidates=100)
        for (u, v), sim in edges.items():
            same_topic = (u < 4) == (v < 4)
            assert same_topic
            assert sim > 0


class TestTopoJaccard:
    def test_identical_neighbourhoods(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert _topo_jaccard(g, 0, 1) == pytest.approx(1.0)

    def test_disjoint_neighbourhoods(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert _topo_jaccard(g, 0, 2) == 0.0


class TestCodicil:
    def test_partition_covers_all_vertices(self):
        g = _two_topics()
        communities = codicil(g, seed=1)
        covered = sorted(v for c in communities for v in c)
        assert covered == list(g.vertices())

    def test_partition_is_disjoint(self):
        g = _two_topics()
        communities = codicil(g, seed=1)
        seen = set()
        for c in communities:
            assert not (c.vertices & seen)
            seen |= c.vertices

    def test_separates_topics(self):
        g = _two_topics()
        communities = codicil(g, seed=1)
        best = max(communities, key=len)
        # No community may span both topic squares fully.
        for c in communities:
            members = c.vertices
            assert not ({0, 1, 2, 3} <= members
                        and {4, 5, 6, 7} <= members)
        assert len(best) >= 3

    def test_deterministic_under_seed(self):
        g = _two_topics()
        a = codicil(g, seed=5)
        b = codicil(g, seed=5)
        assert [c.vertices for c in a] == [c.vertices for c in b]

    def test_bad_sample_ratio(self):
        with pytest.raises(ValueError):
            codicil(_two_topics(), sample_ratio=0.0)

    def test_method_label(self):
        assert all(c.method == "CODICIL"
                   for c in codicil(_two_topics(), seed=1))

    def test_content_signal_helps_on_noisy_structure(self):
        """CODICIL's thesis: on an attributed planted partition whose
        structure alone is ambiguous (mu = 0.45) but whose keywords are
        clean, content edges (alpha = 0.5) recover the truth at least
        as well as structure only (alpha = 0, no content edges)."""
        from repro.analysis.ground_truth import partition_f1
        from repro.datasets.lfr import generate_planted_partition
        graph, truth = generate_planted_partition(
            n=240, communities=6, avg_degree=10, mu=0.45,
            keywords_per_community=6, seed=5)
        with_content = codicil(graph, alpha=0.5, seed=3)
        structure_only = codicil(graph, alpha=0.0, content_neighbors=0,
                                 seed=3)
        assert partition_f1(with_content, truth.values()) >= \
            partition_f1(structure_only, truth.values())

    def test_isolated_vertex_becomes_singleton(self):
        g = build_graph(3, [(0, 1)], {0: {"a"}, 1: {"a"}, 2: set()})
        communities = codicil(g, seed=1)
        singles = [c for c in communities if c.vertices == {2}]
        assert len(singles) == 1


class TestCodicilCommunity:
    def test_returns_cluster_of_q(self):
        g = _two_topics()
        result = codicil_community(g, 0, seed=1)
        assert len(result) == 1
        assert 0 in result[0]
        assert result[0].query_vertices == (0,)

    def test_reuses_partition(self):
        g = _two_topics()
        partition = codicil(g, seed=1)
        result = codicil_community(g, 5, partition=partition)
        assert 5 in result[0]

    def test_unknown_vertex(self):
        with pytest.raises(QueryError):
            codicil_community(_two_topics(), 99)
