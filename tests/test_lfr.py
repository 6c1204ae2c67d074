"""Tests for the planted-partition (LFR-style) generator."""

import pytest

from repro.graph.validation import validate_graph

from support.lfr import generate_planted_partition


class TestGenerator:
    def test_shape_and_ground_truth(self):
        graph, truth = generate_planted_partition(n=120, communities=4,
                                                  seed=1)
        assert graph.vertex_count == 120
        covered = sorted(v for members in truth.values() for v in members)
        assert covered == list(graph.vertices())
        assert len(truth) == 4

    def test_deterministic(self):
        a, _ = generate_planted_partition(n=80, seed=5)
        b, _ = generate_planted_partition(n=80, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_valid_graph(self):
        graph, _ = generate_planted_partition(n=100, seed=2)
        validate_graph(graph)

    def test_keywords_per_community(self):
        graph, truth = generate_planted_partition(
            n=60, communities=3, keywords_per_community=4, seed=3)
        for c, members in truth.items():
            expected = {"topic{}-{}".format(c, i) for i in range(4)}
            for v in members:
                assert expected <= graph.keywords(v)

    def test_keywords_disabled(self):
        graph, _ = generate_planted_partition(n=40, communities=2,
                                              keywords_per_community=0,
                                              seed=1)
        assert graph.keywords(0) == {"common"}

    def test_mixing_parameter_controls_separation(self):
        """Lower mu -> higher internal edge fraction (the knob works)."""
        def internal_fraction(mu):
            graph, truth = generate_planted_partition(
                n=240, communities=6, avg_degree=10, mu=mu, seed=11)
            member_of = {}
            for c, members in truth.items():
                for v in members:
                    member_of[v] = c
            internal = sum(1 for u, v in graph.edges()
                           if member_of[u] == member_of[v])
            return internal / graph.edge_count

        assert internal_fraction(0.05) > internal_fraction(0.6) + 0.2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_planted_partition(mu=1.5)
        with pytest.raises(ValueError):
            generate_planted_partition(n=2, communities=5)

    def test_cd_difficulty_increases_with_mu(self):
        """End-to-end: label propagation recovers easy (mu=0.05) much
        better than hard (mu=0.5) mixtures."""
        from repro.algorithms.label_propagation import label_propagation
        from support.ground_truth import partition_f1

        def score(mu):
            graph, truth = generate_planted_partition(
                n=180, communities=6, avg_degree=10, mu=mu, seed=7)
            found = label_propagation(graph, seed=3)
            return partition_f1(found, truth.values())

        assert score(0.05) > score(0.5)
