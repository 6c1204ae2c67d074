"""Tests for the ground-truth effectiveness metrics (F1, NMI, ARI)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ground_truth import (
    ari,
    evaluate_partition,
    f1_score,
    nmi,
    partition_f1,
)
from repro.core.community import Community

from conftest import build_graph


class TestF1:
    def test_perfect_match(self):
        result = f1_score({0, 1, 2}, [{0, 1, 2}, {3, 4}])
        assert result["f1"] == 1.0
        assert result["precision"] == 1.0
        assert result["recall"] == 1.0
        assert result["match"] == frozenset({0, 1, 2})

    def test_partial_match_hand_computed(self):
        # community {0,1,2,3} vs truth {0,1}: p=0.5, r=1.0, f1=2/3
        result = f1_score({0, 1, 2, 3}, [{0, 1}])
        assert result["precision"] == pytest.approx(0.5)
        assert result["recall"] == pytest.approx(1.0)
        assert result["f1"] == pytest.approx(2 / 3)

    def test_no_overlap(self):
        result = f1_score({0, 1}, [{5, 6}])
        assert result["f1"] == 0.0
        assert result["match"] is None

    def test_best_match_selected(self):
        result = f1_score({0, 1, 2}, [{0}, {0, 1, 2, 3}])
        assert result["match"] == frozenset({0, 1, 2, 3})

    def test_accepts_community_objects(self):
        g = build_graph(3, [(0, 1)])
        c = Community(g, {0, 1})
        assert f1_score(c, [{0, 1}])["f1"] == 1.0

    def test_empty_community_rejected(self):
        with pytest.raises(ValueError):
            f1_score(set(), [{0}])


class TestPartitionF1:
    def test_identical_partitions(self):
        p = [{0, 1}, {2, 3}]
        assert partition_f1(p, p) == 1.0

    def test_symmetric(self):
        a = [{0, 1, 2}, {3, 4, 5}]
        b = [{0, 1}, {2, 3}, {4, 5}]
        assert partition_f1(a, b) == pytest.approx(partition_f1(b, a))

    def test_empty_inputs(self):
        assert partition_f1([], [{0}]) == 0.0
        assert partition_f1([{0}], []) == 0.0


class TestNmi:
    def test_identical_partitions(self):
        p = [{0, 1, 2}, {3, 4}]
        assert nmi(p, p) == pytest.approx(1.0)

    def test_independent_partitions_low(self):
        a = [{0, 1}, {2, 3}]
        b = [{0, 2}, {1, 3}]
        assert nmi(a, b) == pytest.approx(0.0, abs=1e-9)

    def test_trivial_partitions(self):
        assert nmi([{0, 1}], [{0, 1}]) == 1.0

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            nmi([{0, 1}], [{0, 1, 2}])

    def test_symmetry(self):
        a = [{0, 1, 2}, {3, 4, 5, 6}]
        b = [{0, 1}, {2, 3}, {4, 5, 6}]
        assert nmi(a, b) == pytest.approx(nmi(b, a))

    def test_matches_hand_computed(self):
        # a = {0,1},{2,3}; b = {0,1,2,3}: I = 0, H(b)=0 -> nmi 0.
        assert nmi([{0, 1}, {2, 3}], [{0, 1, 2, 3}]) == \
            pytest.approx(0.0, abs=1e-12)


class TestAri:
    def test_identical(self):
        p = [{0, 1, 2}, {3, 4}]
        assert ari(p, p) == pytest.approx(1.0)

    def test_single_cluster_vs_split(self):
        # ARI of all-in-one vs any split is 0 (expected index case).
        assert ari([{0, 1, 2, 3}], [{0, 1}, {2, 3}]) == \
            pytest.approx(0.0, abs=1e-12)

    def test_opposite_partitions_negative_or_zero(self):
        a = [{0, 1}, {2, 3}]
        b = [{0, 2}, {1, 3}]
        assert ari(a, b) <= 0.0 + 1e-9

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            ari([{0}], [{1}])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=24))
    def test_ari_agrees_with_permuted_self(self, labels):
        """Property: a partition compared with itself under relabelled
        cluster ids still scores ARI = NMI = 1 (unless it has a single
        cluster, where both are 1 by convention too)."""
        groups = {}
        for i, lbl in enumerate(labels):
            groups.setdefault(lbl, set()).add(i)
        partition = list(groups.values())
        relabelled = list(reversed(partition))
        assert ari(partition, relabelled) == pytest.approx(1.0)
        assert nmi(partition, relabelled) == pytest.approx(1.0)


class TestEvaluatePartition:
    def test_report_shape(self):
        found = [{0, 1}, {2, 3}]
        truth = [{0, 1}, {2, 3}]
        report = evaluate_partition(found, truth)
        assert report == {"f1": 1.0, "nmi": 1.0, "ari": 1.0,
                          "found_communities": 2, "true_communities": 2}

    def test_detection_quality_on_planted_graph(self):
        """Label propagation on a well-separated planted partition must
        recover most of the structure (F1 and NMI high)."""
        from repro.algorithms.label_propagation import label_propagation
        from repro.datasets.lfr import generate_planted_partition
        graph, truth = generate_planted_partition(
            n=180, communities=6, avg_degree=10, mu=0.05, seed=4)
        found = label_propagation(graph, seed=2)
        report = evaluate_partition(found, truth.values())
        assert report["f1"] > 0.6
        assert report["nmi"] > 0.5

    def test_detection_quality_falls_as_mixing_grows(self):
        """Across the planted-partition mixing sweep, label
        propagation's F1 never rises as ``mu`` grows, and the easiest
        mix beats the hardest."""
        from repro.algorithms.label_propagation import label_propagation
        from repro.datasets.lfr import generate_planted_partition
        f1s = []
        for mu in (0.05, 0.2, 0.4, 0.6):
            graph, truth = generate_planted_partition(
                n=240, communities=6, avg_degree=10, mu=mu, seed=11)
            found = label_propagation(graph, seed=3)
            f1s.append(evaluate_partition(found, truth.values())["f1"])
        assert f1s == sorted(f1s, reverse=True)
        assert f1s[0] > f1s[-1]
