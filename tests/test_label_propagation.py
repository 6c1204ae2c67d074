"""Tests for label propagation."""

from repro.algorithms.label_propagation import label_propagation

from conftest import build_graph
from support.karate import karate_factions


class TestLabelPropagation:
    def test_two_cliques_split(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2),
                            (3, 4), (4, 5), (3, 5)])
        communities = label_propagation(g, seed=0)
        assert sorted(sorted(c.vertices) for c in communities) == \
            [[0, 1, 2], [3, 4, 5]]

    def test_partition_covers_graph(self, karate):
        communities = label_propagation(karate, seed=1)
        covered = sorted(v for c in communities for v in c)
        assert covered == list(karate.vertices())

    def test_deterministic_under_seed(self, karate):
        a = label_propagation(karate, seed=7)
        b = label_propagation(karate, seed=7)
        assert {c.vertices for c in a} == {c.vertices for c in b}

    def test_raw_labels_mode(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        labels = label_propagation(g, as_communities=False, seed=0)
        assert set(labels) == {0, 1, 2}
        assert len(set(labels.values())) == 1

    def test_isolated_vertices_stay_singleton(self):
        g = build_graph(3, [(0, 1)])
        labels = label_propagation(g, as_communities=False, seed=0)
        assert labels[2] == 2

    def test_weights_steer_assignment(self):
        # Path 0-1-2; a heavy (0,1) edge and feather-light (1,2) edge
        # should pull 1 into 0's community.
        g = build_graph(3, [(0, 1), (1, 2)])
        weights = {(0, 1): 10.0, (1, 2): 0.1}
        labels = label_propagation(g, weights=weights, seed=0,
                                   as_communities=False)
        assert labels[1] == labels[0]

    def test_roughly_recovers_karate_factions(self, karate):
        """LP on karate should give communities that mostly align with
        the two factions (allowing imperfect boundaries)."""
        communities = label_propagation(karate, seed=3)
        factions = karate_factions()
        big = [c for c in communities if len(c) >= 5]
        assert big
        for c in big:
            overlaps = [len(c.vertices & members)
                        for members in factions.values()]
            # Dominant faction covers >= 70% of the community.
            assert max(overlaps) / len(c) >= 0.7

    def test_method_name_override(self):
        g = build_graph(2, [(0, 1)])
        communities = label_propagation(g, method_name="Custom", seed=0)
        assert all(c.method == "Custom" for c in communities)
