"""Correlation clustering tests."""

import random

from repro.graph.correlation import correlation_cluster, objective
from repro.graph.entity_graph import WeightedPairGraph
from repro.metrics.clusterings import Clustering


def graph_from(nodes, probabilities):
    return WeightedPairGraph.from_scores(nodes, probabilities)


class TestCorrelationCluster:
    def test_clean_two_clusters(self):
        nodes = ["a1", "a2", "a3", "b1", "b2"]
        probabilities = {}
        for group in (["a1", "a2", "a3"], ["b1", "b2"]):
            for i, left in enumerate(group):
                for right in group[i + 1:]:
                    probabilities[(left, right)] = 0.95
        for left in ["a1", "a2", "a3"]:
            for right in ["b1", "b2"]:
                probabilities[(left, right)] = 0.05
        clusters = correlation_cluster(graph_from(nodes, probabilities), seed=0)
        assert {frozenset(c) for c in clusters} == {
            frozenset({"a1", "a2", "a3"}), frozenset({"b1", "b2"})}

    def test_all_positive_one_cluster(self):
        nodes = ["a", "b", "c"]
        probabilities = {("a", "b"): 0.9, ("a", "c"): 0.9, ("b", "c"): 0.9}
        clusters = correlation_cluster(graph_from(nodes, probabilities), seed=1)
        assert len(clusters) == 1

    def test_all_negative_singletons(self):
        nodes = ["a", "b", "c"]
        probabilities = {("a", "b"): 0.1, ("a", "c"): 0.1, ("b", "c"): 0.1}
        clusters = correlation_cluster(graph_from(nodes, probabilities), seed=1)
        assert len(clusters) == 3

    def test_empty_graph(self):
        assert correlation_cluster(WeightedPairGraph(nodes=[]), seed=0) == []

    def test_partition_property(self):
        rng = random.Random(2)
        nodes = [f"n{i}" for i in range(12)]
        probabilities = {}
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                probabilities[(left, right)] = rng.randrange(100) / 100.0
        clusters = correlation_cluster(graph_from(nodes, probabilities), seed=2)
        flattened = sorted(node for cluster in clusters for node in cluster)
        assert flattened == sorted(nodes)

    def test_node_order_is_not_an_input(self):
        """The same pair weights over the nodes listed in another order
        give the same partition: pivots and sweeps run over sorted ids."""
        rng = random.Random(0)
        nodes = [f"n{i:02d}" for i in range(16)]
        probabilities = {(left, right): rng.random()
                         for i, left in enumerate(nodes)
                         for right in nodes[i + 1:]}
        for seed in range(4):
            forward = correlation_cluster(graph_from(nodes, probabilities),
                                          seed=seed)
            backward = correlation_cluster(
                graph_from(nodes[::-1], probabilities), seed=seed)
            assert Clustering(forward) == Clustering(backward), seed

    def test_deterministic_given_seed(self):
        nodes = [f"n{i}" for i in range(10)]
        probabilities = {}
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                probabilities[(left, right)] = ((i * 7 + 3) % 10) / 10.0
        graph = graph_from(nodes, probabilities)
        first = correlation_cluster(graph, seed=5)
        second = correlation_cluster(graph, seed=5)
        assert {frozenset(c) for c in first} == {frozenset(c) for c in second}

    def test_local_search_improves_on_pivot_noise(self):
        # A noisy planted partition: local search must reach at least the
        # objective of the planted clustering's competitor (all singletons).
        nodes = [f"n{i}" for i in range(8)]
        probabilities = {}
        for i, left in enumerate(nodes):
            for right in nodes[i + 1:]:
                same = (i < 4) == (nodes.index(right) < 4)
                probabilities[(left, right)] = 0.8 if same else 0.2
        graph = graph_from(nodes, probabilities)
        clusters = correlation_cluster(graph, seed=3)
        singletons = [{node} for node in nodes]
        assert objective(graph, clusters) >= objective(graph, singletons)


class TestObjective:
    def test_rewards_intra_positive(self):
        graph = graph_from(["a", "b"], {("a", "b"): 0.9})
        assert objective(graph, [{"a", "b"}]) > objective(graph, [{"a"}, {"b"}])

    def test_penalizes_intra_negative(self):
        graph = graph_from(["a", "b"], {("a", "b"): 0.1})
        assert objective(graph, [{"a", "b"}]) < objective(graph, [{"a"}, {"b"}])
