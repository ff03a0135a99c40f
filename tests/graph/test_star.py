"""Star clustering tests."""

from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph
from repro.graph.star import star_cluster
from repro.graph.validation import is_partition


class TestStarCluster:
    def test_hub_and_satellites(self):
        graph = DecisionGraph.from_pairs(
            ["hub", "s1", "s2", "s3", "lone"],
            [("hub", "s1"), ("hub", "s2"), ("hub", "s3")])
        clusters = star_cluster(graph)
        assert {frozenset(c) for c in clusters} == {
            frozenset({"hub", "s1", "s2", "s3"}), frozenset({"lone"})}

    def test_no_chaining(self):
        # a-b-c-d path: transitive closure gives one cluster; star
        # clustering breaks the chain at star boundaries.
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        clusters = star_cluster(graph)
        assert len(clusters) >= 2
        assert is_partition([set(c) for c in clusters], ["a", "b", "c", "d"])

    def test_empty_graph_singletons(self):
        graph = DecisionGraph(nodes=["a", "b"])
        clusters = star_cluster(graph)
        assert len(clusters) == 2

    def test_partition_property(self):
        nodes = [f"n{i}" for i in range(10)]
        edges = [(nodes[i], nodes[(i * 3 + 1) % 10]) for i in range(9)]
        graph = DecisionGraph.from_pairs(
            nodes, [tuple(sorted(edge)) for edge in edges])
        clusters = star_cluster(graph)
        assert is_partition([set(c) for c in clusters], nodes)

    def test_deterministic(self):
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        first = star_cluster(graph)
        second = star_cluster(graph)
        assert {frozenset(c) for c in first} == {frozenset(c) for c in second}

    def test_weighted_center_selection(self):
        # "a" and "c" both have degree 2; with weights, "c" has the heavier
        # star and must be picked first, absorbing b and d.
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")])
        weights = WeightedPairGraph(nodes=["a", "b", "c", "d"])
        weights.set_weight("a", "b", 0.1)
        weights.set_weight("a", "d", 0.1)
        weights.set_weight("b", "c", 0.9)
        weights.set_weight("c", "d", 0.9)
        clusters = star_cluster(graph, weights=weights)
        by_node = {node: frozenset(c) for c in clusters for node in c}
        assert by_node["c"] == frozenset({"b", "c", "d"})
        assert by_node["a"] == frozenset({"a"})

    def test_clique_single_cluster(self):
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        clusters = star_cluster(graph)
        assert len(clusters) == 1


class TestStarInResolver:
    def test_star_clusterer_end_to_end(self, small_block, block_graphs,
                                       fit_evaluate):
        from repro.core import EntityResolver, ResolverConfig
        resolver = EntityResolver(ResolverConfig(clusterer="star"))
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert is_partition([set(c) for c in result.predicted],
                            small_block.page_ids())
