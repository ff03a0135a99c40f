"""Entity-graph type tests."""

import pytest

from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph, pair_key


class TestPairKey:
    def test_canonical_order(self):
        assert pair_key("b", "a") == ("a", "b")
        assert pair_key("a", "b") == ("a", "b")

    def test_self_pair_raises(self):
        with pytest.raises(ValueError, match="self-pair"):
            pair_key("a", "a")


class TestWeightedPairGraph:
    def build(self):
        graph = WeightedPairGraph(nodes=["a", "b", "c"])
        graph.set_weight("a", "b", 0.9)
        graph.set_weight("b", "c", 0.2)
        return graph

    def test_weight_lookup_order_insensitive(self):
        graph = self.build()
        assert graph.weight("a", "b") == 0.9
        assert graph.weight("b", "a") == 0.9

    def test_missing_pair_reads_zero(self):
        assert self.build().weight("a", "c") == 0.0

    def test_n_pairs_and_values(self):
        graph = self.build()
        assert graph.n_pairs() == 2
        assert sorted(graph.values()) == [0.2, 0.9]

    def test_is_complete(self):
        graph = self.build()
        assert not graph.is_complete()
        graph.set_weight("a", "c", 0.5)
        assert graph.is_complete()

    def test_from_scores(self):
        graph = WeightedPairGraph.from_scores(
            ["a", "b"], {("a", "b"): 0.7})
        assert graph.weight("a", "b") == 0.7

    def test_pairs_iterates_items(self):
        graph = self.build()
        assert dict(graph.pairs()) == graph.weights

    def test_copy_is_independent(self):
        graph = self.build()
        copy = graph.copy()
        copy.set_weight("a", "b", 0.1)
        assert graph.weight("a", "b") == 0.9
        assert copy == WeightedPairGraph(["a", "b", "c"], {
            ("a", "b"): 0.1, ("b", "c"): 0.2})

    def test_a_vector_graph_is_read_only(self):
        values = [0.9, 0.0, 0.2]
        graph = WeightedPairGraph(["a", "b", "c"], values=values)
        with pytest.raises(TypeError, match="read-only"):
            graph.set_weight("a", "b", 0.1)
        with pytest.raises(TypeError):
            graph.weights[("a", "b")] = 0.1
        assert graph.copy() == graph
        assert values == [0.9, 0.0, 0.2]
        assert graph.weight("b", "a") == 0.9


class TestDecisionGraph:
    def build(self):
        graph = DecisionGraph(nodes=["a", "b", "c", "d"])
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        return graph

    def test_has_edge_symmetric(self):
        graph = self.build()
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert not graph.has_edge("a", "c")

    def test_remove_edge(self):
        graph = self.build()
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        graph.remove_edge("a", "b")  # idempotent

    def test_degree(self):
        graph = self.build()
        assert graph.degree("b") == 2
        assert graph.degree("d") == 0

    def test_neighbors(self):
        graph = self.build()
        assert graph.neighbors("b") == {"a", "c"}
        assert graph.neighbors("d") == set()

    def test_adjacency_covers_isolated_nodes(self):
        adjacency = self.build().adjacency()
        assert adjacency["d"] == set()
        assert adjacency["a"] == {"b"}

    def test_from_pairs(self):
        graph = DecisionGraph.from_pairs(["a", "b"], [("a", "b")])
        assert graph.n_edges() == 1
