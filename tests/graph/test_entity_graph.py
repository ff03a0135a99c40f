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
        return WeightedPairGraph.from_scores(
            ["a", "b", "c"], {("a", "b"): 0.9, ("b", "c"): 0.2})

    def test_weight_lookup_order_insensitive(self):
        graph = self.build()
        assert graph.weight("a", "b") == 0.9
        assert graph.weight("b", "a") == 0.9

    def test_missing_pair_reads_zero(self):
        assert self.build().weight("a", "c") == 0.0

    def test_n_pairs_and_values(self):
        graph = self.build()
        assert graph.n_pairs() == 2
        assert graph.values() == [0.9, 0.2]

    def test_is_complete(self):
        assert not self.build().is_complete()
        assert WeightedPairGraph.from_scores(["a", "b", "c"], {
            ("a", "b"): 0.9, ("a", "c"): 0.5, ("b", "c"): 0.2,
        }).is_complete()

    def test_from_scores_lays_pairs_out_in_block_order(self):
        graph = WeightedPairGraph.from_scores(
            ["a", "b", "c"], {("c", "b"): 0.2, ("b", "a"): 0.0})
        layout, values = graph.vector()
        assert layout.positions == [0, 2]
        assert values == [0.0, 0.2]
        assert list(graph.pairs()) == [(("a", "b"), 0.0), (("b", "c"), 0.2)]

    def test_from_scores_rejects_foreign_and_self_pairs(self):
        with pytest.raises(ValueError, match="outside"):
            WeightedPairGraph.from_scores(["a", "b"], {("a", "z"): 0.5})
        with pytest.raises(ValueError, match="self-pair"):
            WeightedPairGraph.from_scores(["a", "b"], {("a", "a"): 0.5})

    def test_default_graph_holds_no_pairs(self):
        graph = WeightedPairGraph(["a", "b"])
        assert graph.n_pairs() == 0
        assert graph.weight("a", "b") == 0.0

    def test_pairs_iterates_items(self):
        graph = self.build()
        assert dict(graph.pairs()) == graph.weights

    def test_weights_is_a_counted_read_only_view(self):
        values = [0.9, 0.0, 0.2]
        graph = WeightedPairGraph(["a", "b", "c"], values=values)
        before = WeightedPairGraph.dict_views
        view = graph.weights
        assert graph.weights is view
        assert WeightedPairGraph.dict_views == before + 1
        with pytest.raises(TypeError):
            view[("a", "b")] = 0.1
        assert values == [0.9, 0.0, 0.2]
        assert graph.weight("b", "a") == 0.9

    def test_graphs_are_immutable(self):
        for name in ("set_weight", "copy"):
            assert not hasattr(WeightedPairGraph, name)


class TestDecisionGraph:
    def build(self):
        return DecisionGraph.from_pairs(["a", "b", "c", "d"],
                                        [("a", "b"), ("c", "b")])

    def test_has_edge_symmetric(self):
        graph = self.build()
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert not graph.has_edge("a", "c")

    def test_edges_is_a_memoised_frozenset(self):
        graph = self.build()
        vector = graph.vector()
        assert graph.edges == {("a", "b"), ("b", "c")}
        assert isinstance(graph.edges, frozenset)
        assert graph.edges is graph.edges
        assert graph.vector() == vector

    def test_graphs_are_immutable(self):
        for name in ("add_edge", "remove_edge", "copy", "degree",
                     "neighbors"):
            assert not hasattr(DecisionGraph, name)
        with pytest.raises(AttributeError):
            self.build().edges = frozenset()

    def test_adjacency_covers_isolated_nodes(self):
        adjacency = self.build().adjacency()
        assert adjacency["d"] == set()
        assert adjacency["a"] == {"b"}
        assert adjacency["b"] == {"a", "c"}

    def test_from_pairs(self):
        graph = DecisionGraph.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])
        assert graph.n_edges() == 1
        with pytest.raises(ValueError, match="self-pair"):
            DecisionGraph.from_pairs(["a", "b"], [("b", "b")])

    def test_default_graph_has_no_edges(self):
        graph = DecisionGraph(["a", "b"])
        assert graph.n_edges() == 0
        assert graph.edges == frozenset()
        assert graph == DecisionGraph.from_pairs(["a", "b"], [])
