"""Combiner tests."""

import pytest

from repro.core.combination import (
    BestGraphSelector,
    DecisionLayer,
    MajorityVoteCombiner,
    WeightedAverageCombiner,
    build_combiner,
)
from repro.core.decisions import ThresholdDecision
from repro.core.labels import TrainingSample
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph

NODES = ["a", "b", "c"]


def make_layer(function_name, edges, probabilities, graph_accuracy,
               training_data=((0.9, True), (0.1, False))):
    fitted = ThresholdDecision().fit(list(training_data))
    graph = DecisionGraph.from_pairs(NODES, edges)
    return DecisionLayer(
        function_name=function_name,
        criterion_name="threshold",
        graph=graph,
        probabilities=WeightedPairGraph.from_scores(NODES, probabilities),
        fitted=fitted,
        graph_accuracy=graph_accuracy,
    )


def make_training():
    return TrainingSample.from_pairs([
        (("a", "b"), True),
        (("a", "c"), False),
    ])


class TestBestGraphSelector:
    def test_picks_highest_graph_accuracy(self):
        weak = make_layer("F1", [("a", "c")], {("a", "c"): 0.8}, 0.3)
        strong = make_layer("F2", [("a", "b")], {("a", "b"): 0.9}, 0.9)
        result = BestGraphSelector().combine([weak, strong], make_training())
        assert result.chosen_layer == "F2/threshold"
        assert result.graph.edges == {("a", "b")}

    def test_tie_prefers_earlier(self):
        first = make_layer("F1", [("a", "b")], {}, 0.5)
        second = make_layer("F2", [("a", "c")], {}, 0.5)
        result = BestGraphSelector().combine([first, second], make_training())
        assert result.chosen_layer == "F1/threshold"

    def test_result_shares_the_chosen_layer_graphs(self):
        # Graphs are immutable, so the result hands out the layer's own.
        layer = make_layer("F1", [("a", "b")], {("a", "b"): 0.9}, 0.7)
        result = BestGraphSelector().combine([layer], make_training())
        assert result.graph is layer.graph
        assert result.probabilities is layer.probability_graph
        assert result.graph.edges == frozenset({("a", "b")})
        assert dict(result.probabilities.pairs()) == {("a", "b"): 0.9}

    def test_empty_layers_raise(self):
        with pytest.raises(ValueError, match="zero decision layers"):
            BestGraphSelector().combine([], make_training())


class TestWeightedAverageCombiner:
    def test_combined_probability_weighted(self):
        # Two layers with equal graph accuracies but different fitted
        # training accuracies used as weights.
        high = make_layer("F1", [("a", "b")],
                          {("a", "b"): 1.0, ("a", "c"): 0.0}, 0.9)
        low = make_layer("F2", [],
                         {("a", "b"): 0.0, ("a", "c"): 0.0}, 0.9)
        result = WeightedAverageCombiner().combine([high, low], make_training())
        # Both fitted accuracies are 1.0 (separable toy data), so the
        # combined probability of (a, b) is 0.5 and of (a, c) is 0.0.
        assert result.probabilities.weight("a", "b") == pytest.approx(0.5)
        assert result.probabilities.weight("a", "c") == pytest.approx(0.0)

    def test_threshold_learned_and_applied(self):
        layers = [
            make_layer("F1", [("a", "b")], {("a", "b"): 0.9, ("a", "c"): 0.2}, 0.9),
            make_layer("F2", [("a", "b")], {("a", "b"): 0.8, ("a", "c"): 0.1}, 0.8),
        ]
        result = WeightedAverageCombiner().combine(layers, make_training())
        assert result.threshold is not None
        assert ("a", "b") in result.graph.edges
        assert ("a", "c") not in result.graph.edges

    def test_empty_layers_raise(self):
        with pytest.raises(ValueError):
            WeightedAverageCombiner().combine([], make_training())


class TestMajorityVoteCombiner:
    def test_strict_majority_required(self):
        layers = [
            make_layer("F1", [("a", "b")], {("a", "b"): 0.9, ("a", "c"): 0.1}, 0.5),
            make_layer("F2", [("a", "b")], {("a", "b"): 0.9, ("a", "c"): 0.1}, 0.5),
            make_layer("F3", [("a", "c")], {("a", "b"): 0.1, ("a", "c"): 0.9}, 0.5),
        ]
        result = MajorityVoteCombiner().combine(layers, make_training())
        assert ("a", "b") in result.graph.edges
        assert ("a", "c") not in result.graph.edges

    def test_half_is_not_majority(self):
        layers = [
            make_layer("F1", [("a", "b")], {("a", "b"): 0.9}, 0.5),
            make_layer("F2", [], {("a", "b"): 0.1}, 0.5),
        ]
        result = MajorityVoteCombiner().combine(layers, make_training())
        assert ("a", "b") not in result.graph.edges

    def test_probabilities_are_vote_fractions(self):
        layers = [
            make_layer("F1", [("a", "b")], {("a", "b"): 0.9}, 0.5),
            make_layer("F2", [], {("a", "b"): 0.1}, 0.5),
        ]
        result = MajorityVoteCombiner().combine(layers, make_training())
        assert result.probabilities.weight("a", "b") == pytest.approx(0.5)


class TestBuildCombiner:
    def test_known_names(self):
        assert build_combiner("best_graph").name == "best_graph"
        assert build_combiner("weighted_average").name == "weighted_average"
        assert build_combiner("majority").name == "majority"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            build_combiner("quantum")


class TestMaskedGraphSemantics:
    """What a candidate mask means to the decision layers, pinned under
    both vector routes (``list`` from the ``python`` backend, float64
    arrays from ``numpy``): a pair absent from every layer is absent from
    the combined graph and from every edge set, while a stored 0.0 is a
    stored pair like any other."""

    MASKED = ["a", "b", "c", "d"]
    #: (a, b), (a, c) and (c, d) are candidates; (a, d), (b, c) and
    #: (b, d) are not.  (a, c) carries a stored zero in both layers.
    STORED = [("a", "b"), ("a", "c"), ("c", "d")]
    ABSENT = [("a", "d"), ("b", "c"), ("b", "d")]

    @pytest.fixture(params=["python", "numpy"])
    def vector(self, request):
        if request.param == "numpy":
            numpy = pytest.importorskip("numpy")
            return lambda values: numpy.asarray(values, dtype=float)
        return list

    def graphs(self, vector):
        from repro.graph.entity_graph import (
            PairLayout,
            WeightedPairGraph,
            pair_position,
        )
        index = {node: position for position, node in enumerate(self.MASKED)}
        layout = PairLayout(self.MASKED, [
            pair_position(index[left], index[right], len(self.MASKED))
            for left, right in self.STORED])
        return [WeightedPairGraph(self.MASKED, layout=layout,
                                  values=vector(values))
                for values in ([0.9, 0.0, 0.4], [0.7, 0.0, 0.6])]

    def layers(self, vector, fitted):
        from repro.core.combination import undecided_layer
        from repro.core.sweeps import BlockSweep
        layers = [undecided_layer(f"F{index}", "threshold", fitted, graph)
                  for index, graph in enumerate(self.graphs(vector), start=1)]
        BlockSweep().decide(layers)
        return layers

    def test_absent_pairs_stay_absent_and_stored_zeros_stay(self, vector):
        from repro.core.combination import average_probabilities
        fitted = ThresholdDecision().fit([(0.2, False), (0.8, True)])
        layers = self.layers(vector, fitted)
        combined = average_probabilities(layers, [1.0, 1.0])
        assert [pair for pair, _ in combined.pairs()] == self.STORED
        # The stored zero similarity is scored like any stored pair.
        assert combined.weight("a", "c") == fitted.link_probability(0.0)
        for pair in self.ABSENT:
            assert pair not in dict(combined.pairs())
        for layer in layers:
            assert layer.graph.edges <= set(self.STORED)
            assert [pair for pair, _ in layer.probability_graph.pairs()] \
                == self.STORED

    def test_always_link_links_every_stored_pair_and_no_absent_one(
            self, vector):
        from repro.core.combination import thresholded_result
        from repro.core.thresholds import ALWAYS_LINK
        fitted = ThresholdDecision().fit([(0.5, True), (0.9, True)])
        assert fitted.profile.regions.threshold == ALWAYS_LINK
        layers = self.layers(vector, fitted)
        for layer in layers:
            assert layer.graph.edges == set(self.STORED)

        training = TrainingSample.from_pairs(
            [(pair, True) for pair in self.STORED])
        result = WeightedAverageCombiner().combine(layers, training)
        assert result.threshold == ALWAYS_LINK
        assert result.graph.edges == set(self.STORED)
        assert ("a", "c") in result.graph.edges  # the stored zero
        assert not result.graph.edges & set(self.ABSENT)

        cut = thresholded_result(result.probabilities, ALWAYS_LINK)
        assert cut.graph.edges == set(self.STORED)
