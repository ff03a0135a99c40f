"""Entropy-metric tests (paper future work §VII)."""

import math

import pytest

from repro.core.entropy import (
    EntropyWeightedCombiner,
    feature_availability,
    information_gain,
    layer_information_gain,
    shannon_entropy,
    value_entropy,
)
from repro.core.labels import TrainingSample
from repro.core.regions import EqualWidthRegions
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph
from repro.ml.sampling import sample_training_pairs


class TestShannonEntropy:
    def test_uniform_two(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_certain(self):
        assert shannon_entropy([1.0]) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_skewed_below_uniform(self):
        assert shannon_entropy([0.9, 0.1]) < 1.0

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            shannon_entropy([0.5, 0.2])


class TestFeatureAvailability:
    def test_counts_available_features(self):
        features = {
            "a": PageFeatures(doc_id="a", most_frequent_name="X Y",
                              tfidf={"w": 1.0}),
            "b": PageFeatures(doc_id="b"),
        }
        availability = feature_availability(features)
        assert availability["most_frequent_name"] == 0.5
        assert availability["tfidf"] == 0.5
        assert availability["organizations"] == 0.0

    def test_empty(self):
        availability = feature_availability({})
        assert all(value == 0.0 for value in availability.values())

    def test_on_generated_block(self, block_features):
        availability = feature_availability(block_features)
        # TF-IDF is always available; organizations are sometimes missing.
        assert availability["tfidf"] == 1.0
        assert 0.0 < availability["organizations"] <= 1.0


class TestValueEntropy:
    def test_constant_values_zero_entropy(self):
        graph = WeightedPairGraph.from_scores(["a", "b", "c"], {
            ("a", "b"): 0.5, ("a", "c"): 0.5, ("b", "c"): 0.5})
        assert value_entropy(graph) == 0.0

    def test_spread_values_positive_entropy(self):
        graph = WeightedPairGraph.from_scores(["a", "b", "c"], {
            ("a", "b"): 0.05, ("a", "c"): 0.55, ("b", "c"): 0.95})
        assert value_entropy(graph) == pytest.approx(math.log2(3))

    def test_empty_graph(self):
        assert value_entropy(WeightedPairGraph(nodes=[])) == 0.0


class TestInformationGain:
    def test_perfectly_informative(self):
        regions = EqualWidthRegions(2)
        data = [(0.1, False)] * 10 + [(0.9, True)] * 10
        assert information_gain(regions, data) == pytest.approx(1.0)

    def test_uninformative(self):
        regions = EqualWidthRegions(2)
        data = [(0.1, False), (0.1, True), (0.9, False), (0.9, True)]
        assert information_gain(regions, data) == pytest.approx(0.0)

    def test_empty(self):
        assert information_gain(EqualWidthRegions(2), []) == 0.0

    def test_non_negative(self):
        regions = EqualWidthRegions(10)
        data = [(i / 20, i % 3 == 0) for i in range(20)]
        assert information_gain(regions, data) >= 0.0

    def test_bounded_by_label_entropy(self):
        regions = EqualWidthRegions(10)
        data = [(i / 20, i % 2 == 0) for i in range(20)]
        assert information_gain(regions, data) <= 1.0 + 1e-9


class TestEntropyWeightedCombiner:
    def test_end_to_end_on_block(self, small_block, block_graphs):
        from repro.core import EntityResolver, ResolverConfig
        from repro.graph.transitive import transitive_closure_clusters
        from repro.graph.validation import is_partition

        resolver = EntityResolver(ResolverConfig())
        training = TrainingSample.from_pairs(
            sample_training_pairs(small_block, fraction=0.1, seed=0))
        layers = resolver.build_layers(block_graphs, training)
        combiner = EntropyWeightedCombiner(block_graphs)
        result = combiner.combine(layers, training)
        clusters = transitive_closure_clusters(result.graph)
        assert is_partition([set(c) for c in clusters],
                            small_block.page_ids())
        assert result.threshold is not None

    def test_layer_information_gain(self, small_block, block_graphs):
        from repro.core import EntityResolver, ResolverConfig
        resolver = EntityResolver(ResolverConfig(criteria=("kmeans",)))
        training = TrainingSample.from_pairs(
            sample_training_pairs(small_block, fraction=0.1, seed=0))
        layers = resolver.build_layers(block_graphs, training)
        gains = [layer_information_gain(layer,
                                        block_graphs[layer.function_name],
                                        training)
                 for layer in layers]
        assert all(gain >= 0.0 for gain in gains)
        assert any(gain > 0.0 for gain in gains)
