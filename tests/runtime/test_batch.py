"""Batched graph construction must be bit-identical to the naive loops."""

from __future__ import annotations

import pytest

from repro.core.combination import undecided_layer
from repro.core.model import build_decision_layers
from repro.core.sweeps import BlockSweep
from repro.graph.entity_graph import pair_key
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.cache import SimilarityCache
from repro.similarity.base import SimilarityFunction
from repro.similarity.functions import default_functions


def _naive_graph_weights(block, features, functions):
    """The seed implementation: score every pair with every function."""
    ids = block.page_ids()
    weights = {function.name: {} for function in functions}
    for i, left_id in enumerate(ids):
        left = features[left_id]
        for right_id in ids[i + 1:]:
            right = features[right_id]
            key = pair_key(left_id, right_id)
            for function in functions:
                weights[function.name][key] = function(left, right)
    return weights


class TestBatchedGraphs:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_bit_identical_to_naive_for_all_functions(self, small_block,
                                                      block_features,
                                                      backend):
        functions = default_functions()
        naive = _naive_graph_weights(small_block, block_features, functions)
        batched = batched_similarity_graphs(small_block, block_features,
                                            functions, backend=backend)
        for function in functions:
            assert batched[function.name].weights == naive[function.name], \
                function.name
            assert batched[function.name].is_complete()
            # Same insertion (pair) order, not just same mapping.
            assert (list(batched[function.name].weights)
                    == list(naive[function.name]))

    def test_prepared_scorers_clamp_like_call(self, small_block,
                                              block_features):
        wild = SimilarityFunction(
            "F_wild", "test", "unclamped", lambda left, right: 7.5,
            lambda features: (lambda left, right: -7.5))
        ids = small_block.page_ids()[:2]
        left, right = block_features[ids[0]], block_features[ids[1]]
        assert wild(left, right) == 1.0  # plain path clamps high
        assert wild.prepared(block_features)(left, right) == 0.0  # low

    def test_function_without_preparer_uses_plain_scorer(self, small_block,
                                                         block_features):
        plain = SimilarityFunction(
            "F_plain", "test", "constant", lambda left, right: 0.25)
        graphs = batched_similarity_graphs(small_block, block_features,
                                           [plain])
        assert set(graphs["F_plain"].weights.values()) == {0.25}

    def test_cache_hit_skips_scoring_and_reproduces_graphs(self, small_block,
                                                           block_features):
        functions = default_functions()[:3]
        cache = SimilarityCache()
        first = batched_similarity_graphs(small_block, block_features,
                                          functions, cache=cache)
        misses = cache.pair_misses
        second = batched_similarity_graphs(small_block, block_features,
                                           functions, cache=cache)
        assert cache.pair_misses == misses  # nothing rescored
        assert cache.pair_hits == misses
        for function in functions:
            assert (second[function.name].weights
                    == first[function.name].weights)

    def test_fresh_graphs_match_the_shared_fixture(self, small_block,
                                                   block_features,
                                                   block_graphs):
        graphs = batched_similarity_graphs(small_block, block_features,
                                           default_functions())
        for name, graph in block_graphs.items():
            assert graphs[name].weights == graph.weights


def decided(fitted, graph):
    """``fitted`` applied to ``graph`` alone, as a one-layer sweep: the
    layer's edge set and its probabilities as a mapping."""
    layer = undecided_layer("F1", fitted.criterion_name, fitted, graph)
    BlockSweep().decide([layer])
    return layer.graph.edges, dict(layer.probability_graph.pairs())


class TestBatchedDecisions:
    def test_batched_application_matches_per_layer(self, small_block,
                                                   block_graphs):
        from repro.core.config import ResolverConfig
        from repro.core.resolver import EntityResolver

        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(small_block, graphs=dict(block_graphs))
        fitted = model.blocks[small_block.query_name]

        layers = build_decision_layers(fitted.layers, block_graphs)
        assert [layer.label for layer in layers] == [
            fitted_layer.label for fitted_layer in fitted.layers]
        for fitted_layer, layer in zip(fitted.layers, layers):
            graph = block_graphs[fitted_layer.function_name]
            expected_edges, expected_probabilities = decided(
                fitted_layer.fitted, graph)
            assert layer.graph.edges == expected_edges
            probabilities = dict(layer.probability_graph.pairs())
            assert probabilities == expected_probabilities
            assert list(probabilities) == list(expected_probabilities)

    def test_decided_edges_and_probabilities_match_scalar_rules(
            self, small_block, block_graphs):
        from repro.core.config import ResolverConfig
        from repro.core.resolver import EntityResolver

        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(small_block, graphs=dict(block_graphs))
        fitted = model.blocks[small_block.query_name]
        decisions = [layer.fitted for layer in fitted.layers[:3]]
        graph = block_graphs[fitted.layers[0].function_name]

        for decision in decisions:
            edges, probabilities = decided(decision, graph)
            for pair, value in graph.pairs():
                assert probabilities[pair] == decision.link_probability(value)
                assert (pair in edges) == decision.decide(value)
