"""Batched graph construction must be bit-identical to the naive loops."""

from __future__ import annotations

import pytest

from repro.core.combination import undecided_layer
from repro.core.model import build_decision_layers
from repro.core.sweeps import BlockSweep
from repro.graph.entity_graph import pair_key
from repro.runtime.batch import batched_similarity_graphs
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

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_custom_scorer_is_swept_clamped(self, small_block,
                                            block_features, backend):
        """A custom function has no kernel on any backend: its plain
        scorer is swept, and every value clamped like ``__call__``."""
        raw = {}

        def unclamped(left, right):
            value = (-7.5, 0.25, 7.5)[len(raw) % 3]
            raw[left.doc_id, right.doc_id] = value
            return value

        wild = SimilarityFunction("F_wild", "test", "unclamped", unclamped)
        graphs = batched_similarity_graphs(small_block, block_features,
                                           [wild], backend=backend)
        assert set(raw.values()) == {-7.5, 0.25, 7.5}
        assert list(graphs["F_wild"].weights.values()) == [
            min(1.0, max(0.0, value)) for value in raw.values()]

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
