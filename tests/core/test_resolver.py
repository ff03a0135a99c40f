"""End-to-end resolver tests (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.labels import TrainingSample
from repro.core.resolver import (
    EntityResolver,
    _graph_accuracy,
    _node_numbers,
)
from repro.graph.components import UnionFind
from repro.graph.entity_graph import DecisionGraph, pair_key
from repro.graph.validation import is_partition
from repro.metrics.clusterings import clustering_from_assignments
from repro.runtime.batch import batched_similarity_graphs
from repro.similarity.functions import default_functions


class TestComputeSimilarityGraphs:
    def test_complete_graphs_for_all_functions(self, small_block,
                                               block_features):
        graphs = batched_similarity_graphs(
            small_block, block_features, default_functions())
        assert set(graphs) == {f"F{i}" for i in range(1, 11)}
        for graph in graphs.values():
            assert graph.is_complete()

    def test_values_in_unit_interval(self, block_graphs):
        for graph in block_graphs.values():
            assert all(0.0 <= value <= 1.0 for value in graph.values())


class TestGraphAccuracy:
    def test_closure_punishes_chains(self):
        nodes = ["a", "b", "c"]
        chained = DecisionGraph.from_pairs(nodes, [("a", "b"), ("b", "c")])
        training = TrainingSample.from_pairs([
            (("a", "b"), True),
            (("a", "c"), False),  # chain closure gets this wrong
            (("b", "c"), False),
        ])
        assert _graph_accuracy(chained, training) == pytest.approx(1 / 3)
        sparse = DecisionGraph.from_pairs(nodes, [("a", "b")])
        assert _graph_accuracy(sparse, training) == 1.0

    def test_empty_training(self):
        graph = DecisionGraph(nodes=["a"])
        assert _graph_accuracy(graph, TrainingSample.from_pairs([])) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_closure_equals_string_union_find(self, data):
        """The closure on integer parent arrays — with or without a
        shared numbering — gives the accuracy of the seed's per-layer
        string-keyed ``UnionFind``."""
        nodes = [f"n{index}" for index in range(
            data.draw(st.integers(min_value=2, max_value=9)))]
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)) \
            .filter(lambda pair: pair[0] != pair[1]) \
            .map(lambda pair: pair_key(*pair))
        graph = DecisionGraph.from_pairs(
            nodes, data.draw(st.sets(pairs, max_size=12)))
        training = TrainingSample.from_pairs(data.draw(st.lists(
            st.tuples(pairs, st.booleans()), min_size=1, max_size=10)))

        forest = UnionFind(graph.nodes)
        for left, right in graph.edges:
            forest.union(left, right)
        expected = sum(forest.connected(left, right) == label
                       for (left, right), label in training.pairs) \
            / len(training.pairs)

        assert _graph_accuracy(graph, training) == expected
        numbers = _node_numbers(reversed(nodes), training)
        assert _graph_accuracy(graph, training, numbers) == expected


class TestResolveBlock:
    def test_output_is_partition(
            self, small_block, block_graphs, fit_evaluate):
        resolver = EntityResolver(ResolverConfig())
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert is_partition([set(c) for c in result.predicted],
                            small_block.page_ids())

    def test_report_metrics_present(self, small_block, block_graphs,
                                    fit_evaluate):
        resolver = EntityResolver(ResolverConfig())
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert 0.0 <= result.report.fp <= 1.0
        assert 0.0 <= result.report.f1 <= 1.0

    def test_chosen_layer_reported_for_best_graph(self, small_block,
                                                  block_graphs, fit_evaluate):
        resolver = EntityResolver(ResolverConfig(combiner="best_graph"))
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert result.chosen_layer in result.layer_accuracies

    def test_no_chosen_layer_for_weighted(self, small_block, block_graphs,
                                          fit_evaluate):
        resolver = EntityResolver(ResolverConfig(combiner="weighted_average"))
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert result.chosen_layer is None
        assert result.combination.threshold is not None

    def test_layer_count(self, small_block, block_graphs, fit_evaluate):
        config = ResolverConfig(criteria=("threshold", "kmeans"))
        resolver = EntityResolver(config)
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert len(result.layer_accuracies) == 10 * 2

    def test_deterministic_given_seed(self, small_block, block_graphs,
                                      fit_evaluate):
        resolver = EntityResolver(ResolverConfig())
        first = fit_evaluate(resolver, small_block, training_seed=7,
                             graphs=block_graphs)
        second = fit_evaluate(resolver, small_block, training_seed=7,
                              graphs=block_graphs)
        assert first.predicted == second.predicted

    def test_different_seeds_may_differ_but_stay_valid(self, small_block,
                                                       block_graphs,
                                                       fit_evaluate):
        resolver = EntityResolver(ResolverConfig())
        for seed in range(3):
            result = fit_evaluate(resolver, small_block, training_seed=seed,
                                  graphs=block_graphs)
            assert is_partition([set(c) for c in result.predicted],
                                small_block.page_ids())

    def test_correlation_clusterer(self, small_block, block_graphs,
                                   fit_evaluate):
        resolver = EntityResolver(ResolverConfig(clusterer="correlation"))
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=block_graphs)
        assert is_partition([set(c) for c in result.predicted],
                            small_block.page_ids())

    def test_needs_inputs(self, small_block, fit_evaluate):
        resolver = EntityResolver(ResolverConfig())
        with pytest.raises(ValueError, match="pipeline"):
            fit_evaluate(resolver, small_block)

    def test_features_path(self, small_block, block_features, fit_evaluate):
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              features=block_features)
        assert result.report.fp > 0.0


class TestResolveCollection:
    def test_all_blocks_resolved(self, small_dataset, fit_evaluate):
        resolver = EntityResolver(ResolverConfig(function_names=("F8", "F2")))
        result = fit_evaluate(resolver, small_dataset, training_seed=0)
        assert len(result.blocks) == len(small_dataset)
        assert result.dataset == small_dataset.name

    def test_mean_report(self, small_dataset, fit_evaluate):
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        result = fit_evaluate(resolver, small_dataset, training_seed=0)
        mean = result.mean_report()
        per_name = [block.report.fp for block in result.blocks]
        assert mean.fp == pytest.approx(sum(per_name) / len(per_name))

    def test_by_name(self, small_dataset, fit_evaluate):
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        result = fit_evaluate(resolver, small_dataset, training_seed=0)
        block = result.by_name("William Cohen")
        assert block.query_name == "William Cohen"
        with pytest.raises(KeyError):
            result.by_name("Nobody")

    def test_predictions_match_truth_universe(self, small_dataset,
                                              fit_evaluate):
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        result = fit_evaluate(resolver, small_dataset, training_seed=0)
        for block_result, block in zip(result.blocks, small_dataset):
            truth = clustering_from_assignments(block.ground_truth())
            assert block_result.predicted.items == truth.items

    def test_pipeline_required_without_metadata(self, small_dataset,
                                                fit_evaluate):
        from repro.corpus.documents import DocumentCollection
        stripped = DocumentCollection(name="x",
                                      collections=small_dataset.collections)
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        with pytest.raises(ValueError, match="vocabulary metadata"):
            fit_evaluate(resolver, stripped)


class TestDeprecatedWrappers:
    """The deprecated fit+evaluate wrappers are deleted; the API that
    replaced them never warned."""

    def test_fit_predict_does_not_warn(self, small_block, block_graphs):
        import warnings

        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            model = resolver.fit(small_block, training_seed=0,
                                 graphs=block_graphs)
            model.evaluate_block(small_block, graphs=block_graphs)
