"""Label-free passes decide only what the combiner consults — and it shows
nowhere but in the pair counts.

The oracle is the unpruned pass spelled out by hand: score the whole
battery, build every fitted layer, ``combiner.apply`` them all, cluster.
Every label-free path (model predict, the cluster stage serial and across
worker processes, the incremental bootstrap) must reproduce it exactly
for every combiner, on both backends, dense and under a candidate mask.
"""

from __future__ import annotations

import pytest

from repro.core.clusterers import cluster_combination
from repro.core.combination import (
    Combiner,
    CombinationResult,
    build_combiner,
    consulted_function_names,
)
from repro.core.config import ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.core.model import (
    FittedBlock,
    ResolverModel,
    build_decision_layers,
)
from repro.core.registry import register_combiner
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import www05_like
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph
from repro.pipeline.artifacts import Corpus
from repro.pipeline.stage import PipelineContext
from repro.pipeline.stages import BlockingStage
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.executor import executor_for_workers
from repro.similarity.functions import functions_subset


@register_combiner("union_test", replace=True)
class UnionCombiner(Combiner):
    """Edge iff any layer asserts it; inherits "consults every layer"."""

    name = "union_test"

    def combine(self, layers, training):
        return self.apply(layers, {})

    def apply(self, layers, params):
        nodes = list(layers[0].graph.nodes)
        probabilities = {}
        for layer in layers:
            for pair, probability in layer.probabilities.items():
                probabilities[pair] = max(probability,
                                          probabilities.get(pair, 0.0))
        edges = set().union(*(layer.graph.edges for layer in layers))
        return CombinationResult(
            graph=DecisionGraph(nodes=nodes, edges=edges),
            probabilities=WeightedPairGraph(nodes=nodes,
                                            weights=probabilities))


COMBINERS = ("best_graph", "weighted_average", "majority", "union_test")
BACKENDS = ("python", "numpy")
BLOCKERS = ("query_name", "token")


@pytest.fixture(scope="module")
def dataset():
    return www05_like(seed=5, pages_per_name=12,
                      names=["William Cohen", "Adam Cheyer"])


@pytest.fixture(scope="module")
def workers():
    # Oversubscribed: a genuine two-process pool even on one core.
    executor = executor_for_workers(2, oversubscribe=True)
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def fitted_models(dataset):
    cache = {}

    def fit(combiner, backend, blocker) -> ResolverModel:
        key = (combiner, backend, blocker)
        if key not in cache:
            config = ResolverConfig(combiner=combiner, backend=backend,
                                    blocker=blocker)
            cache[key] = EntityResolver(config).fit(dataset, training_seed=0)
        return cache[key]

    return fit


def without_stored_winner(model: ResolverModel) -> ResolverModel:
    """The same model with ``chosen_layer`` dropped from every block."""
    blocks = {
        name: FittedBlock(
            query_name=name, layers=list(fitted.layers),
            combiner_params={key: value for key, value
                             in fitted.combiner_params.items()
                             if key != "chosen_layer"},
            n_training=fitted.n_training)
        for name, fitted in model.blocks.items()}
    return ResolverModel(model.config, blocks, pipeline=model.pipeline)


def unpruned_oracle(model: ResolverModel, dataset):
    """Per block name: (partition, combination) of the unpruned pass."""
    config = model.config
    ctx = PipelineContext(config=config, executor=executor_for_workers(1))
    blocks = BlockingStage().run(Corpus(collection=dataset), ctx)
    combiner = build_combiner(config.combiner)
    battery = functions_subset(config.function_names)
    oracle = {}
    for block in blocks:
        fitted = model.blocks[block.query_name]
        graphs = batched_similarity_graphs(
            block, model.pipeline.extract_block(block), battery,
            backend=config.backend, mask=blocks.mask_for(block.query_name))
        combination = combiner.apply(
            build_decision_layers(fitted.layers, graphs),
            fitted.combiner_params)
        oracle[block.query_name] = (
            cluster_combination(config.clusterer, combination,
                                seed=config.correlation_seed),
            combination)
    return oracle


def assert_matches_oracle(prediction, model, oracle):
    assert [block.query_name for block in prediction.blocks] == list(oracle)
    for block in prediction.blocks:
        predicted, combination = oracle[block.query_name]
        assert block.predicted == predicted
        assert block.combination.graph.edges == combination.graph.edges
        assert (block.combination.probabilities.weights
                == combination.probabilities.weights)
        assert block.combination.chosen_layer == combination.chosen_layer
        assert block.combination.threshold == combination.threshold
        # Every fitted layer is still reported, consulted or not.
        assert (block.layer_accuracies
                == model.blocks[block.query_name].layer_accuracies())


@pytest.mark.parametrize("blocker", BLOCKERS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("combiner", COMBINERS)
class TestPrunedPredictEqualsUnprunedOracle:
    def test_serial_and_two_workers(self, dataset, fitted_models, workers,
                                    combiner, backend, blocker):
        model = fitted_models(combiner, backend, blocker)
        oracle = unpruned_oracle(model, dataset)
        unlabeled = dataset.without_labels()
        assert_matches_oracle(model.predict(unlabeled), model, oracle)
        assert_matches_oracle(model.predict(unlabeled, executor=workers),
                              model, oracle)

    def test_without_the_stored_winner(self, dataset, fitted_models, workers,
                                       combiner, backend, blocker):
        model = without_stored_winner(
            fitted_models(combiner, backend, blocker))
        oracle = unpruned_oracle(model, dataset)
        unlabeled = dataset.without_labels()
        assert_matches_oracle(model.predict(unlabeled), model, oracle)
        assert_matches_oracle(model.predict(unlabeled, executor=workers),
                              model, oracle)


class TestCallerSuppliedGraphs:
    @pytest.mark.parametrize("combiner", ("best_graph", "weighted_average"))
    def test_whole_battery_or_consulted_only(self, dataset, fitted_models,
                                             combiner):
        model = fitted_models(combiner, "numpy", "query_name")
        block = dataset.collections[0]
        fitted = model.blocks[block.query_name]
        graphs = batched_similarity_graphs(
            block, model.pipeline.extract_block(block),
            functions_subset(model.config.function_names))
        consulted = consulted_function_names(model.consulted_layers(fitted))
        narrow = {name: graphs[name] for name in consulted}
        reference = model.predict(block.without_labels())
        for supplied in (graphs, narrow):
            prediction = model.predict(block.without_labels(),
                                       graphs=supplied)
            assert prediction.predicted == reference.predicted
            assert (prediction.combination.probabilities.weights
                    == reference.combination.probabilities.weights)


class TestOnlyConsultedFunctionsAreScored:
    """A count, not a timing: what a predict pass scores."""

    def n_pairs(self, dataset) -> int:
        return sum(len(block) * (len(block) - 1) // 2 for block in dataset)

    def test_best_graph_scores_one_function(self, dataset, fitted_models):
        model = fitted_models("best_graph", "numpy", "query_name")
        model.release_fit_caches()  # cached pairs are hits, not scored
        prediction = model.predict(dataset.without_labels())
        assert prediction.stats.pairs_scored == self.n_pairs(dataset)

    def test_best_graph_workers_score_one_function(self, dataset,
                                                   fitted_models, workers):
        model = fitted_models("best_graph", "numpy", "query_name")
        prediction = model.predict(dataset.without_labels(),
                                   executor=workers)
        assert prediction.stats.pairs_scored == self.n_pairs(dataset)

    def test_weighted_average_scores_the_battery(self, dataset,
                                                 fitted_models):
        model = fitted_models("weighted_average", "numpy", "query_name")
        model.release_fit_caches()
        prediction = model.predict(dataset.without_labels())
        assert (prediction.stats.pairs_scored
                == len(model.config.function_names) * self.n_pairs(dataset))

    def test_fit_still_scores_the_battery(self, dataset, fitted_models):
        model = fitted_models("best_graph", "numpy", "query_name")
        assert (model.fit_stats.pairs_scored
                == len(model.config.function_names) * self.n_pairs(dataset))


class TestIncrementalBootstrapIsPruned:
    @pytest.mark.parametrize("combiner", ("best_graph", "weighted_average"))
    def test_from_model_scores_what_it_consults(self, dataset, fitted_models,
                                                combiner):
        model = fitted_models(combiner, "numpy", "query_name")
        block = dataset.collections[0]
        features = model.pipeline.extract_block(block)
        resolver = IncrementalResolver.from_model(
            model, block.without_labels(), features)
        fitted = model.blocks[block.query_name]
        assert (resolver.scoring_function_names()
                == consulted_function_names(model.consulted_layers(fitted)))
        assert resolver.clusters() == model.predict(
            block.without_labels()).predicted

    def test_unsupported_combiner_is_rejected_before_scoring(
            self, dataset, fitted_models):
        model = fitted_models("majority", "numpy", "query_name")
        block = dataset.collections[0]
        with pytest.raises(ValueError, match="incremental mode"):
            IncrementalResolver.from_model(model, block, features={})
