"""A block's graphs are reused only by being passed, on every backend.

There is one way for a pass to get a block's similarity graphs: the
caller supplies them (``graphs=`` / ``graphs_by_name=``), or the task
computes them now.  So a pass's ``pairs_scored`` is the summed pairs of
the graphs it computed — every consulted function on every pair, each
time it runs — and 0 for graphs it was handed; and scoring keeps no
state between calls.
"""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.corpus.datasets import WWW05_NAMES, www05_like
from repro.experiments.runner import ExperimentContext
from repro.runtime import tasks
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.executor import SerialExecutor
from repro.similarity.base import read_fields
from repro.similarity.functions import default_functions

BACKENDS = ("python", "numpy")


@pytest.fixture(scope="module")
def dataset():
    return www05_like(seed=3, pages_per_name=10, names=WWW05_NAMES[:2])


@pytest.fixture(scope="module")
def block_and_features(dataset):
    pipeline = EntityResolver(ResolverConfig()).pipeline_for(dataset)
    block = dataset.collections[0]
    return block, pipeline.extract_block(block)


def n_pairs(dataset) -> int:
    return sum(len(block) * (len(block) - 1) // 2 for block in dataset)


def weight_bits(graphs) -> dict[str, list]:
    return {name: [(key, float(value).hex())
                   for key, value in graph.weights.items()]
            for name, graph in graphs.items()}


class TestEveryPassCountsWhatItScored:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_scores_every_function_on_every_pair(self, dataset, backend):
        model = EntityResolver(ResolverConfig(backend=backend)).fit(
            dataset, training_seed=0, executor=SerialExecutor())
        assert (model.fit_stats.pairs_scored
                == len(default_functions()) * n_pairs(dataset))
        assert model.fit_stats.backend == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prepare_scores_every_function_on_every_pair(self, dataset,
                                                         backend):
        context = ExperimentContext.prepare(dataset, backend=backend)
        assert (context.stats.pairs_scored
                == len(default_functions()) * n_pairs(dataset))
        for graphs in context.graphs_by_name.values():
            assert list(graphs) == [function.name
                                    for function in default_functions()]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_predicting_twice_scores_twice_and_agrees(self, dataset,
                                                      backend):
        """No pass remembers another's graphs: the second predict scores
        every consulted pair again, and predicts the same."""
        model = EntityResolver(ResolverConfig(backend=backend)).fit(
            dataset, training_seed=0)
        unlabeled = dataset.without_labels()
        first = model.predict(unlabeled, executor=SerialExecutor())
        second = model.predict(unlabeled, executor=SerialExecutor())
        # best_graph consults one function per name.
        assert first.stats.pairs_scored == n_pairs(dataset)
        assert second.stats.pairs_scored == first.stats.pairs_scored
        for left, right in zip(first.blocks, second.blocks):
            assert left.predicted == right.predicted

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_supplied_graphs_score_no_pair(self, dataset, backend):
        """fit + evaluate over prepared graphs score nothing and decide
        what the passes that compute their own graphs decide."""
        resolver = EntityResolver(ResolverConfig(backend=backend))
        graphs = ExperimentContext.prepare(
            dataset, backend=backend).graphs_by_name
        model = resolver.fit(dataset, training_seed=0, graphs_by_name=graphs)
        handed = model.evaluate_collection(dataset, graphs_by_name=graphs)
        computed = resolver.fit(dataset, training_seed=0).evaluate(dataset)
        assert model.fit_stats.pairs_scored == 0
        assert handed.stats.pairs_scored == 0
        assert handed.stats.n_blocks == len(dataset)
        for left, right in zip(handed.blocks, computed.blocks):
            assert left.predicted == right.predicted
            assert left.report == right.report


class TestScoringKeepsNoState:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scoring_twice_reproduces_graphs(self, block_and_features,
                                             backend):
        block, features = block_and_features
        functions = default_functions()
        first = batched_similarity_graphs(block, features, functions,
                                          backend=backend)
        second = batched_similarity_graphs(block, features, functions,
                                           backend=backend)
        assert all(second[name] is not first[name] for name in first)
        assert weight_bits(second) == weight_bits(first)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_subset_of_functions_scores_the_same_graphs(
            self, block_and_features, backend):
        """A function's graph does not depend on which other functions
        are scored with it (the numpy backend stacks them by family)."""
        block, features = block_and_features
        functions = default_functions()
        whole = batched_similarity_graphs(block, features, functions,
                                          backend=backend)
        for subset in (functions[:3], functions[3:], functions[::4]):
            part = batched_similarity_graphs(block, features, subset,
                                             backend=backend)
            assert list(part) == [function.name for function in subset]
            assert weight_bits(part) == weight_bits(
                {name: whole[name] for name in part})

    def test_graphs_scored_by_one_backend_serve_the_other(self, dataset):
        """Bit-identity is what lets graphs cross backends: a python
        model fitted and evaluated over numpy-scored graphs equals one
        that scored its own."""
        graphs = ExperimentContext.prepare(
            dataset, backend="numpy").graphs_by_name
        resolver = EntityResolver(ResolverConfig(backend="python"))
        handed = resolver.fit(dataset, training_seed=0,
                              graphs_by_name=graphs)
        own = resolver.fit(dataset, training_seed=0)
        assert ({name: fitted.to_dict()
                 for name, fitted in handed.blocks.items()}
                == {name: fitted.to_dict()
                    for name, fitted in own.blocks.items()})
        assert ([block.report for block in handed.evaluate_collection(
                    dataset, graphs_by_name=graphs).blocks]
                == [block.report for block in own.evaluate(dataset).blocks])


class TestBlockGraphsRule:
    """``tasks.block_graphs``: supplied graphs, else supplied features,
    else the pipeline — the one rule every task body follows."""

    def test_supplied_graphs_are_returned_as_they_are(self, small_block,
                                                      block_graphs):
        class NoPipeline:
            def extract_block(self, *args, **kwargs):
                raise AssertionError("supplied graphs need no extraction")

        graphs = dict(block_graphs)
        assert tasks.block_graphs(small_block, graphs, NoPipeline(),
                                  default_functions()) is graphs

    def test_supplied_features_are_scored_without_a_pipeline(
            self, small_block, block_features, block_graphs):
        functions = default_functions()[:2]
        graphs = tasks.block_graphs(small_block, None, None, functions,
                                    features=block_features)
        assert weight_bits(graphs) == weight_bits(
            {function.name: block_graphs[function.name]
             for function in functions})

    def test_the_pipeline_extracts_what_the_functions_read(
            self, small_block, pipeline, block_graphs):
        reads = []

        class Recording:
            def extract_block(self, block, **kwargs):
                reads.append(kwargs.get("reads"))
                return pipeline.extract_block(block, **kwargs)

        functions = [function for function in default_functions()
                     if function.name == "F8"]
        graphs = tasks.block_graphs(small_block, None, Recording(),
                                    functions)
        assert reads == [read_fields(functions)]
        assert weight_bits(graphs) == weight_bits(
            {"F8": block_graphs["F8"]})

    def test_nothing_to_score_from_raises(self, small_block):
        with pytest.raises(ValueError, match="neither precomputed graphs"):
            tasks.block_graphs(small_block, None, None, default_functions())
