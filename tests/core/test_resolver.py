"""End-to-end resolver tests (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ResolverConfig
from repro.core.labels import TrainingSample
from repro.core.combination import undecided_layer
from repro.core.decisions import ThresholdDecision
from repro.core.resolver import EntityResolver
from repro.core.sweeps import BlockSweep
from repro.graph.components import UnionFind
from repro.graph.entity_graph import PairLayout, WeightedPairGraph, pair_key
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


def closure_accuracy(graphs, training, vector=list):
    """acc(G_Dj) of each ``(nodes, edges)`` decision graph, all closed in
    one :class:`BlockSweep`: each is the threshold-0.5 layer of a
    similarity graph holding 1.0 on its edges and 0.0 elsewhere."""
    fitted = ThresholdDecision().fit([(0.0, False), (1.0, True)])
    layers = []
    for nodes, edges in graphs:
        layout = PairLayout(nodes)
        values = [1.0 if key in edges else 0.0 for key in layout.keys()]
        layers.append(undecided_layer(
            "F1", "threshold", fitted,
            WeightedPairGraph(nodes, layout=layout, values=vector(values))))
    BlockSweep(training).decide(layers)
    for layer, (_, edges) in zip(layers, graphs):
        assert layer.graph.edges == set(edges)
    return [layer.graph_accuracy for layer in layers]


@pytest.fixture(params=["python", "numpy"])
def vector(request):
    """The pair-vector type each scoring backend emits."""
    if request.param == "numpy":
        numpy = pytest.importorskip("numpy")
        return lambda values: numpy.asarray(values, dtype=float)
    return list


class TestGraphAccuracy:
    def test_closure_punishes_chains(self, vector):
        nodes = ["a", "b", "c"]
        training = TrainingSample.from_pairs([
            (("a", "b"), True),
            (("a", "c"), False),  # chain closure gets this wrong
            (("b", "c"), False),
        ])
        chained, sparse = closure_accuracy(
            [(nodes, {("a", "b"), ("b", "c")}), (nodes, {("a", "b")})],
            training, vector)
        assert chained == pytest.approx(1 / 3)
        assert sparse == 1.0

    def test_empty_training(self, vector):
        assert closure_accuracy([(["a"], set())],
                                TrainingSample.from_pairs([]),
                                vector) == [0.0]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_closure_equals_string_union_find(self, data):
        """The batched closure on integer ids — layers over one layout,
        and a layout whose block order differs from the shared numbering
        — gives the accuracy of the seed's per-layer string-keyed
        ``UnionFind``."""
        nodes = [f"n{index}" for index in range(
            data.draw(st.integers(min_value=2, max_value=9)))]
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)) \
            .filter(lambda pair: pair[0] != pair[1]) \
            .map(lambda pair: pair_key(*pair))
        edges = data.draw(st.sets(pairs, max_size=12))
        training = TrainingSample.from_pairs(data.draw(st.lists(
            st.tuples(pairs, st.booleans()), min_size=1, max_size=10)))

        forest = UnionFind(nodes)
        for left, right in edges:
            forest.union(left, right)
        expected = sum(forest.connected(left, right) == label
                       for (left, right), label in training.pairs) \
            / len(training.pairs)

        graphs = [(nodes, edges), (list(reversed(nodes)), edges)]
        assert closure_accuracy(graphs, training) == [expected, expected]
        numpy = pytest.importorskip("numpy")
        assert closure_accuracy(graphs, training, numpy.asarray) \
            == [expected, expected]


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


class TestVectorPath:
    """Between the scoring kernels and clustering, the default path
    sweeps pair vectors: it builds no ``dict[PairKey, float]``."""

    @pytest.fixture(scope="class")
    def golden_block(self):
        import importlib.util
        from pathlib import Path
        script = Path(__file__).resolve().parents[2] / "scripts" / \
            "regenerate_goldens.py"
        spec = importlib.util.spec_from_file_location("goldens", script)
        goldens = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(goldens)
        collection = goldens.golden_collection()
        return collection, collection.collections[0]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_default_fit_and_predict_build_no_pair_dicts(self, golden_block,
                                                         backend):
        from repro.graph.entity_graph import WeightedPairGraph
        collection, block = golden_block
        resolver = EntityResolver(ResolverConfig(backend=backend))
        pipeline = resolver.pipeline_for(collection)
        before = WeightedPairGraph.dict_views
        model = resolver.fit(block, pipeline=pipeline)
        prediction = model.predict(block.without_labels())
        assert WeightedPairGraph.dict_views == before
        assert is_partition(prediction.predicted.clusters,
                            block.page_ids())
        # The chosen layer reaches clustering as a vector graph too.
        assert prediction.combination.graph.vector() is not None

        # A mapping read of a vector graph is a counted view.
        assert dict(prediction.combination.probabilities.weights)
        assert WeightedPairGraph.dict_views == before + 1
