"""Fit → ResolverModel → predict API tests.

Covers the tentpole acceptance criteria: predict on unlabeled copies
matches the legacy labeled workflow, save/load round-trips bit-identical
predictions, and registry-registered backends work end to end.
"""

import pickle

import pytest

import repro.core.model as model_module
from repro.core.config import ResolverConfig
from repro.core.model import FittedBlock, FittedLayer, ResolverModel
from repro.core.resolver import EntityResolver
from repro.corpus.documents import (
    DocumentCollection,
    NameCollection,
    WebPage,
)
from repro.experiments.runner import ExperimentContext
from repro.graph.validation import is_partition
from repro.metrics.report import mean_report
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.executor import executor_for_workers


def strip_labels(block: NameCollection) -> NameCollection:
    """Copy of a block with every ground-truth label removed."""
    stripped = block.without_labels()
    assert all(page.person_id is None for page in stripped.pages)
    return stripped


@pytest.fixture(scope="module", params=["best_graph", "weighted_average",
                                        "majority"])
def fitted(request, small_block, block_graphs):
    """(config, model, prediction-on-unlabeled-copy) per combiner."""
    config = ResolverConfig(combiner=request.param)
    model = EntityResolver(config).fit(small_block, training_seed=0,
                                       graphs=block_graphs)
    prediction = model.predict(strip_labels(small_block),
                               graphs=block_graphs)
    return config, model, prediction


class TestFit:
    def test_fit_block_returns_model(self, small_block, block_graphs):
        model = EntityResolver(ResolverConfig()).fit(
            small_block, training_seed=0, graphs=block_graphs)
        assert isinstance(model, ResolverModel)
        assert model.block_names() == [small_block.query_name]
        assert small_block.query_name in model

    def test_fit_collection(self, small_dataset):
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        model = resolver.fit(small_dataset, training_seed=0)
        assert set(model.block_names()) == set(small_dataset.query_names())

    def test_fitted_layer_count_and_order(self, small_block, block_graphs):
        config = ResolverConfig(criteria=("threshold", "kmeans"))
        model = EntityResolver(config).fit(small_block, training_seed=0,
                                           graphs=block_graphs)
        layers = model.blocks[small_block.query_name].layers
        assert len(layers) == 10 * 2
        # function-outer, criterion-inner order (combiners rely on it)
        assert layers[0].label == "F1/threshold"
        assert layers[1].label == "F1/kmeans"

    def test_fit_needs_inputs(self, small_block):
        with pytest.raises(ValueError, match="pipeline"):
            EntityResolver(ResolverConfig()).fit(small_block)


class TestPredictUnlabeled:
    def test_predict_never_reads_labels(self, fitted, small_block):
        _, _, prediction = fitted
        assert is_partition([set(c) for c in prediction.predicted],
                            small_block.page_ids())

    def test_matches_labeled_evaluate(self, fitted, small_block,
                                      block_graphs, fit_evaluate):
        config, _, prediction = fitted
        labeled = fit_evaluate(EntityResolver(config), small_block,
                               training_seed=0, graphs=block_graphs)
        assert prediction.predicted == labeled.predicted
        assert prediction.chosen_layer == labeled.chosen_layer

    def test_unknown_block_lists_fitted_names(self, fitted):
        _, model, _ = fitted
        other = NameCollection(query_name="Nobody Here")
        with pytest.raises(KeyError, match="fitted blocks"):
            model.predict(other, graphs={})

    def test_model_block_reuses_other_fit(self, fitted, small_block,
                                          block_graphs):
        """A model serves names it never saw via model_block=."""
        _, model, prediction = fitted
        renamed = NameCollection(query_name="New Name",
                                 pages=list(strip_labels(small_block).pages))
        served = model.predict_block(renamed, graphs=block_graphs,
                                     model_block=small_block.query_name)
        assert served.predicted == prediction.predicted

    def test_collection_predict_and_by_name(self, small_dataset):
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        model = resolver.fit(small_dataset, training_seed=0)
        prediction = model.predict(small_dataset)
        assert len(prediction.blocks) == len(small_dataset)
        block = prediction.by_name("William Cohen")
        assert block.query_name == "William Cohen"
        with pytest.raises(KeyError):
            prediction.by_name("Nobody")

    def test_collection_model_block_fallback(self, small_dataset):
        """A collection containing unfitted names is servable via fallback."""
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        model = resolver.fit(small_dataset, training_seed=0)
        renamed = small_dataset.without_labels()
        renamed.collections[0] = NameCollection(
            query_name="Brand New Name",
            pages=[WebPage(p.doc_id, "Brand New Name", p.url, p.title,
                           p.text, None)
                   for p in renamed.collections[0].pages])
        prediction = model.predict(renamed, model_block="William Cohen")
        assert prediction.by_name("Brand New Name").n_entities() >= 1

    def test_weighted_average_diagnostics_survive_apply(
            self, small_block, block_graphs, fit_evaluate):
        """An evaluated block's combination diagnostics match the v1.0
        contract."""
        config = ResolverConfig(combiner="weighted_average")
        result = fit_evaluate(EntityResolver(config), small_block,
                              training_seed=0, graphs=block_graphs)
        assert "training_accuracy" in result.combination.diagnostics

    def test_collection_predict_releases_fit_caches(self, small_dataset,
                                                    monkeypatch):
        """The fit → predict hand-off exists only over graphs the caller
        supplied, and the pass that presents them again consumes it."""
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        inline = executor_for_workers(1)  # whatever REPRO_WORKERS says
        model = resolver.fit(small_dataset, training_seed=0, executor=inline)
        assert all(fitted._layer_cache is None
                   for fitted in model.blocks.values())

        graphs = ExperimentContext.prepare(small_dataset).graphs_by_name
        model = resolver.fit(small_dataset, training_seed=0,
                             graphs_by_name=graphs, executor=inline)
        assert all(fitted._layer_cache[0] is graphs[name]
                   for name, fitted in model.blocks.items())
        rebuilds = []
        build = model_module.build_decision_layers
        monkeypatch.setattr(
            model_module, "build_decision_layers",
            lambda *args: rebuilds.append(args) or build(*args))
        model.evaluate_collection(small_dataset, graphs_by_name=graphs,
                                  executor=inline)
        assert rebuilds == []
        assert all(fitted._layer_cache is None
                   for fitted in model.blocks.values())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hand_off_changes_no_result(self, small_dataset, workers):
        """Graphs supplied (hand-off) or computed per block (none), on
        either schedule: the same evaluation."""
        resolver = EntityResolver(ResolverConfig(function_names=("F8",)))
        reference = resolver.fit(small_dataset, training_seed=0).evaluate(
            small_dataset)
        graphs = ExperimentContext.prepare(small_dataset).graphs_by_name
        with executor_for_workers(workers, oversubscribe=True) as executor:
            model = resolver.fit(small_dataset, training_seed=0,
                                 graphs_by_name=graphs, executor=executor)
            handed = model.evaluate_collection(
                small_dataset, graphs_by_name=graphs, executor=executor)
        for left, right in zip(handed.blocks, reference.blocks):
            assert left.predicted == right.predicted
            assert left.report == right.report
            assert (left.combination.probabilities.weights
                    == right.combination.probabilities.weights)


class TestEvaluate:
    def test_evaluate_matches_legacy_collection(self, small_dataset,
                                                fit_evaluate):
        """The collection passes against the per-block loop they
        replaced: whole-battery graphs, computed once, handed to both
        the block's fit and its evaluation."""
        resolver = EntityResolver(ResolverConfig(function_names=("F8", "F2")))
        pipeline = resolver.pipeline_for(small_dataset)
        legacy = [
            fit_evaluate(resolver, block, training_seed=0,
                         graphs=batched_similarity_graphs(
                             block, pipeline.extract_block(block),
                             resolver.functions))
            for block in small_dataset]
        scored = resolver.fit(small_dataset, training_seed=0).evaluate(
            small_dataset)
        assert scored.mean_report().fp == mean_report(
            [block.report for block in legacy]).fp
        for block in legacy:
            assert scored.by_name(block.query_name).predicted == block.predicted

    def test_evaluate_requires_labels(self, fitted, small_block,
                                      block_graphs):
        _, model, _ = fitted
        with pytest.raises(ValueError, match="ground-truth"):
            model.evaluate(strip_labels(small_block), graphs=block_graphs)


class TestSaveLoad:
    def test_round_trip_bit_identical(self, fitted, small_block,
                                      block_graphs, tmp_path):
        _, model, prediction = fitted
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ResolverModel.load(path)
        again = loaded.predict(strip_labels(small_block), graphs=block_graphs)
        assert again.predicted == prediction.predicted
        assert again.layer_accuracies == prediction.layer_accuracies

    def test_round_trip_preserves_config(self, fitted, tmp_path):
        config, model, _ = fitted
        path = tmp_path / "model.json"
        model.save(path)
        assert ResolverModel.load(path).config == config

    def test_round_trip_preserves_fitted_state(self, fitted, tmp_path):
        _, model, _ = fitted
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ResolverModel.load(path)
        for name, fitted_block in model.blocks.items():
            reloaded = loaded.blocks[name]
            assert reloaded.n_training == fitted_block.n_training
            assert reloaded.combiner_params == fitted_block.combiner_params
            for left, right in zip(fitted_block.layers, reloaded.layers):
                assert left.label == right.label
                assert left.graph_accuracy == right.graph_accuracy
                assert left.fitted.to_dict() == right.fitted.to_dict()

    def test_rejects_unknown_format_version(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 999, "config": {}, "blocks": {}}')
        with pytest.raises(ValueError, match="format version"):
            ResolverModel.load(path)


class TestFittedBlockSerialization:
    def test_dict_round_trip(self, small_block, block_graphs):
        model = EntityResolver(ResolverConfig()).fit(
            small_block, training_seed=3, graphs=block_graphs)
        fitted_block = model.blocks[small_block.query_name]
        rebuilt = FittedBlock.from_dict(fitted_block.to_dict())
        assert rebuilt.query_name == fitted_block.query_name
        assert rebuilt.layer_accuracies() == fitted_block.layer_accuracies()
        assert isinstance(rebuilt.layers[0], FittedLayer)

    def test_pickle_leaves_the_hand_off_behind(self, small_block,
                                               block_graphs):
        """Graphs can never ride a task payload or result: a pickled
        block carries no hand-off, seeded or not."""
        seeded = EntityResolver(ResolverConfig()).fit(
            small_block, training_seed=3,
            graphs=block_graphs).blocks[small_block.query_name]
        assert seeded._layer_cache[0] is block_graphs
        bare = FittedBlock.from_dict(seeded.to_dict())
        assert bare._layer_cache is None

        wire = pickle.dumps(seeded)
        assert len(wire) <= len(pickle.dumps(bare))
        shipped = pickle.loads(wire)
        assert shipped._layer_cache is None
        assert shipped.to_dict() == seeded.to_dict()
        assert seeded._layer_cache[0] is block_graphs  # sender keeps its own


class TestDocumentCollectionIndex:
    def test_by_name_tracks_appends(self):
        pages = [WebPage("a/0", "A B", "http://x", "t", "w", "p0")]
        collection = DocumentCollection(name="d", collections=[
            NameCollection(query_name="A B", pages=pages)])
        assert collection.by_name("A B").query_name == "A B"
        collection.collections.append(NameCollection(query_name="C D"))
        assert collection.by_name("C D").query_name == "C D"
        with pytest.raises(KeyError):
            collection.by_name("Nobody")

    def test_by_name_survives_same_length_replacement(self):
        collection = DocumentCollection(name="d", collections=[
            NameCollection(query_name="A B"),
            NameCollection(query_name="C D")])
        assert collection.by_name("A B").query_name == "A B"  # builds index
        collection.collections[0] = NameCollection(query_name="E F")
        assert collection.by_name("E F").query_name == "E F"
        with pytest.raises(KeyError):
            collection.by_name("A B")

    def test_by_name_duplicates_first_match(self):
        first = NameCollection(query_name="A B")
        collection = DocumentCollection(name="d", collections=[
            first, NameCollection(query_name="A B")])
        assert collection.by_name("A B") is first
