"""Plugin registry tests: registration, validation and end-to-end use."""

import pytest

from repro.core.config import ResolverConfig
from repro.core.registry import (
    CLUSTERERS,
    COMBINERS,
    CRITERIA,
    SAMPLING_MODES,
    SIMILARITIES,
    Registry,
    register_clusterer,
    register_combiner,
)
from repro.core.resolver import EntityResolver


class TestRegistryBasics:
    def test_builtins_registered(self):
        assert set(COMBINERS.names()) >= {"best_graph", "weighted_average",
                                          "majority"}
        assert set(CRITERIA.names()) >= {"threshold", "equal_width", "kmeans"}
        assert set(CLUSTERERS.names()) >= {"transitive", "star", "correlation"}
        assert set(SAMPLING_MODES.names()) >= {"pairs", "documents"}
        assert set(SIMILARITIES.names()) >= {f"F{i}" for i in range(1, 15)}

    def test_unknown_lists_known_values(self):
        with pytest.raises(ValueError, match="known combiners are"):
            COMBINERS.get("nope")

    def test_duplicate_rejected_without_replace(self):
        registry = Registry("widget")
        registry.add("w", object())
        with pytest.raises(ValueError, match="already registered"):
            registry.add("w", object())
        replacement = object()
        assert registry.add("w", replacement, replace=True) is replacement

    def test_decorator_infers_name_attribute(self):
        registry = Registry("widget")

        @registry.register()
        class Widget:
            name = "fancy"

        assert registry._entries["fancy"] is Widget


class TestConfigValidation:
    def test_unknown_combiner(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            ResolverConfig(combiner="nope")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="unknown decision criterion"):
            ResolverConfig(criteria=("threshold", "nope"))

    def test_unknown_sampling_mode(self):
        with pytest.raises(ValueError, match="unknown sampling mode"):
            ResolverConfig(sampling_mode="nope")

    def test_unknown_clusterer_lists_known(self):
        with pytest.raises(ValueError, match="known clusterers are"):
            ResolverConfig(clusterer="spectral")

    def test_unknown_similarity_function(self):
        with pytest.raises(ValueError, match="unknown similarity function"):
            ResolverConfig(function_names=("F1", "F99"))


class TestOverrides:
    def test_sampling_mode_override_takes_effect(self, small_block):
        """replace=True overrides are honored by the dispatch path."""
        from repro.ml.sampling import sample_training_pairs

        original = SAMPLING_MODES.get("pairs")
        sentinel = [(("a", "b"), True)]
        try:
            SAMPLING_MODES.add("pairs", lambda block, fraction, rng: sentinel,
                               replace=True)
            assert sample_training_pairs(small_block, mode="pairs") == sentinel
        finally:
            SAMPLING_MODES.add("pairs", original, replace=True)
        assert sample_training_pairs(small_block, mode="pairs") != sentinel

    def test_similarity_override_takes_effect(self):
        from repro.similarity.base import SimilarityFunction
        from repro.similarity.functions import function_by_name

        original = SIMILARITIES.get("F8")
        stub = SimilarityFunction("F8", "stub", "constant",
                                  lambda left, right: 0.5)
        try:
            SIMILARITIES.add("F8", stub, replace=True)
            assert function_by_name("F8") is stub
        finally:
            SIMILARITIES.add("F8", original, replace=True)
        assert function_by_name("F8") is original


class TestEndToEndPlugins:
    def test_registered_combiner_usable_via_config(self, small_block,
                                                   block_graphs):
        """A combiner registered from *outside* repro.core resolves fully."""
        from repro.core.combination import BestGraphSelector

        name = "test_first_layer"
        if name not in COMBINERS:
            @register_combiner(name)
            class FirstLayerCombiner(BestGraphSelector):
                """Always keep the first layer (degenerate but observable)."""

                name = "test_first_layer"

                def combine(self, layers, training):
                    return self._select(layers[0])

                def apply(self, layers, params):
                    return self._select(layers[0])

        config = ResolverConfig(combiner=name, function_names=("F8", "F2"),
                                criteria=("threshold",))
        model = EntityResolver(config).fit(small_block, training_seed=0,
                                           graphs=block_graphs)
        prediction = model.predict(small_block, graphs=block_graphs)
        assert prediction.chosen_layer == "F8/threshold"

    def test_documented_averaging_combiner_resolves(self, small_block,
                                                    block_graphs):
        """The README's custom-combiner pattern (the runnable version is
        ``examples/fit_save_serve.py``): average the top layers' link
        probabilities and cut them at 0.5."""
        from repro.core.combination import (
            Combiner,
            average_probabilities,
            thresholded_result,
        )

        name = "test_top2_average"
        if name not in COMBINERS:
            @register_combiner(name)
            class Top2Average(Combiner):
                name = "test_top2_average"

                def combine(self, layers, training):
                    return self.apply(layers, {})

                def apply(self, layers, params):
                    top = sorted(layers,
                                 key=lambda layer: -layer.graph_accuracy)[:2]
                    return thresholded_result(
                        average_probabilities(top, [1.0] * len(top)), 0.5)

        config = ResolverConfig(combiner=name, function_names=("F8", "F2"),
                                criteria=("threshold", "kmeans"))
        model = EntityResolver(config).fit(small_block, training_seed=0,
                                           graphs=block_graphs)
        prediction = model.predict(small_block, graphs=block_graphs)
        predicted = sorted(sorted(cluster) for cluster in prediction.predicted)
        assert sorted(page for cluster in predicted for page in cluster) == \
            sorted(small_block.page_ids())

    def test_registered_clusterer_usable_via_config(self, small_block,
                                                    block_graphs):
        name = "test_singletons"
        if name not in CLUSTERERS:
            @register_clusterer(name)
            def singleton_clusterer(combination, seed=0):
                return [{node} for node in combination.graph.nodes]

        config = ResolverConfig(clusterer=name, function_names=("F8",),
                                criteria=("threshold",))
        model = EntityResolver(config).fit(small_block, training_seed=0,
                                           graphs=block_graphs)
        prediction = model.predict(small_block, graphs=block_graphs)
        assert len(prediction.predicted) == len(small_block)

    def test_registered_backend_survives_save_load(self, small_block,
                                                   block_graphs, tmp_path):
        """A model referencing a registered backend loads by name."""
        self.test_registered_clusterer_usable_via_config(small_block,
                                                         block_graphs)
        config = ResolverConfig(clusterer="test_singletons",
                                function_names=("F8",),
                                criteria=("threshold",))
        model = EntityResolver(config).fit(small_block, training_seed=0,
                                           graphs=block_graphs)
        path = tmp_path / "model.json"
        model.save(path)
        from repro.core.model import ResolverModel
        loaded = ResolverModel.load(path)
        prediction = loaded.predict(small_block, graphs=block_graphs)
        assert len(prediction.predicted) == len(small_block)
