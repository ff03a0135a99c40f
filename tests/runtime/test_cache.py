"""SimilarityCache hit/miss accounting and lifecycle."""

from __future__ import annotations

import pytest

from repro.core.config import ResolverConfig
from repro.core.resolver import EntityResolver
from repro.graph.entity_graph import WeightedPairGraph, pair_key
from repro.runtime.cache import SimilarityCache, block_fingerprint


class SpyPipeline:
    """Logs which blocks were extracted through it.

    Module-level, and logging to a file rather than to itself, so the
    record survives a fan-out (``REPRO_WORKERS=2``): the workers extract
    through pickled copies.
    """

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def extract_block(self, target, **kwargs):
        with open(self.log, "a") as handle:
            handle.write(target.query_name + "\n")
        return self.inner.extract_block(target, **kwargs)

    def extracted(self):
        return sorted(self.log.read_text().splitlines())


class TestAccounting:
    def test_fresh_cache_is_empty_with_zero_counters(self):
        cache = SimilarityCache()
        snapshot = cache.stats()
        assert len(cache) == 0
        assert (snapshot.pair_hits, snapshot.pair_misses) == (0, 0)
        assert (snapshot.feature_hits, snapshot.feature_misses) == (0, 0)
        assert snapshot.hit_rate == 0.0

    def test_put_counts_misses_get_counts_hits_pair_granular(self):
        cache = SimilarityCache()
        fingerprint = ("Alice", ("a", "b", "c"))
        weights = {pair_key("a", "b"): 0.5, pair_key("a", "c"): 0.25,
                   pair_key("b", "c"): 1.0}
        assert cache.get_graph(fingerprint, "F8") is None
        cache.put_graph(fingerprint, "F8",
                        WeightedPairGraph.from_scores(["a", "b", "c"], weights))
        assert cache.pair_misses == 3
        assert cache.pair_hits == 0

        served = cache.get_graph(fingerprint, "F8")
        assert served.weights == weights
        assert cache.pair_hits == 3
        assert cache.stats().hit_rate == 0.5

    def test_a_served_graph_is_the_stored_immutable_graph(self):
        cache = SimilarityCache()
        fingerprint = ("Alice", ("a", "b", "c"))
        stored = {pair_key("a", "b"): 0.5, pair_key("a", "c"): 0.25,
                  pair_key("b", "c"): 1.0}
        graph = WeightedPairGraph(["a", "b", "c"], values=[0.5, 0.25, 1.0])
        cache.put_graph(fingerprint, "F8", graph)
        served = cache.get_graph(fingerprint, "F8")
        assert served is graph
        assert not hasattr(served, "set_weight")
        with pytest.raises(TypeError):
            served.weights[pair_key("a", "b")] = 999.0
        assert dict(cache.get_graph(fingerprint, "F8").pairs()) == stored

    def test_unknown_function_is_a_miss_even_for_known_block(self):
        cache = SimilarityCache()
        fingerprint = ("Alice", ("a", "b"))
        cache.put_graph(fingerprint, "F8", WeightedPairGraph.from_scores(
            ["a", "b"], {pair_key("a", "b"): 0.5}))
        assert cache.get_graph(fingerprint, "F9") is None

    def test_features_memo_counts_hits_and_computes_once(self, small_block,
                                                         pipeline):
        cache = SimilarityCache()
        calls = []

        def compute(block):
            calls.append(block.query_name)
            return pipeline.extract_block(block)

        first = cache.features_for(small_block, compute)
        second = cache.features_for(small_block, compute)
        assert first is second
        assert calls == [small_block.query_name]
        snapshot = cache.stats()
        assert (snapshot.feature_misses, snapshot.feature_hits) == (1, 1)


class TestLifecycle:
    def test_fingerprint_covers_name_page_ids_and_mask(self, small_block):
        fingerprint = block_fingerprint(small_block)
        assert fingerprint == (small_block.query_name,
                               tuple(small_block.page_ids()), None)
        mask = frozenset({("a", "b")})
        masked = block_fingerprint(small_block, mask)
        assert masked == (small_block.query_name,
                          tuple(small_block.page_ids()), mask)
        assert masked != fingerprint

    def test_clear_evicts_everything_but_keeps_counters(self):
        cache = SimilarityCache()
        cache.put_graph(("Alice", ("a", "b")), "F8", WeightedPairGraph.from_scores(
            ["a", "b"], {pair_key("a", "b"): 0.5}))
        cache.get_graph(("Alice", ("a", "b")), "F8")
        cache.clear()
        assert len(cache) == 0
        assert (cache.pair_hits, cache.pair_misses) == (1, 1)


class TestModelIntegration:
    @pytest.fixture()
    def fitted_model(self, small_block, pipeline, block_graphs):
        resolver = EntityResolver(ResolverConfig())
        return resolver.fit(small_block, graphs=dict(block_graphs),
                            pipeline=pipeline)

    def test_second_predict_is_served_from_cache(self, fitted_model,
                                                 small_block):
        fitted_model.release_fit_caches()
        first = fitted_model.predict_block(small_block)
        misses_after_first = fitted_model._similarity_cache.pair_misses
        assert misses_after_first > 0

        second = fitted_model.predict_block(small_block)
        cache = fitted_model._similarity_cache
        assert cache.pair_misses == misses_after_first  # nothing recomputed
        assert cache.pair_hits == misses_after_first
        assert first.predicted == second.predicted

    def test_explicit_features_bypass_the_warm_cache(self, fitted_model,
                                                     small_block):
        """Caller-supplied features must take effect even after the block
        was served (the cache is keyed by block content only)."""
        from repro.extraction.features import PageFeatures

        fitted_model.release_fit_caches()
        fitted_model.predict_block(small_block)  # warms the cache
        blank = {doc_id: PageFeatures(doc_id=doc_id)
                 for doc_id in small_block.page_ids()}
        prediction = fitted_model.predict_block(small_block, features=blank)
        # Blank features carry no evidence: every similarity is 0, so no
        # pair links and every page is its own entity — cached weights
        # from the real features would have produced far fewer clusters.
        assert prediction.n_entities() == len(small_block)

    def test_explicit_pipeline_bypasses_the_warm_cache(self, fitted_model,
                                                       small_block, pipeline):
        fitted_model.release_fit_caches()
        fitted_model.predict_block(small_block)
        misses = fitted_model._similarity_cache.pair_misses
        hits = fitted_model._similarity_cache.pair_hits
        fitted_model.predict_block(small_block, pipeline=pipeline)
        cache = fitted_model._similarity_cache
        # The explicit-pipeline call neither read nor wrote the cache.
        assert (cache.pair_misses, cache.pair_hits) == (misses, hits)

    def test_collection_with_explicit_pipeline_skips_warm_model_cache(
            self, small_dataset, pipeline, tmp_path):
        """A pipeline= override on the collection paths must not be
        served features another pipeline put into the model's cache."""
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(small_dataset, training_seed=0)
        block = small_dataset.collections[0]
        model.predict_block(block, pipeline=resolver.pipeline_for(
            small_dataset))  # explicit call leaves no cache entries

        # Warm the model cache through the default path, then request a
        # collection pass with an explicit (spy) pipeline: every block,
        # including the warm one, must be extracted through the spy.
        model.predict_block(block)
        spy = SpyPipeline(resolver.pipeline_for(small_dataset),
                          tmp_path / "extracted.log")
        model.predict_collection(small_dataset, pipeline=spy)
        assert spy.extracted() == sorted(small_dataset.query_names())

    def test_cache_stats_is_the_public_snapshot(self, fitted_model,
                                                small_block):
        fitted_model.release_fit_caches()
        fitted_model.predict_block(small_block)
        snapshot = fitted_model.cache_stats()
        assert snapshot.pair_misses > 0
        assert snapshot.n_blocks == 1

    def test_release_fit_caches_drops_similarity_cache_entries(
            self, fitted_model, small_block):
        fitted_model.predict_block(small_block)
        assert len(fitted_model._similarity_cache) > 0

        fitted_model.release_fit_caches()
        assert len(fitted_model._similarity_cache) == 0
        for fitted in fitted_model.blocks.values():
            assert fitted._layer_cache is None

    def test_collection_paths_release_quadratic_state(self, small_dataset):
        resolver = EntityResolver(ResolverConfig())
        model = resolver.fit(small_dataset, training_seed=0)
        model.evaluate_collection(small_dataset)
        assert len(model._similarity_cache) == 0
        for fitted in model.blocks.values():
            assert fitted._layer_cache is None
