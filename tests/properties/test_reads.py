"""Declared read sets: parity, honesty, and the guard.

A label-free pass extracts only the ``PageFeatures`` fields the functions
it scores declare (``SimilarityFunction.reads``).  That is sound iff

* **parity** — scoring narrowed features gives the bytes whole features
  give, on every backend, dense and masked, however the block was grown;
* **honesty** — no scorer, preparer, kernel or resident record touches
  a field its function does not declare (an under-declaring function
  fails here, not in production as silent zeros);
* **the guard** — features narrowed past a function raise when scored,
  and the feature cache never serves them to a wider request.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import ResolverConfig
from repro.core.incremental import IncrementalResolver
from repro.core.resolver import EntityResolver
from repro.corpus.documents import NameCollection
from repro.extraction.features import (
    CONCEPT_FIELDS,
    NER_FIELDS,
    TFIDF_FIELDS,
    PageFeatures,
)
from repro.graph.entity_graph import pair_key
from repro.runtime.batch import batched_similarity_graphs
from repro.runtime.cache import SimilarityCache
from repro.similarity.backends import resolve_backend
from repro.similarity.base import read_fields, require_covered
from repro.similarity.extended import (
    SUBSET_I14,
    extended_function_by_name,
    full_battery,
)
from repro.similarity.functions import SUBSET_I4, SUBSET_I10

EXACT_BACKENDS = ("python", "numpy")

#: Every built-in alone — which covers what the four benchmark models
#: consult (``best_graph`` keeps one function per name: F8 / F9 / F10
#: mostly, F1, F2, F5 or F6 for the rest) — plus unions across extractor
#: groups and the batteries a ``weighted_average`` model consults.
CONSULTED = [(name,) for name in SUBSET_I14] + [
    ("F5", "F8"), ("F1", "F2"), ("F3", "F6", "F11"), SUBSET_I4, SUBSET_I10]


def functions_of(names):
    return [extended_function_by_name(name) for name in names]


def every_third_pair(ids):
    return frozenset(pair_key(ids[i], ids[j])
                     for i in range(len(ids)) for j in range(i + 1, len(ids))
                     if (i + j) % 3 == 0)


def grown(pipeline, block, reads):
    """The block's features, extracted page by page through one context."""
    context = pipeline.block_context(block.query_name, reads)
    features = {}
    for page in block.pages:
        features.update(pipeline.extract_block(
            NameCollection(query_name=block.query_name, pages=[page]),
            context))
    return features


def weights_of(block, features, functions, backend, mask):
    graphs = batched_similarity_graphs(block, features, functions,
                                       backend=backend, mask=mask)
    return {name: list(graph.weights.items())
            for name, graph in graphs.items()}


# -- (a) parity ----------------------------------------------------------------

class TestNarrowedScoresEqualWhole:
    @pytest.fixture(scope="class")
    def block(self, small_block):
        return NameCollection(query_name=small_block.query_name,
                              pages=list(small_block.pages)[:14])

    @pytest.fixture(scope="class")
    def whole(self, pipeline, block):
        return pipeline.extract_block(block), grown(pipeline, block, None)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @pytest.mark.parametrize("names", CONSULTED, ids="+".join)
    def test_bit_identical_weights(self, names, backend, pipeline, block,
                                   whole, assert_narrowed):
        functions = functions_of(names)
        reads = read_fields(functions)
        candidates = (pipeline.extract_block(block, reads=reads),
                      grown(pipeline, block, reads))
        for narrowed, reference in zip(candidates, whole):
            for doc_id, features in narrowed.items():
                assert features.covers(reads)
                assert_narrowed(features, reference[doc_id])
            for mask in (None, every_third_pair(block.page_ids())):
                assert (weights_of(block, narrowed, functions, backend, mask)
                        == weights_of(block, reference, functions, backend,
                                      mask))

    def test_a_full_battery_reads_everything(self, pipeline, block):
        """Fit scores F1–F10: every extractor group runs, and the
        features are whole (``reads is None``), as before narrowing."""
        reads = read_fields(functions_of(SUBSET_I10))
        assert reads == ({"url"} | NER_FIELDS | CONCEPT_FIELDS
                         | TFIDF_FIELDS) - {"locations"}
        features = pipeline.extract_block(block, reads=reads)
        assert features == pipeline.extract_block(block)
        assert all(page.reads is None for page in features.values())

    def test_an_undeclared_function_reads_everything(self):
        custom = replace(extended_function_by_name("F5"), name="custom",
                         reads=None)
        assert read_fields([extended_function_by_name("F8"), custom]) is None

    def test_a_context_keeps_its_read_set(self, pipeline, block):
        """``reads`` opens a fresh context; a supplied one extracts for
        the set it was created with — it has counted no terms, so it
        could not weigh a page — and the bundles say so."""
        context = pipeline.block_context(block.query_name,
                                         frozenset({"organizations"}))
        assert context.reads == {"url"} | NER_FIELDS
        features = pipeline.extract_block(block, context,
                                          reads=frozenset({"tfidf"}))
        assert all(page.reads == context.reads and not page.tfidf
                   for page in features.values())
        with pytest.raises(ValueError, match="extracted for"):
            batched_similarity_graphs(block, features,
                                      functions_of(("F8",)))


# -- (b) honesty ---------------------------------------------------------------

def touched_by(function, features: dict[str, PageFeatures],
               recording) -> set[str]:
    """Every field any scoring surface of ``function`` reads: scalar,
    prepared, block sweeps, and the request path's rectangle of two new
    pages over a resident record."""
    touched: set[str] = set()
    pages = {doc_id: recording(page, touched)
             for doc_id, page in features.items()}
    ids = list(pages)
    first, second, *others = pages.values()
    function.scorer(first, second)
    function.prepared(pages)(first, second)
    for backend in EXACT_BACKENDS:
        scorer = resolve_backend(backend)
        scorer.block_scores(ids, pages, [function])
        scorer.block_scores(ids, pages, [function],
                            mask=every_third_pair(ids))
        scorer.pair_scores(function, first, others)
        scorer.rectangle([function], others, [first, second],
                         scorer.resident_record([function], others))
    return touched - {"doc_id"}


class TestDeclaredReadsAreHonest:
    @pytest.mark.parametrize("function", full_battery(),
                             ids=lambda function: function.name)
    def test_builtin_touches_only_what_it_declares(self, function,
                                                   block_features,
                                                   recording):
        features = dict(list(block_features.items())[:9])
        touched = touched_by(function, features, recording)
        assert touched and touched <= function.reads, (
            f"{function.name} declares {sorted(function.reads)} but "
            f"reads {sorted(touched)}")

    def test_an_under_declaring_function_is_caught(self, block_features,
                                                   recording):
        features = dict(list(block_features.items())[:9])
        f13 = extended_function_by_name("F13")
        liar = replace(f13, reads=frozenset({"organizations"}))
        assert not touched_by(liar, features, recording) <= liar.reads

    def test_every_builtin_declares(self):
        for function in full_battery():
            assert function.reads, function.name
            assert function.reads <= ({"url"} | NER_FIELDS | CONCEPT_FIELDS
                                      | TFIDF_FIELDS)


# -- (c) the guard -------------------------------------------------------------

class TestNarrowedFeaturesFailLoudly:
    @pytest.fixture(scope="class")
    def tfidf_only(self, pipeline, small_block):
        return pipeline.extract_block(small_block,
                                      reads=frozenset({"tfidf"}))

    def test_scoring_past_the_read_set_raises(self, small_block, tfidf_only):
        f5, f8 = functions_of(("F5", "F8"))
        for backend in EXACT_BACKENDS:
            batched_similarity_graphs(small_block, tfidf_only, [f8],
                                      backend=backend)
            for battery in ([f5], [f8, f5], [replace(f8, reads=None)]):
                with pytest.raises(ValueError, match="extracted for"):
                    batched_similarity_graphs(small_block, tfidf_only,
                                              battery, backend=backend)
        require_covered(tfidf_only.values(), [f8])
        with pytest.raises(ValueError, match="F5"):
            require_covered(tfidf_only.values(), [f5])

    def test_a_cached_graph_needs_no_features(self, small_block, tfidf_only,
                                              block_features):
        """The guard is on what gets *scored*: weights already in the
        cache are served whatever the features hold."""
        f5 = extended_function_by_name("F5")
        cache = SimilarityCache()
        scored = batched_similarity_graphs(small_block, block_features, [f5],
                                           cache=cache)
        served = batched_similarity_graphs(small_block, tfidf_only, [f5],
                                           cache=cache)
        assert served["F5"].weights == scored["F5"].weights

    def test_the_request_path_raises_too(self, fitted_f5, tfidf_only,
                                         block_features, small_block):
        config, fitted = fitted_f5
        ids = small_block.page_ids()
        with pytest.raises(ValueError, match="extracted for"):
            IncrementalResolver.from_fitted(
                config, fitted, features={ids[0]: tfidf_only[ids[0]]},
                clusters=[{ids[0]}])
        resolver = IncrementalResolver.from_fitted(config, fitted)
        resolver.add_page(block_features[ids[0]])
        for refused in (
                lambda: resolver.add_page(tfidf_only[ids[1]]),
                lambda: resolver.score_burst(
                    [block_features[ids[1]], tfidf_only[ids[2]]]),
                lambda: resolver.link_probability(tfidf_only[ids[1]],
                                                  block_features[ids[0]])):
            with pytest.raises(ValueError, match="extracted for"):
                refused()
        assert ids[1] not in resolver

    @pytest.fixture(scope="class")
    def fitted_f5(self, small_block, block_graphs, consulting):
        model = consulting(EntityResolver(ResolverConfig()).fit(
            small_block, training_seed=0, graphs=block_graphs), "F5")
        return model.config, model.blocks[small_block.query_name]

    def test_cache_never_serves_a_narrower_entry(self, pipeline,
                                                 small_block):
        cache = SimilarityCache()
        asked: list = []

        def extract(reads):
            def compute(block):
                asked.append(reads)
                return pipeline.extract_block(block, reads=reads)
            return compute, reads

        tfidf, orgs = frozenset({"tfidf"}), frozenset({"organizations"})
        narrow = cache.features_for(small_block, *extract(tfidf))
        assert cache.features_for(small_block, *extract(tfidf)) is narrow
        other = cache.features_for(small_block, *extract(orgs))
        assert other is not narrow
        # one group's entry serves the group's other fields
        assert cache.features_for(
            small_block, *extract(frozenset({"locations"}))) is other
        whole = cache.features_for(small_block, *extract(None))
        assert whole is not narrow and whole is not other
        assert all(page.reads is None for page in whole.values())
        assert asked == [tfidf, orgs, None]
        assert (cache.feature_misses, cache.feature_hits) == (3, 2)
        # and a whole entry serves everyone after it
        fresh = SimilarityCache()
        whole = fresh.features_for(small_block, *extract(None))
        assert fresh.features_for(small_block, *extract(tfidf)) is whole
        assert len(fresh) == 1

    def test_model_block_fallback_widens_the_model_cache(self, small_dataset,
                                                         pipeline):
        """The same block served through its own fitted state (F2: reads
        the URL) and then through another name's (a TF-IDF measure) must
        not be scored over the first call's narrowed features."""
        model = EntityResolver(ResolverConfig()).fit(
            small_dataset, training_seed=0, pipeline=pipeline)
        reads = {name: read_fields(model.scoring_functions(fitted))
                 for name, fitted in model.blocks.items()}
        own, other = "Lynn Voss", "William Cohen"
        assert reads[own] == {"url"} and reads[other] == {"tfidf"}
        block = small_dataset.by_name(own)
        model.predict_block(block)
        through_other = model.predict_block(block, model_block=other)
        assert model.cache_stats().feature_misses == 2
        untouched = EntityResolver(ResolverConfig()).fit(
            small_dataset, training_seed=0, pipeline=pipeline)
        expected = untouched.predict_block(block, model_block=other)
        assert through_other.predicted == expected.predicted
        assert (list(through_other.combination.probabilities.weights.items())
                == list(expected.combination.probabilities.weights.items()))
