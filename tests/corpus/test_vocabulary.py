"""Vocabulary construction tests."""

import hashlib
import random

import pytest

import repro.corpus.vocabulary as vocabulary_module
from repro.core.model import resolve_extraction_pipeline
from repro.corpus.datasets import (
    scale_corpus,
    scale_vocabulary,
    weps2_like,
    www05_like,
)
from repro.corpus.documents import DocumentCollection
from repro.corpus.vocabulary import (
    DEFAULT_VOCABULARY_SIZES,
    Vocabulary,
    build_vocabulary,
    draw_categories,
)
from repro.extraction.pipeline import GAZETTEERS, ExtractionPipeline


class TestBuildVocabulary:
    def test_deterministic_for_same_seed(self):
        first = build_vocabulary(seed=3)
        second = build_vocabulary(seed=3)
        assert first.content_words == second.content_words
        assert first.concepts == second.concepts
        assert first.organizations == second.organizations
        assert first.domains == second.domains

    def test_different_seeds_differ(self):
        assert build_vocabulary(seed=1).content_words != build_vocabulary(seed=2).content_words

    def test_sizes_respected(self):
        vocab = build_vocabulary(seed=0, n_content_words=50, n_concepts=10,
                                 n_organizations=5, n_domains=4)
        assert len(vocab.content_words) == 50
        assert len(vocab.concepts) == 10
        assert len(vocab.organizations) == 5
        assert len(vocab.domains) == 4

    def test_all_categories_unique(self):
        vocab = build_vocabulary(seed=5)
        for category in (vocab.content_words, vocab.concepts,
                         vocab.organizations, vocab.first_names,
                         vocab.last_names, vocab.locations, vocab.domains):
            assert len(category) == len(set(category))

    def test_concepts_are_two_word_phrases(self):
        vocab = build_vocabulary(seed=5)
        assert all(len(concept.split()) == 2 for concept in vocab.concepts)

    def test_organizations_capitalized_with_suffix(self):
        vocab = build_vocabulary(seed=5)
        for org in vocab.organizations:
            head, suffix = org.split(" ", 1)
            assert head[0].isupper()
            assert suffix[0].isupper()

    def test_domains_have_tld(self):
        vocab = build_vocabulary(seed=5)
        assert all("." in domain for domain in vocab.domains)

    def test_names_capitalized(self):
        vocab = build_vocabulary(seed=5)
        assert all(name[0].isupper() for name in vocab.first_names)
        assert all(name[0].isupper() for name in vocab.last_names)

    def test_content_words_lowercase(self):
        vocab = build_vocabulary(seed=5)
        assert all(word == word.lower() for word in vocab.content_words)

    def test_enlarging_one_category_keeps_others(self):
        base = build_vocabulary(seed=9, n_concepts=20)
        bigger = build_vocabulary(seed=9, n_concepts=40)
        assert base.content_words == bigger.content_words
        assert base.organizations == bigger.organizations


class TestVocabularyMethods:
    def test_full_name_format(self):
        vocab = build_vocabulary(seed=2)
        rng = random.Random(0)
        name = vocab.full_name(rng)
        first, last = name.split(" ")
        assert first in vocab.first_names
        assert last in vocab.last_names

    def test_full_name_with_fixed_surname(self):
        vocab = build_vocabulary(seed=2)
        rng = random.Random(0)
        name = vocab.full_name(rng, last_name="Cohen")
        assert name.endswith(" Cohen")

    def test_gazetteers_cover_entities(self):
        vocab = build_vocabulary(seed=2)
        gazetteers = vocab.as_gazetteers()
        assert set(gazetteers["organization"]) == set(vocab.organizations)
        assert set(gazetteers["location"]) == set(vocab.locations)

    def test_gazetteers_are_copies(self):
        vocab = build_vocabulary(seed=2)
        gazetteers = vocab.as_gazetteers()
        gazetteers["organization"].append("Fake Org")
        assert "Fake Org" not in vocab.organizations

    def test_empty_vocabulary_constructible(self):
        vocab = Vocabulary()
        assert vocab.content_words == []
        assert vocab.seed == 0


#: The name pools ``scale_vocabulary(5000)`` grows to.
GROWN_NAME_POOLS = {"n_first_names": 142, "n_last_names": 142}

#: sha256 (first 16 hex digits) of each category's words, joined by
#: newlines, as the lexicon was first drawn; a changed digest means every
#: saved corpus would now rebuild a different lexicon.
LEXICON_DIGESTS = [
    (0, {}, {
        "content_words": "2a9d3a04b0846034",
        "general_words": "4fa19b84b8dc136b",
        "concepts": "162acc56622a8863",
        "organizations": "ae4cdbaccadaa699",
        "first_names": "d5b1eca8ec603166",
        "last_names": "e6e0dfd0e94afaa2",
        "locations": "ac15153b72152b5b",
        "domains": "11745dedf52fea10",
    }),
    (7, {}, {
        "content_words": "bc3c95541611e26c",
        "general_words": "96923501e1d50dd6",
        "concepts": "a9bc6fa2592dec5d",
        "organizations": "df2f1f04390f6e2a",
        "first_names": "bc0f5e372e157ab5",
        "last_names": "c6f83050c2e996ac",
        "locations": "709c117bc4c6eaa2",
        "domains": "627ca6a508aeea5e",
    }),
    (7, GROWN_NAME_POOLS, {
        "content_words": "bc3c95541611e26c",
        "general_words": "96923501e1d50dd6",
        "concepts": "a9bc6fa2592dec5d",
        "organizations": "df2f1f04390f6e2a",
        "first_names": "e0cce8eeef4cc2f3",
        "last_names": "0654428a2aaf63f6",
        "locations": "709c117bc4c6eaa2",
        "domains": "627ca6a508aeea5e",
    }),
]


def digest(words: list[str]) -> str:
    return hashlib.sha256("\n".join(words).encode()).hexdigest()[:16]


def gazetteer_state(pipeline: ExtractionPipeline) -> tuple:
    """Everything a pipeline's gazetteers determine."""
    ner = pipeline._ner
    return (ner._org_matcher._index, ner._loc_matcher._index,
            ner._first_names, ner._known_surnames, ner._starters,
            pipeline._concepts._matcher._index, pipeline._stopwords)


class TestLexiconPin:
    @pytest.mark.parametrize("seed,sizes,expected", LEXICON_DIGESTS)
    def test_every_category_draws_the_pinned_words(self, seed, sizes,
                                                   expected):
        vocabulary = build_vocabulary(seed, **sizes)
        assert {name: digest(getattr(vocabulary, name))
                for name in expected} == expected

    def test_scale_vocabulary_grows_the_pinned_pools(self):
        vocabulary = scale_vocabulary(5000)
        assert vocabulary == build_vocabulary(7, **GROWN_NAME_POOLS)

    @pytest.mark.parametrize("seed,sizes,expected", LEXICON_DIGESTS)
    def test_a_subset_draws_the_same_words(self, seed, sizes, expected):
        vocabulary = build_vocabulary(seed, **sizes)
        for name in expected:
            assert draw_categories(seed, [name], sizes) \
                == {name: getattr(vocabulary, name)}

    def test_unknown_size_keywords_are_refused(self):
        with pytest.raises(TypeError, match="n_planets"):
            draw_categories(0, GAZETTEERS, {"n_planets": 3})


def small_corpus_with_sizes() -> DocumentCollection:
    """A corpus whose metadata records non-default sizes, some of them
    for categories a pipeline never draws."""
    corpus = www05_like(pages_per_name=4, names=["William Cohen"])
    sizes = {"n_concepts": 50, "n_organizations": 30, "n_first_names": 95,
             "n_locations": 20, "n_content_words": 10, "n_domains": 5}
    return DocumentCollection(corpus.name, corpus.collections,
                              dict(corpus.metadata, vocabulary_seed=3,
                                   vocabulary_sizes=sizes))


CORPORA = {
    "www05_like": lambda: www05_like(pages_per_name=4),
    "weps2_like": lambda: weps2_like(pages_per_name=4),
    "scale_corpus": lambda: scale_corpus(4, seed=3, pages_per_name=4),
    "recorded_sizes": small_corpus_with_sizes,
}


class TestPipelineFromMetadata:
    @pytest.mark.parametrize("corpus", CORPORA.values(), ids=CORPORA.keys())
    def test_gazetteers_match_the_full_vocabulary(self, corpus):
        collection = corpus()
        metadata = collection.metadata
        vocabulary = build_vocabulary(metadata["vocabulary_seed"],
                                      **metadata.get("vocabulary_sizes", {}))
        expected = ExtractionPipeline.from_vocabulary(
            vocabulary, query_names=collection.query_names())
        assert gazetteer_state(resolve_extraction_pipeline(collection)) \
            == gazetteer_state(expected)

    def test_draws_only_the_gazetteer_words(self, monkeypatch):
        """At default sizes a pipeline draws 360 concepts, 240
        organizations, 110 locations and 70 first names — none of the
        other 2 870 words."""
        drawn = []
        make = vocabulary_module._make_unique_words

        def counting(rng, count, **kwargs):
            drawn.append(count)
            return make(rng, count, **kwargs)

        monkeypatch.setattr(vocabulary_module, "_make_unique_words",
                            counting)
        collection = www05_like(pages_per_name=4, names=["William Cohen"])
        assert "vocabulary_sizes" not in collection.metadata
        drawn.clear()  # generating the corpus drew the whole lexicon
        resolve_extraction_pipeline(collection)
        assert sorted(drawn) == [70, 110, 240, 360]
        assert sum(drawn) == 780
        assert sum(DEFAULT_VOCABULARY_SIZES.values()) == 3650
