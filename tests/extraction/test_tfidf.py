"""TF-IDF vectorizer tests."""

import math
from collections import Counter

import pytest

from repro.extraction.tfidf import TfidfVectorizer


DOCS = [
    "alpha beta gamma".split(),
    "alpha beta delta".split(),
    "alpha epsilon zeta".split(),
]


class TestFit:
    def test_is_fitted(self):
        vectorizer = TfidfVectorizer()
        assert not vectorizer.is_fitted
        vectorizer.fit(DOCS)
        assert vectorizer.is_fitted

    def test_vocabulary_size(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        assert vectorizer.vocabulary_size == 6

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            TfidfVectorizer().transform(["alpha"])


class TestTransform:
    def test_l2_normalized(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vector = vectorizer.transform(DOCS[0])
        norm = math.sqrt(sum(v * v for v in vector.values()))
        assert abs(norm - 1.0) < 1e-12

    def test_rare_term_weighs_more(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vector = vectorizer.transform("alpha gamma".split())
        # "gamma" appears in one doc, "alpha" in all three.
        assert vector["gamma"] > vector["alpha"]

    def test_unseen_term_gets_max_idf(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vector = vectorizer.transform("alpha brandnew".split())
        assert vector["brandnew"] > vector["alpha"]

    def test_empty_document(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        assert vectorizer.transform([]) == {}

    def test_repeated_terms_log_tf(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        once = vectorizer.transform(["gamma", "alpha"])
        thrice = vectorizer.transform(["gamma", "gamma", "gamma", "alpha"])
        ratio_once = once["gamma"] / once["alpha"]
        ratio_thrice = thrice["gamma"] / thrice["alpha"]
        expected = 1.0 + math.log(3)
        assert abs(ratio_thrice / ratio_once - expected) < 1e-9


class TestFiltering:
    def test_stopwords_removed(self):
        vectorizer = TfidfVectorizer(stopwords=frozenset({"alpha"})).fit(DOCS)
        vector = vectorizer.transform(DOCS[0])
        assert "alpha" not in vector

    def test_short_tokens_removed(self):
        vectorizer = TfidfVectorizer(min_token_length=3)
        vectorizer.fit([["ab", "abc"]])
        vector = vectorizer.transform(["ab", "abc"])
        assert "ab" not in vector
        assert "abc" in vector

    def test_lowercases(self):
        vectorizer = TfidfVectorizer().fit([["Alpha", "beta"]])
        vector = vectorizer.transform(["ALPHA"])
        assert "alpha" in vector


class TestFitTransform:
    def test_matches_separate_calls(self):
        first = TfidfVectorizer()
        vectors = first.fit_transform(DOCS)
        second = TfidfVectorizer().fit(DOCS)
        assert vectors == [second.transform(doc) for doc in DOCS]


class TestRunningStatistics:
    def test_observing_one_by_one_equals_fit(self):
        fitted = TfidfVectorizer().fit(DOCS)
        running = TfidfVectorizer()
        for doc in DOCS:
            running.observe(running.count_terms(doc))
        assert running.n_documents == len(DOCS)
        for doc in DOCS + [["alpha", "brandnew"]]:
            ours, expected = running.transform(doc), fitted.transform(doc)
            assert list(ours.items()) == list(expected.items())

    def test_weights_follow_the_running_counts(self):
        vectorizer = TfidfVectorizer()
        counts = vectorizer.count_terms(["alpha", "beta", "beta"])
        vectorizer.observe(counts)
        alone = vectorizer.weigh(counts)
        vectorizer.observe(vectorizer.count_terms(["alpha"]))
        # "alpha" is now in both documents, "beta" in one of two
        assert vectorizer.weigh(counts)["alpha"] < alone["alpha"]

    def test_refit_forgets_earlier_documents(self):
        vectorizer = TfidfVectorizer().fit(DOCS)
        vectorizer.fit(DOCS[:1])
        assert vectorizer.n_documents == 1
        assert vectorizer.vocabulary_size == 3

    def test_count_terms_filters_once_for_both_uses(self):
        vectorizer = TfidfVectorizer(stopwords=frozenset({"the"}))
        counts = vectorizer.count_terms(["the", "a", "acme", "acme", "labs"])
        assert counts == {"acme": 2, "labs": 1}
        assert vectorizer.weigh(Counter()) == {}
