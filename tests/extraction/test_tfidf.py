"""TF-IDF vectorizer tests."""

import math
from collections import Counter

import pytest

from repro.extraction import tfidf
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

    def test_count_terms_keeps_first_seen_order(self):
        vectorizer = TfidfVectorizer(stopwords=frozenset({"the", "zeta"}))
        tokens = ["zeta", "labs", "x", "the", "acme", "labs", "zeta", "x",
                  "acme", "beta"]
        counts = vectorizer.count_terms(tokens)
        expected = Counter([token for token in tokens if len(token) >= 2
                            and token not in vectorizer.stopwords])
        assert list(counts.items()) == list(expected.items())


class TestAddDocuments:
    """The block pass and the per-document weighing give the same floats,
    the same key order and the same running statistics."""

    @staticmethod
    def add(monkeypatch, documents, threshold, before=()):
        monkeypatch.setattr(tfidf, "BLOCK_PASS_MIN_DOCUMENTS", threshold)
        vectorizer = TfidfVectorizer(stopwords=frozenset({"the", "of"}))
        vectorizer.fit(before)
        vectors = vectorizer.add_documents(documents)
        return vectors, vectorizer

    @pytest.mark.parametrize("before", [(), DOCS])
    def test_block_pass_equals_per_document_weighing(self, monkeypatch,
                                                     before):
        documents = [["alpha", "the", "beta", "alpha", "x"], [],
                     ["of", "the", "a"], ["gamma", "alpha", "delta"] * 3,
                     ["zeta", "i\u0307stanbul", "kelvin", "beta"]]
        per_page, by_page = self.add(monkeypatch, documents, 10**9, before)
        block, by_block = self.add(monkeypatch, documents, 1, before)
        assert [list(v.items()) for v in block] == [
            list(v.items()) for v in per_page]
        assert [type(v) for v in block] == [dict] * len(documents)
        assert by_block.n_documents == by_page.n_documents
        assert (dict(by_block._document_frequency)
                == dict(by_page._document_frequency))
        after = ["alpha", "omega"]
        assert (list(by_block.weigh(by_block.count_terms(after)).items())
                == list(by_page.weigh(by_page.count_terms(after)).items()))

    def test_block_of_filtered_documents_only(self, monkeypatch):
        vectors, vectorizer = self.add(monkeypatch, [["the"], ["a", "of"]], 1)
        assert vectors == [{}, {}] and vectors[0] is not vectors[1]
        assert vectorizer.n_documents == 2
        assert vectorizer.vocabulary_size == 0

    def test_threshold_routes_to_the_block_pass(self):
        assert tfidf.weighs_in_block(tfidf.BLOCK_PASS_MIN_DOCUMENTS)
        assert not tfidf.weighs_in_block(
            tfidf.BLOCK_PASS_MIN_DOCUMENTS - 1)
