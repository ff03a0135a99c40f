"""Extraction pipeline tests (on the generated fixture block)."""

from collections import Counter

from repro.corpus.documents import NameCollection, WebPage
from repro.extraction.pipeline import ExtractionPipeline
from repro.extraction.tokenizer import page_tokens


class TestExtractBlock:
    def test_one_feature_bundle_per_page(self, block_features, small_block):
        assert set(block_features) == set(small_block.page_ids())

    def test_urls_copied(self, block_features, small_block):
        for page in small_block:
            assert block_features[page.doc_id].url == page.url

    def test_tfidf_present_and_normalized(self, block_features):
        for features in block_features.values():
            assert features.tfidf
            norm = sum(v * v for v in features.tfidf.values()) ** 0.5
            assert abs(norm - 1.0) < 1e-9

    def test_most_pages_have_names(self, block_features):
        with_names = sum(1 for f in block_features.values()
                         if f.most_frequent_name)
        assert with_names >= 0.9 * len(block_features)

    def test_most_frequent_name_is_usually_query(self, block_features,
                                                  small_block):
        query_surname = small_block.query_name.split()[-1]
        matching = sum(
            1 for f in block_features.values()
            if query_surname in f.most_frequent_name)
        assert matching >= 0.6 * len(block_features)

    def test_concept_vectors_normalized(self, block_features):
        for features in block_features.values():
            if features.concept_vector:
                assert abs(sum(features.concept_vector.values()) - 1.0) < 1e-9

    def test_concept_set_matches_vector(self, block_features):
        for features in block_features.values():
            assert set(features.concept_vector) == set(features.concept_set)

    def test_some_pages_missing_features(self, block_features):
        # The generator injects missing-information pages; the block should
        # contain at least one page without organizations or concepts.
        missing = sum(
            1 for f in block_features.values()
            if not f.organizations or not f.concept_set)
        assert missing >= 1

    def test_other_persons_excludes_query_surname(self, block_features,
                                                  small_block):
        query_surname = small_block.query_name.split()[-1].lower()
        for features in block_features.values():
            for name in features.other_persons:
                assert not name.lower().endswith(query_surname)

    def test_n_tokens_positive(self, block_features):
        assert all(f.n_tokens > 0 for f in block_features.values())


class TestHandedTokens:
    def test_tokens_in_hand_are_not_read_again(self, pipeline, small_block,
                                               block_features, page_reads):
        """A caller that tokenised the pages already (the session's
        admission) hands the tokens over: same features, no second pass
        over the text."""
        tokens = [page_tokens(page) for page in small_block.pages]
        assert pipeline.extract_block(small_block,
                                      tokens=tokens) == block_features
        assert page_reads == []

    def test_a_url_only_read_set_never_tokenises(self, pipeline, small_block,
                                                 page_reads):
        features = pipeline.extract_block(small_block,
                                          reads=frozenset({"url"}))
        assert page_reads == []
        assert all(page.n_tokens == 0 and page.reads == {"url"}
                   for page in features.values())


class TestExtractCollection:
    def test_covers_all_blocks(self, pipeline, small_dataset):
        features = pipeline.extract_collection(small_dataset)
        expected = {page.doc_id for page in small_dataset.all_pages()}
        assert set(features) == expected


class TestEdgeCases:
    def make_block(self, text):
        page = WebPage(doc_id="x/0", query_name="Jane Roe",
                       url="http://a.org/x", title="t", text=text,
                       person_id="p")
        return NameCollection(query_name="Jane Roe", pages=[page])

    def test_empty_page(self):
        pipeline = ExtractionPipeline()
        features = pipeline.extract_block(self.make_block(""))
        bundle = features["x/0"]
        assert bundle.most_frequent_name == ""
        assert bundle.closest_name_to_query == ""
        assert bundle.organizations == Counter()

    def test_page_without_tokens(self):
        page = WebPage(doc_id="x/0", query_name="Jane Roe", url="u",
                       title="", text="")
        block = NameCollection(query_name="Jane Roe", pages=[page])
        bundle = ExtractionPipeline().extract_block(block)["x/0"]
        assert bundle.n_tokens == 0
        assert bundle.tfidf == {} and bundle.concept_vector == {}

    def test_all_stopword_page_has_empty_tfidf(self):
        pipeline = ExtractionPipeline(extra_stopwords=["filler"])
        bundle = pipeline.extract_block(
            self.make_block("the and of Filler a I"))["x/0"]
        assert bundle.tfidf == {}
        assert bundle.n_tokens == 7  # the title "t" included

    def test_non_ascii_text_is_never_lowercased_raw(self):
        # str.lower() would make "i" + combining dot of 'İ' and an ASCII
        # "k" of the Kelvin sign; neither is a token of this page.
        pipeline = ExtractionPipeline()
        bundle = pipeline.extract_block(
            self.make_block("\u0130stanbul 300 \u212a"))["x/0"]
        assert bundle.n_tokens == 2
        assert set(bundle.tfidf) == {"stanbul"}  # title "t" is too short

    def test_full_form_preferred_over_bare_surname(self):
        pipeline = ExtractionPipeline(first_names=["Jane"],
                                      known_surnames=["Roe"])
        text = "Roe Roe Roe met Jane Roe once"
        features = pipeline.extract_block(self.make_block(text))
        # Bare "Roe" is more frequent, but the full form is preferred.
        assert features["x/0"].most_frequent_name == "Jane Roe"

    def test_closest_name_prefers_query_form(self):
        pipeline = ExtractionPipeline(first_names=["Jane", "Bob"],
                                      known_surnames=["Roe"])
        text = "Bob Smith talked while Jane Roe listened"
        features = pipeline.extract_block(self.make_block(text))
        assert features["x/0"].closest_name_to_query == "Jane Roe"

    def test_from_vocabulary_includes_query_names(self, vocabulary):
        pipeline = ExtractionPipeline.from_vocabulary(
            vocabulary, query_names=["Jane Roe"])
        block = self.make_block("Jane Roe and Roe met")
        features = pipeline.extract_block(block)
        assert features["x/0"].most_frequent_name == "Jane Roe"
