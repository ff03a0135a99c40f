"""Fused extraction ≡ the seed's three separate passes, bit for bit.

``ExtractionPipeline.extract_block`` reads each page once (one
tokenization, one lower-casing, shared by the NER, the concept spotter
and the TF-IDF counts).  The seed ran them as three independent passes;
that body is kept here, verbatim, as the reference.  Equality is exact
and includes the iteration order of every mapping field — that order
fixes the float folds of the similarity layer downstream.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.datasets import scale_corpus, www05_like
from repro.corpus.documents import NameCollection, WebPage
from repro.corpus.vocabulary import build_vocabulary
from repro.extraction.features import PageFeatures
from repro.extraction.ner import NerResult, PersonMention
from repro.extraction.pipeline import ExtractionPipeline
from repro.extraction.stopwords import build_stopword_set
from repro.extraction.tokenizer import is_capitalized, is_initial, tokenize
from repro.similarity.strings import jaro_winkler, name_similarity

ORDERED_FIELDS = ("tfidf", "concept_vector", "organizations",
                  "other_persons", "locations")


# -- the seed implementation (reference) --------------------------------------

class _SeedPhraseMatcher:
    def __init__(self, phrases):
        self._index = {}
        self.max_len = 1
        for phrase in phrases:
            tokens = tuple(phrase.split())
            if not tokens:
                continue
            self._index.setdefault(tokens[0], set()).add(tokens)
            self.max_len = max(self.max_len, len(tokens))

    def match_at(self, tokens, position):
        candidates = self._index.get(tokens[position])
        if not candidates:
            return None
        limit = min(self.max_len, len(tokens) - position)
        for length in range(limit, 0, -1):
            window = tuple(tokens[position:position + length])
            if window in candidates:
                return window
        return None


class _SeedNer:
    def __init__(self, organizations, locations, first_names, known_surnames):
        self._org_matcher = _SeedPhraseMatcher(organizations)
        self._loc_matcher = _SeedPhraseMatcher(locations)
        self._first_names = set(first_names)
        self._known_surnames = set(known_surnames)

    def extract_tokens(self, tokens):
        result = NerResult()
        position = 0
        n_tokens = len(tokens)
        while position < n_tokens:
            token = tokens[position]
            if not is_capitalized(token):
                position += 1
                continue
            org = self._org_matcher.match_at(tokens, position)
            if org is not None:
                result.organizations[" ".join(org)] += 1
                position += len(org)
                continue
            loc = self._loc_matcher.match_at(tokens, position)
            if loc is not None:
                result.locations[" ".join(loc)] += 1
                position += len(loc)
                continue
            mention, consumed = self._match_person(tokens, position)
            if mention is not None:
                result.persons.append(mention)
                position += consumed
                continue
            position += 1
        return result

    def _match_person(self, tokens, position):
        token = tokens[position]
        has_next = position + 1 < len(tokens)
        next_token = tokens[position + 1] if has_next else ""
        if (token in self._first_names and is_capitalized(next_token)
                and not is_initial(next_token)):
            return PersonMention(surface=f"{token} {next_token}",
                                 first=token, last=next_token), 2
        if (is_initial(token) and is_capitalized(next_token)
                and len(next_token) > 1):
            return PersonMention(surface=f"{token}. {next_token}",
                                 first=token, last=next_token), 2
        if token in self._known_surnames:
            return PersonMention(surface=token, first=None, last=token), 1
        return None, 0


class _SeedConcepts:
    def __init__(self, concepts):
        self._index = {}
        self.max_len = 1
        for concept in concepts:
            tokens = tuple(concept.lower().split())
            if not tokens:
                continue
            self._index.setdefault(tokens[0], set()).add(tokens)
            self.max_len = max(self.max_len, len(tokens))

    def extract_counts(self, tokens):
        lowered = [token.lower() for token in tokens]
        counts = Counter()
        position = 0
        n_tokens = len(lowered)
        while position < n_tokens:
            candidates = self._index.get(lowered[position])
            matched = False
            if candidates:
                limit = min(self.max_len, n_tokens - position)
                for length in range(limit, 0, -1):
                    window = tuple(lowered[position:position + length])
                    if window in candidates:
                        counts[" ".join(window)] += 1
                        position += length
                        matched = True
                        break
            if not matched:
                position += 1
        return counts

    @staticmethod
    def weighted_vector(counts):
        total = sum(counts.values())
        if total == 0:
            return {}
        return {concept: count / total
                for concept, count in sorted(counts.items())}


class _SeedTfidf:
    def __init__(self, stopwords, min_token_length=2):
        self.stopwords = stopwords
        self.min_token_length = min_token_length
        self._idf = {}
        self._n_documents = 0

    def _filter(self, tokens):
        return [token.lower() for token in tokens
                if len(token) >= self.min_token_length
                and token.lower() not in self.stopwords]

    def fit(self, documents):
        self._n_documents = len(documents)
        document_frequency = Counter()
        for tokens in documents:
            document_frequency.update(set(self._filter(tokens)))
        n_docs = self._n_documents
        self._idf = {term: math.log((1 + n_docs) / (1 + df)) + 1.0
                     for term, df in document_frequency.items()}

    def transform(self, tokens):
        term_frequency = Counter(self._filter(tokens))
        if not term_frequency:
            return {}
        default_idf = math.log(1 + self._n_documents) + 1.0
        vector = {
            term: (1.0 + math.log(count)) * self._idf.get(term, default_idf)
            for term, count in sorted(term_frequency.items())
        }
        norm = math.sqrt(sum(weight * weight for weight in vector.values()))
        return {term: weight / norm for term, weight in vector.items()}


def _seed_most_frequent_name(ner_result):
    counts = ner_result.person_counts()
    if not counts:
        return ""
    full_forms = {m.surface for m in ner_result.persons if m.is_full}

    def rank(item):
        surface, count = item
        return (surface in full_forms, count, len(surface), surface)

    return max(counts.items(), key=rank)[0]


def _seed_closest_name(ner_result, query_name):
    counts = ner_result.person_counts()
    if not counts:
        return ""
    query = query_name.lower()

    def score(item):
        surface, count = item
        lowered = surface.lower()
        return (name_similarity(lowered, query),
                jaro_winkler(lowered, query), count, surface)

    return max(counts.items(), key=score)[0]


def _seed_other_persons(ner_result, query_name):
    query_surname = query_name.split()[-1].lower()
    counts = Counter()
    for mention in ner_result.persons:
        if mention.last.lower() == query_surname:
            continue
        counts[mention.surface] += 1
    return counts


class SeedPipeline(ExtractionPipeline):
    """The seed ``extract_block``: tokenize, fit TF-IDF over the block,
    then NER, concepts and the TF-IDF transform per page.

    Subclasses the pipeline only for its constructor signature and
    ``from_vocabulary``; every pass below is the seed's own code.
    """

    def __init__(self, organizations=(), locations=(), first_names=(),
                 known_surnames=(), concepts=(), extra_stopwords=()):
        self._ner = _SeedNer(organizations, locations, first_names,
                             known_surnames)
        self._concepts = _SeedConcepts(concepts)
        self._stopwords = build_stopword_set(extra_stopwords)

    def extract_block(self, block):
        token_lists = [tokenize(f"{page.title}. {page.text}")
                       for page in block.pages]
        vectorizer = _SeedTfidf(stopwords=self._stopwords)
        vectorizer.fit(token_lists)
        features = {}
        for page, tokens in zip(block.pages, token_lists):
            ner_result = self._ner.extract_tokens(tokens)
            concept_counts = self._concepts.extract_counts(tokens)
            features[page.doc_id] = PageFeatures(
                doc_id=page.doc_id,
                url=page.url,
                most_frequent_name=_seed_most_frequent_name(ner_result),
                closest_name_to_query=_seed_closest_name(ner_result,
                                                         block.query_name),
                concept_vector=_SeedConcepts.weighted_vector(concept_counts),
                concept_set=frozenset(concept_counts),
                organizations=ner_result.organizations,
                other_persons=_seed_other_persons(ner_result,
                                                  block.query_name),
                locations=ner_result.locations,
                tfidf=vectorizer.transform(tokens),
                n_tokens=len(tokens),
            )
        return features


# -- comparison ---------------------------------------------------------------

def assert_identical_features(ours: dict[str, PageFeatures],
                              reference: dict[str, PageFeatures]) -> None:
    """Field-by-field equality, exact floats, identical mapping order."""
    assert list(ours) == list(reference)
    for doc_id, expected in reference.items():
        got = ours[doc_id]
        assert got == expected, doc_id
        for name in ORDERED_FIELDS:
            ours_field, seed_field = getattr(got, name), getattr(expected, name)
            assert type(ours_field) is type(seed_field), (doc_id, name)
            assert (list(ours_field.items())
                    == list(seed_field.items())), (doc_id, name)
        assert list(got.concept_set) == list(expected.concept_set), doc_id


def pipelines_for(collection):
    """(fused, seed) pipelines over the collection's own vocabulary, built
    the way ``resolve_extraction_pipeline`` rebuilds one from metadata."""
    sizes = collection.metadata.get("vocabulary_sizes") or {}
    vocabulary = build_vocabulary(
        int(collection.metadata["vocabulary_seed"]),
        **{key: int(value) for key, value in sizes.items()})
    names = collection.query_names()
    return (ExtractionPipeline.from_vocabulary(vocabulary, query_names=names),
            SeedPipeline.from_vocabulary(vocabulary, query_names=names))


# -- generator-seeded corpora -------------------------------------------------

@pytest.mark.parametrize("collection", [
    pytest.param(lambda: scale_corpus(6, seed=13, pages_per_name=20,
                                      collision_rate=0.3), id="scale_corpus"),
    pytest.param(lambda: www05_like(seed=13, pages_per_name=26,
                                    names=["William Cohen", "Adam Cheyer",
                                           "Lynn Voss"]), id="www05_like"),
])
def test_generated_blocks_extract_identically(collection):
    collection = collection()
    fused, seed = pipelines_for(collection)
    for block in collection:
        assert_identical_features(fused.extract_block(block),
                                  seed.extract_block(block))


def test_growing_context_extracts_identically(small_block, pipeline,
                                              vocabulary, small_dataset):
    """A context grown page by page weighs each new page exactly as the
    seed weighs it inside the block of the pages so far."""
    seed = SeedPipeline.from_vocabulary(
        vocabulary, query_names=small_dataset.query_names())
    context = pipeline.block_context(small_block.query_name)
    pages = list(small_block.pages)[:12]
    for index, page in enumerate(pages):
        joined = NameCollection(small_block.query_name, pages=[page])
        prefix = NameCollection(small_block.query_name,
                                pages=pages[:index + 1])
        got = pipeline.extract_block(joined, context)
        expected = seed.extract_block(prefix)
        assert_identical_features(got, {page.doc_id: expected[page.doc_id]})
    assert context.n_pages == len(pages)


# -- adversarial pages --------------------------------------------------------

GAZETTEERS = dict(
    organizations=["Acme Labs", "Acme", "Initech", "New Media Institute"],
    locations=["New York", "York", "Lausanne", "New"],
    first_names=["Jane", "Bob", "William", "New"],
    known_surnames=["Roe", "Cohen", "O'Neil"],
    concepts=["machine learning", "learning", "kernel methods course",
              "kernel", "entity-resolution", "the web"],
    extra_stopwords=["filler"],
)

FRAGMENTS = st.sampled_from([
    # gazetteer words, whole and broken
    "Acme", "Labs", "Initech", "New", "York", "Media", "Institute",
    "Lausanne", "Jane", "Bob", "William", "Roe", "Cohen", "O'Neil", "J",
    "W", "machine", "learning", "Machine", "LEARNING", "kernel", "methods",
    "course", "entity-resolution", "web",
    # stopwords (default and extra), short tokens, apostrophes and hyphens
    "the", "The", "and", "of", "a", "I", "filler", "Filler", "x", "ab",
    "don't", "rock-n-roll", "-", "'", "--x", "'quoted'",
    # non-ASCII whose lower() changes length or turns into ASCII
    "\u0130stanbul", "\u212a", "Kelvin", "\u00c9cole", "stra\u00dfe",
    "\u03a3\u0399\u03a3", "na\u00efve", "42", "r2d2",
])
SEPARATORS = st.sampled_from([" ", "  ", ". ", ", ", "\n", "-", "'", "",
                              " . ", "? "])


@st.composite
def texts(draw, max_size=14):
    parts = draw(st.lists(st.tuples(FRAGMENTS, SEPARATORS),
                          max_size=max_size))
    return "".join(fragment + separator for fragment, separator in parts)


@st.composite
def blocks(draw):
    query_name = draw(st.sampled_from(["Jane Roe", "William Cohen", "Roe",
                                       "Sean O'Neil"]))
    n_pages = draw(st.integers(min_value=1, max_value=5))
    pages = [WebPage(doc_id=f"q/{index}", query_name=query_name,
                     url=f"http://host{index}.org/page",
                     title=draw(texts(max_size=3)), text=draw(texts()))
             for index in range(n_pages)]
    return NameCollection(query_name=query_name, pages=pages)


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_adversarial_blocks_extract_identically(block):
    assert_identical_features(
        ExtractionPipeline(**GAZETTEERS).extract_block(block),
        SeedPipeline(**GAZETTEERS).extract_block(block))


# -- edge inputs of the fused pass -------------------------------------------

def _block(*pages: tuple[str, str], query_name: str = "Jane Roe"):
    return NameCollection(query_name=query_name, pages=[
        WebPage(doc_id=f"e/{index}", query_name=query_name,
                url=f"http://e.org/{index}", title=title, text=text)
        for index, (title, text) in enumerate(pages)])


EDGE_BLOCKS = {
    "no_tokens": _block(("", "")),
    "punctuation_only": _block(("...", "?! 42 -- ''")),
    "empty_title": _block(("", "Jane Roe joined Acme Labs")),
    "empty_text": _block(("Jane Roe at Acme Labs", "")),
    "apostrophes_and_hyphens": _block(
        ("O'Neil's entity-resolution", "rock-n-roll don't stop - 'quoted'")),
    "non_ascii": _block(
        ("\u0130stanbul \u212a", "Kelvin 300 \u212a na\u00efve "
                                 "\u00c9cole stra\u00dfe \u03a3\u0399\u03a3")),
    "one_page_block": _block(("Jane Roe", "machine learning in New York")),
    "all_stopwords": _block(("the and of", "The filler a I of the and")),
    "stopword_page_among_others": _block(
        ("the", "of and"), ("Jane Roe", "kernel methods course"),
        ("", "")),
    "duplicate_doc_id": NameCollection(query_name="Jane Roe", pages=[
        WebPage(doc_id="e/0", query_name="Jane Roe", url="u",
                title="first", text="Jane Roe machine learning"),
        WebPage(doc_id="e/0", query_name="Jane Roe", url="v",
                title="second", text="Bob Cohen kernel")]),
}


@pytest.mark.parametrize("name", sorted(EDGE_BLOCKS))
def test_edge_blocks_extract_identically(name):
    block = EDGE_BLOCKS[name]
    assert_identical_features(
        ExtractionPipeline(**GAZETTEERS).extract_block(block),
        SeedPipeline(**GAZETTEERS).extract_block(block))
