"""End-to-end feature extraction for document collections.

``ExtractionPipeline`` turns raw :class:`~repro.corpus.documents.WebPage`
objects into :class:`~repro.extraction.features.PageFeatures`.  Each page
is read once: one tokenization and one lower-casing feed the dictionary
NER, the concept spotter and the TF-IDF term counts.  TF-IDF is weighed
per blocking unit (one ambiguous name's pages) because that is the
comparison universe of the paper's pipeline; the per-block statistics
live in a :class:`BlockContext`, which can keep growing after the batch
so a page that joins the block later costs one page's work, not the
block's.

Extraction can be narrowed to the fields a pass reads (``reads``): each
extractor group — NER, concept spotter, TF-IDF — runs only when one of
its fields is asked for, inside the one per-page body
(:meth:`ExtractionPipeline._draft`).  The read set is derived by the
callers from the similarity functions they are about to score
(:func:`~repro.similarity.base.read_fields`), never configured.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import repeat

from repro.corpus.documents import DocumentCollection, NameCollection, WebPage
from repro.corpus.vocabulary import Vocabulary
from repro.extraction.concepts import ConceptExtractor
from repro.extraction.features import (
    CONCEPT_FIELDS,
    NER_FIELDS,
    TFIDF_FIELDS,
    PageFeatures,
)
from repro.extraction.ner import DictionaryNer, NerResult, PersonMention
from repro.extraction.stopwords import build_stopword_set
from repro.extraction.tfidf import TfidfVectorizer
from repro.extraction.tokenizer import lower_all, page_tokens
from repro.similarity.strings import jaro_winkler, name_similarity


class BlockContext:
    """What a page's features depend on beyond the page itself.

    That is the block's query name (F6, F7), the TF-IDF statistics of
    the block's pages so far (F8-F10), and the read set the block is
    extracted for.  Pages join through
    :meth:`ExtractionPipeline.extract_block` or
    :meth:`ExtractionPipeline.fold`; the statistics are running counts,
    so a context grown page by page equals one built over all of them.

    The read set is fixed for the context's life: a context that does
    not read ``tfidf`` never counts a page's terms, so it could not
    weigh one later.

    Not thread-safe: one block's pages must join one at a time.

    Attributes:
        query_name: the block's search keyword.
        vectorizer: TF-IDF statistics of the pages that joined.
        reads: the fields extracted pages hold — the requested ones
            widened to whole extractor groups plus ``url``; ``None``
            when that is every field.
    """

    __slots__ = ("query_name", "vectorizer", "reads", "reads_ner",
                 "reads_concepts", "reads_tfidf", "_query", "_query_surname",
                 "_name_scores")

    def __init__(self, query_name: str, vectorizer: TfidfVectorizer,
                 reads: frozenset[str] | None = None):
        self.query_name = query_name
        self.vectorizer = vectorizer
        # Which extractor groups run for the block's pages.
        self.reads_ner = reads is None or not reads.isdisjoint(NER_FIELDS)
        self.reads_concepts = (reads is None
                               or not reads.isdisjoint(CONCEPT_FIELDS))
        self.reads_tfidf = reads is None or not reads.isdisjoint(TFIDF_FIELDS)
        if self.reads_ner and self.reads_concepts and self.reads_tfidf:
            self.reads = None
        else:
            self.reads = frozenset({"url"}).union(
                NER_FIELDS if self.reads_ner else (),
                CONCEPT_FIELDS if self.reads_concepts else (),
                TFIDF_FIELDS if self.reads_tfidf else ())
        self._query = query_name.lower()
        self._query_surname = "".join(query_name.split()[-1:]).lower()
        # surface -> (name_similarity, jaro_winkler) against the query:
        # the same few name forms recur on most pages of a block.
        self._name_scores: dict[str, tuple[float, float]] = {}

    @property
    def n_pages(self) -> int:
        """Pages counted into the TF-IDF statistics so far (none, ever,
        when the context does not read ``tfidf``)."""
        return self.vectorizer.n_documents

    def closest_name(self, person_counts: Counter) -> str:
        """Extracted name most string-similar to the search keyword (F7).

        Name-aware similarity ranks sub-forms of the query ("Cohen",
        "W. Cohen") above unrelated names; Jaro–Winkler breaks residual
        ties, then the count, then the surface itself.
        """
        if len(person_counts) < 2:
            return next(iter(person_counts), "")
        scores, query = self._name_scores, self._query

        def score(item: tuple[str, int]) -> tuple[float, float, int, str]:
            surface, count = item
            similarity = scores.get(surface)
            if similarity is None:
                lowered = surface.lower()
                similarity = scores[surface] = (
                    name_similarity(lowered, query),
                    jaro_winkler(lowered, query))
            return (*similarity, count, surface)

        return max(person_counts.items(), key=score)[0]

    def other_persons(self, persons: list[PersonMention]) -> Counter:
        """Person names on the page that are not the query person (F6)."""
        query_surname = self._query_surname
        return Counter([mention.surface for mention in persons
                        if mention.last.lower() != query_surname])


class ExtractionPipeline:
    """Extracts :class:`PageFeatures` from pages.

    Args:
        organizations: organization gazetteer for the NER.
        locations: location gazetteer.
        first_names: given-name gazetteer.
        known_surnames: surnames recognizable as bare mentions (usually the
            dataset's query names).
        concepts: the concept inventory for the concept spotter.
        extra_stopwords: corpus-specific stopwords for TF-IDF.
    """

    def __init__(
        self,
        organizations: Iterable[str] = (),
        locations: Iterable[str] = (),
        first_names: Iterable[str] = (),
        known_surnames: Iterable[str] = (),
        concepts: Iterable[str] = (),
        extra_stopwords: Iterable[str] = (),
    ):
        self._ner = DictionaryNer(
            organizations=organizations,
            locations=locations,
            first_names=first_names,
            known_surnames=known_surnames,
        )
        self._concepts = ConceptExtractor(concepts)
        self._stopwords = build_stopword_set(extra_stopwords)

    @classmethod
    def from_vocabulary(cls, vocabulary: Vocabulary,
                        query_names: Iterable[str] = ()) -> "ExtractionPipeline":
        """Build a pipeline whose gazetteers come from a corpus vocabulary.

        This mirrors the paper's dictionary-based NER: the dictionaries are
        the same inventories the (synthetic) web uses.
        """
        surnames = {name.split()[-1] for name in query_names}
        first_names = set(vocabulary.first_names)
        first_names.update(name.split()[0] for name in query_names if " " in name)
        return cls(
            organizations=vocabulary.organizations,
            locations=vocabulary.locations,
            first_names=first_names,
            known_surnames=surnames,
            concepts=vocabulary.concepts,
        )

    def block_context(self, query_name: str,
                      reads: frozenset[str] | None = None) -> BlockContext:
        """An empty context for one name's block, extracted for ``reads``
        (``None``: every field)."""
        return BlockContext(query_name,
                            TfidfVectorizer(stopwords=self._stopwords), reads)

    def extract_block(self, block: NameCollection,
                      context: BlockContext | None = None,
                      reads: frozenset[str] | None = None,
                      tokens: Sequence[list[str]] | None = None,
                      ) -> dict[str, PageFeatures]:
        """Extract features for every page of one name's block.

        Args:
            block: the pages to extract.
            context: the context of the pages that joined the name's
                block *before* these (from :meth:`block_context`); the
                block's pages join it, and their TF-IDF is weighed over
                everything it then holds.  By default the block is the
                whole comparison universe.
            reads: the :class:`PageFeatures` fields the caller will read
                (``None``: all of them).  Only the extractor groups that
                fill one of them run, and the returned bundles record
                what they hold (``PageFeatures.reads``).  Applies to the
                fresh context of a call without one: a supplied
                ``context`` carries its own read set, fixed when it was
                created.
            tokens: ``page_tokens`` of the block's pages, in order, when
                the caller already has them.
        """
        if context is None:
            context = self.block_context(block.query_name, reads)
        # Every page joins before any is weighed: a page's IDF counts the
        # whole block, later pages included.
        drafts = [self._draft(page, context, given)
                  for page, given in zip(block.pages, tokens or repeat(None))]
        weigh = context.vectorizer.weigh
        features: dict[str, PageFeatures] = {}
        for draft, term_counts in drafts:
            if term_counts is not None:
                draft.tfidf = weigh(term_counts)
            features[draft.doc_id] = draft
        return features

    def fold(self, pages: Iterable[WebPage], context: BlockContext) -> None:
        """Count ``pages`` into ``context`` without extracting them.

        For pages that joined the block with features computed elsewhere:
        later pages' TF-IDF still has to count them.  A context that
        does not read ``tfidf`` has nothing to count.
        """
        if context.reads_tfidf:
            for page in pages:
                self._join(lower_all(page_tokens(page)), context)

    def _join(self, lowered: list[str], context: BlockContext) -> Counter:
        """Count one page's lower-cased tokens into ``context``."""
        vectorizer = context.vectorizer
        term_counts = vectorizer.count_terms(lowered)
        vectorizer.observe(term_counts)
        return term_counts

    def _draft(self, page: WebPage, context: BlockContext,
               tokens: list[str] | None = None,
               ) -> tuple[PageFeatures, Counter | None]:
        """``page``'s features for the context's read set, bar the
        TF-IDF vector, plus the term counts the vector is weighed from
        once the whole block has joined (``None``: not read).

        The page is tokenised at most once, and only when an extractor
        that reads tokens runs.
        """
        ner, concepts, tfidf = (context.reads_ner, context.reads_concepts,
                                context.reads_tfidf)
        fields: dict[str, object] = {}
        term_counts = None
        if ner or concepts or tfidf:
            if tokens is None:
                tokens = page_tokens(page)
            fields["n_tokens"] = len(tokens)
            if concepts or tfidf:
                lowered = lower_all(tokens)
            if tfidf:
                term_counts = self._join(lowered, context)
            if ner:
                ner_result = self._ner.extract_tokens(tokens)
                person_counts = ner_result.person_counts()
                fields.update(
                    most_frequent_name=_most_frequent_name(ner_result,
                                                           person_counts),
                    closest_name_to_query=context.closest_name(person_counts),
                    organizations=ner_result.organizations,
                    other_persons=context.other_persons(ner_result.persons),
                    locations=ner_result.locations)
            if concepts:
                concept_counts = self._concepts.spot(lowered)
                fields.update(
                    concept_vector=ConceptExtractor.weighted_vector(
                        concept_counts),
                    concept_set=frozenset(concept_counts))
        return PageFeatures(doc_id=page.doc_id, url=page.url,
                            reads=context.reads, **fields), term_counts

    def extract_collection(self, collection: DocumentCollection) -> dict[str, PageFeatures]:
        """Extract features for every page in the dataset (block by block)."""
        features: dict[str, PageFeatures] = {}
        for block in collection:
            features.update(self.extract_block(block))
        return features


def _most_frequent_name(ner_result: NerResult, person_counts: Counter) -> str:
    """Dominant person name on the page (feature of F3).

    Full-form mentions ("First Last") are preferred over initials and bare
    surnames; within a form class, higher count wins, then the longer
    surface (more informative), then lexicographic order for determinism.
    """
    if len(person_counts) < 2:
        return next(iter(person_counts), "")
    full_forms = {m.surface for m in ner_result.persons if m.is_full}

    def rank(item: tuple[str, int]) -> tuple[int, int, int, str]:
        surface, count = item
        return (surface in full_forms, count, len(surface), surface)

    return max(person_counts.items(), key=rank)[0]
