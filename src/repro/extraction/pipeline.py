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
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.corpus.documents import DocumentCollection, NameCollection, WebPage
from repro.corpus.vocabulary import Vocabulary
from repro.extraction.concepts import ConceptExtractor
from repro.extraction.features import PageFeatures
from repro.extraction.ner import DictionaryNer, NerResult, PersonMention
from repro.extraction.stopwords import build_stopword_set
from repro.extraction.tfidf import TfidfVectorizer
from repro.extraction.tokenizer import lower_all, page_tokens
from repro.similarity.strings import jaro_winkler, name_similarity


class BlockContext:
    """What a page's features depend on beyond the page itself.

    That is the block's query name (F6, F7) and the TF-IDF statistics of
    the block's pages so far (F8-F10).  Pages join through
    :meth:`ExtractionPipeline.extract_block` or
    :meth:`ExtractionPipeline.fold`; the statistics are running counts,
    so a context grown page by page equals one built over all of them.

    Not thread-safe: one block's pages must join one at a time.

    Attributes:
        query_name: the block's search keyword.
        vectorizer: TF-IDF statistics of the pages that joined.
    """

    __slots__ = ("query_name", "vectorizer", "_query", "_query_surname",
                 "_name_scores")

    def __init__(self, query_name: str, vectorizer: TfidfVectorizer):
        self.query_name = query_name
        self.vectorizer = vectorizer
        self._query = query_name.lower()
        self._query_surname = "".join(query_name.split()[-1:]).lower()
        # surface -> (name_similarity, jaro_winkler) against the query:
        # the same few name forms recur on most pages of a block.
        self._name_scores: dict[str, tuple[float, float]] = {}

    @property
    def n_pages(self) -> int:
        """Pages that joined the context so far."""
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

    def block_context(self, query_name: str) -> BlockContext:
        """An empty context for one name's block."""
        return BlockContext(query_name,
                            TfidfVectorizer(stopwords=self._stopwords))

    def extract_block(self, block: NameCollection,
                      context: BlockContext | None = None,
                      ) -> dict[str, PageFeatures]:
        """Extract features for every page of one name's block.

        Args:
            block: the pages to extract.
            context: the context of the pages that joined the name's
                block *before* these (from :meth:`block_context`); the
                block's pages join it, and their TF-IDF is weighed over
                everything it then holds.  By default the block is the
                whole comparison universe.
        """
        if context is None:
            context = self.block_context(block.query_name)
        # Every page joins before any is weighed: a page's IDF counts the
        # whole block, later pages included.
        drafts = [self._draft(page, context) for page in block.pages]
        weigh = context.vectorizer.weigh
        features: dict[str, PageFeatures] = {}
        for draft, term_counts in drafts:
            draft.tfidf = weigh(term_counts)
            features[draft.doc_id] = draft
        return features

    def fold(self, pages: Iterable[WebPage], context: BlockContext) -> None:
        """Count ``pages`` into ``context`` without extracting them.

        For pages that joined the block with features computed elsewhere:
        later pages' TF-IDF still has to count them.
        """
        for page in pages:
            self._join(page, context)

    def _join(self, page: WebPage, context: BlockContext,
              ) -> tuple[list[str], list[str], Counter]:
        """Read ``page`` once and count it into ``context``."""
        tokens = page_tokens(page)
        lowered = lower_all(tokens)
        vectorizer = context.vectorizer
        term_counts = vectorizer.count_terms(lowered)
        vectorizer.observe(term_counts)
        return tokens, lowered, term_counts

    def _draft(self, page: WebPage, context: BlockContext,
               ) -> tuple[PageFeatures, Counter]:
        """``page``'s features bar the TF-IDF vector, plus the term counts
        the vector is weighed from once the whole block has joined."""
        tokens, lowered, term_counts = self._join(page, context)
        ner_result = self._ner.extract_tokens(tokens)
        concept_counts = self._concepts.spot(lowered)
        person_counts = ner_result.person_counts()
        return PageFeatures(
            doc_id=page.doc_id,
            url=page.url,
            most_frequent_name=_most_frequent_name(ner_result, person_counts),
            closest_name_to_query=context.closest_name(person_counts),
            concept_vector=ConceptExtractor.weighted_vector(concept_counts),
            concept_set=frozenset(concept_counts),
            organizations=ner_result.organizations,
            other_persons=context.other_persons(ner_result.persons),
            locations=ner_result.locations,
            n_tokens=len(tokens),
        ), term_counts

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
