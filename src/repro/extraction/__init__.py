"""Information-extraction substrate.

The paper preprocesses every page with third-party IE services (AlchemyAPI,
GATE, OpenCalais, SemanticHacker, Lucene).  This package implements the
same capabilities from scratch: tokenization, dictionary-based named-entity
recognition, concept spotting with weighted concept vectors, and TF-IDF
document vectors — all from one read of each page.  Similarity functions consume the resulting
:class:`~repro.extraction.features.PageFeatures`, never raw pages —
matching the paper's architecture.
"""

from repro.extraction.tokenizer import sentences, tokenize
from repro.extraction.stopwords import STOPWORDS, is_stopword
from repro.extraction.ner import DictionaryNer, NerResult, PersonMention
from repro.extraction.concepts import ConceptExtractor
from repro.extraction.tfidf import TfidfVectorizer
from repro.extraction.features import BlockFeatures, PageFeatures
from repro.extraction.pipeline import BlockContext, ExtractionPipeline

__all__ = [
    "tokenize",
    "sentences",
    "STOPWORDS",
    "is_stopword",
    "DictionaryNer",
    "NerResult",
    "PersonMention",
    "ConceptExtractor",
    "TfidfVectorizer",
    "PageFeatures",
    "BlockFeatures",
    "BlockContext",
    "ExtractionPipeline",
]
