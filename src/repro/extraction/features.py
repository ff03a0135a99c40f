"""The extracted feature bundle consumed by similarity functions.

Table I of the paper compares pages on: weighted concept vectors, page
URLs, the most frequent name on the page, raw concept sets, organization
entities, co-occurring person names, the name closest to the search
keyword, and TF-IDF word vectors.  :class:`PageFeatures` carries exactly
those fields.

A resolve pass reads few of them — under best-graph selection the one
feature its chosen function compares — so extraction can be *narrowed*
to a read set (:meth:`~repro.extraction.pipeline.ExtractionPipeline.
extract_block`'s ``reads``).  The fields come in the groups one
extractor fills together (:data:`NER_FIELDS`, :data:`CONCEPT_FIELDS`,
:data:`TFIDF_FIELDS`; ``url`` is copied from the page), and a narrowed
bundle records which it holds in :attr:`PageFeatures.reads`.

:meth:`~repro.extraction.pipeline.ExtractionPipeline.extract_block`
returns a :class:`BlockFeatures`: the bundles by doc id, plus the
TF-IDF block pass's flat rows when that pass ran.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.extraction.tfidf import TfidfRows

#: Fields the dictionary NER (plus name ranking) fills from a page's tokens.
NER_FIELDS = frozenset({"most_frequent_name", "closest_name_to_query",
                        "organizations", "other_persons", "locations"})
#: Fields the concept spotter fills from the lower-cased tokens.
CONCEPT_FIELDS = frozenset({"concept_vector", "concept_set"})
#: Fields weighed from the block's running term statistics.
TFIDF_FIELDS = frozenset({"tfidf"})


@dataclass
class PageFeatures:
    """All features extracted from one web page.

    A bundle extracted for a read set is valid for exactly the fields
    ``reads`` names: every other field holds its empty default, which a
    similarity function would score as "no evidence".  Scoring therefore
    checks :meth:`covers` first and raises rather than return zeros.

    Attributes:
        doc_id: the page's identifier.
        url: full page URL (feature of F2).
        most_frequent_name: dominant person-name surface form (F3), empty
            string when no person name was found.
        closest_name_to_query: extracted name most string-similar to the
            search keyword (F7), empty string when none was found.
        concept_vector: weighted concept vector (F1).
        concept_set: distinct extracted concepts (F4).
        organizations: organization mention counts (F5).
        other_persons: person names on the page *excluding* the query
            person's own mentions (F6).
        locations: location mention counts (auxiliary).
        tfidf: TF-IDF body vector (F8, F9, F10).
        n_tokens: page length in tokens (diagnostics); 0 when no
            extractor that reads tokens ran.
        reads: the fields this bundle was extracted for — whole
            extractor groups, see the module docstring; ``None`` (the
            default, and what hand-built bundles are) means all of them.
    """

    doc_id: str
    url: str = ""
    most_frequent_name: str = ""
    closest_name_to_query: str = ""
    concept_vector: dict[str, float] = field(default_factory=dict)
    concept_set: frozenset[str] = frozenset()
    organizations: Counter = field(default_factory=Counter)
    other_persons: Counter = field(default_factory=Counter)
    locations: Counter = field(default_factory=Counter)
    tfidf: dict[str, float] = field(default_factory=dict)
    n_tokens: int = 0
    reads: frozenset[str] | None = None

    def covers(self, fields: frozenset[str] | None) -> bool:
        """Whether this bundle holds every field of ``fields`` (``None``:
        all of them)."""
        return self.reads is None or (fields is not None
                                      and fields <= self.reads)

    def has_feature(self, feature: str) -> bool:
        """True when the named feature carries any evidence on this page."""
        value = getattr(self, feature)
        if isinstance(value, str):
            return bool(value)
        return len(value) > 0


class BlockFeatures(dict):
    """``doc_id -> PageFeatures`` of one extracted block, and the rows
    its TF-IDF vectors were made from.

    A plain mapping to every reader.  ``tfidf_rows`` is the
    :class:`~repro.extraction.tfidf.TfidfRows` of the block's TF-IDF
    pass (``None``: the vectors were weighed page by page, or not at
    all), so a scorer can stack the block's TF-IDF family from arrays
    instead of walking the dicts.  The rows describe the dicts the pass
    made, not the mapping: a reader uses them only for pages whose
    ``tfidf`` is one of those very dicts, so a page replaced or added
    since is walked as usual.

    The rows live as long as the mapping, never on a
    :class:`PageFeatures`, and do not travel: a copy or a pickle of the
    mapping is a plain ``dict``.
    """

    __slots__ = ("tfidf_rows",)

    def __init__(self, features=(), tfidf_rows: "TfidfRows | None" = None):
        super().__init__(features)
        self.tfidf_rows = tfidf_rows

    def __reduce__(self):
        return dict, (dict(self),)
