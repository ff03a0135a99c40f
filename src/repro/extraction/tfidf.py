"""TF-IDF document vectorization (Lucene substitute).

Implements the classic ``ltc`` weighting: logarithmic term frequency,
smoothed inverse document frequency, cosine (L2) normalization.  Vectors
are sparse ``dict[str, float]`` — page vocabularies are small relative to
the collection vocabulary, and the similarity layer
(:mod:`repro.similarity.vectors`) operates on sparse dicts throughout.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import mul, truediv

from repro.extraction.tokenizer import lower_all
from repro.folds import left_sum


class _IdfByFrequency(dict):
    """Document frequency -> smoothed IDF at one collection size.

    ``log((1 + N) / (1 + df)) + 1`` depends on the term only through its
    document frequency, so a page needs one logarithm per *distinct*
    frequency; entries are computed on first read.  ``df == 0`` is the
    unseen-term weight.
    """

    def __init__(self, n_documents: int):
        super().__init__()
        self._scale = 1 + n_documents

    def __missing__(self, frequency: int) -> float:
        value = self[frequency] = math.log(self._scale / (1 + frequency)) + 1.0
        return value


class _LogTermFrequency(dict):
    """Term count -> ``1 + log(count)``, computed on first read."""

    def __missing__(self, count: int) -> float:
        value = self[count] = 1.0 + math.log(count)
        return value


class TfidfVectorizer:
    """Running IDF statistics of a corpus; maps documents to vectors.

    The paper computes document vectors per blocking unit (one ambiguous
    name's pages form the comparison universe), so a vectorizer instance is
    typically fit per :class:`~repro.corpus.documents.NameCollection`.

    The statistics are a document-frequency table and a document count,
    so the corpus can also grow one document at a time (:meth:`observe`):
    every weight is a pure function of the running counts, and a
    vectorizer that observed documents one by one weighs exactly like one
    :meth:`fit` on all of them.
    """

    def __init__(self, stopwords: frozenset[str] = frozenset(),
                 min_token_length: int = 2):
        self.stopwords = stopwords
        self.min_token_length = min_token_length
        self._log_tf = _LogTermFrequency()
        self._reset()

    def _reset(self) -> None:
        self._document_frequency: Counter = Counter()
        self._n_documents = 0
        self._idf = _IdfByFrequency(0)

    @property
    def is_fitted(self) -> bool:
        return self._n_documents > 0

    @property
    def n_documents(self) -> int:
        """Documents observed so far."""
        return self._n_documents

    @property
    def vocabulary_size(self) -> int:
        return len(self._document_frequency)

    def count_terms(self, lowered: Iterable[str]) -> Counter:
        """Term frequencies of one document's lower-cased tokens, short
        tokens and stopwords dropped.

        The one filtered count both :meth:`observe` and :meth:`weigh`
        read, so a document is filtered once however often it is used.
        Every token is counted in one pass and then the distinct terms
        are filtered: the same counts, in the same first-seen order, as
        counting the kept tokens.
        """
        stopwords, shortest = self.stopwords, self.min_token_length
        counts = Counter(lowered)
        for term in [term for term in counts
                     if len(term) < shortest or term in stopwords]:
            del counts[term]
        return counts

    def observe(self, term_counts: Counter) -> None:
        """Add one document (its :meth:`count_terms`) to the corpus."""
        self._document_frequency.update(term_counts.keys())
        self._n_documents += 1
        self._idf = _IdfByFrequency(self._n_documents)

    def weigh(self, term_counts: Counter) -> dict[str, float]:
        """L2-normalized ``ltc`` vector of one document's term counts.

        Uses smoothed IDF, ``log((1 + N) / (1 + df)) + 1``, so terms the
        corpus never saw still receive a finite (the maximum) weight.
        """
        if not term_counts:
            return {}
        # Canonical key order: emitting term-sorted dicts fixes the
        # iteration (and therefore float-summation) order of every sparse
        # fold downstream, which is what lets the vectorized scoring
        # backend reproduce the scalar scores bit-for-bit.
        terms = sorted(term_counts)
        weights = list(map(
            mul,
            map(self._log_tf.__getitem__,
                map(term_counts.__getitem__, terms)),
            map(self._idf.__getitem__,
                map(self._document_frequency.get, terms, repeat(0)))))
        norm = math.sqrt(left_sum(map(mul, weights, weights)))
        return dict(zip(terms, map(truediv, weights, repeat(norm))))

    def fit(self, documents: Sequence[list[str]]) -> "TfidfVectorizer":
        """Learn IDF statistics from tokenized documents (any case)."""
        self._reset()
        for tokens in documents:
            self.observe(self.count_terms(lower_all(tokens)))
        return self

    def transform(self, tokens: list[str]) -> dict[str, float]:
        """Map one tokenized document to an L2-normalized TF-IDF vector.

        Terms never seen during :meth:`fit` get the maximum IDF (they are
        maximally discriminative by the smoothing argument).

        Raises:
            RuntimeError: if called before :meth:`fit`.
        """
        if not self.is_fitted:
            raise RuntimeError("TfidfVectorizer.transform called before fit")
        return self.weigh(self.count_terms(lower_all(tokens)))

    def fit_transform(self, documents: Sequence[list[str]]) -> list[dict[str, float]]:
        """Fit on ``documents`` and transform each of them."""
        self.fit(documents)
        return [self.transform(tokens) for tokens in documents]
