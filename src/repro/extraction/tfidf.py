"""TF-IDF document vectorization (Lucene substitute).

Implements the classic ``ltc`` weighting: logarithmic term frequency,
smoothed inverse document frequency, cosine (L2) normalization.  Vectors
are sparse ``dict[str, float]`` — page vocabularies are small relative to
the collection vocabulary, and the similarity layer
(:mod:`repro.similarity.vectors`) operates on sparse dicts throughout.

Documents that join together (:meth:`TfidfVectorizer.add_documents`)
are weighed one by one (:meth:`TfidfVectorizer.weigh`, the reference)
or, from :data:`BLOCK_PASS_MIN_DOCUMENTS` of them where numpy is
installed, in one columnar pass that gives the same floats.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain, compress, count, repeat
from operator import le, mul, truediv

from repro.extraction.tokenizer import lower_all
from repro.folds import left_sum

try:
    import numpy as np
except ImportError:  # numpy is optional: every call weighs per document
    np = None

#: A call that adds at least this many documents is weighed in one numpy
#: pass; fewer are weighed one by one, where the pass's fixed cost (a
#: dozen array calls) exceeds the per-document Python work it replaces.
#: Measured on 163-token pages (Python 3.11, numpy 2.4, 2-core host), the
#: pass costs 1.6x the per-document path at 2 documents, breaks even at
#: about 8, and costs 0.87-0.90x at 12, 0.83x at 16 and 0.66-0.72x at 52.
#: 16 keeps a clear margin, and keeps served single pages and small
#: warm-up batches on the per-document path.
BLOCK_PASS_MIN_DOCUMENTS = 16


def weighs_in_block(n_documents: int) -> bool:
    """Whether :meth:`TfidfVectorizer.add_documents` weighs a call of
    ``n_documents`` in one numpy pass."""
    return np is not None and n_documents >= BLOCK_PASS_MIN_DOCUMENTS


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


def _table(values: dict, keys):
    """``values[key]`` for every distinct key in the integer array
    ``keys``, as an array indexed by key (other slots unset)."""
    present = np.unique(keys).tolist()
    table = np.empty(present[-1] + 1)
    table[present] = list(map(values.__getitem__, present))
    return table


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

    def add_documents(self, documents: Sequence[list[str]],
                      ) -> list[dict[str, float]]:
        """Add ``documents`` (lower-cased tokens each) to the corpus, then
        weigh each of them over the grown statistics.

        Every document joins before any is weighed, so each one's IDF
        counts all of them.  The same vectors as :meth:`observe` on each
        :meth:`count_terms` and then :meth:`weigh` on each, which is what
        a call of fewer than :data:`BLOCK_PASS_MIN_DOCUMENTS` does.
        """
        if weighs_in_block(len(documents)):
            return self._add_block(documents)
        term_counts = list(map(self.count_terms, documents))
        for counts in term_counts:
            self.observe(counts)
        return list(map(self.weigh, term_counts))

    def _add_block(self, documents: Sequence[list[str]],
                   ) -> list[dict[str, float]]:
        """:meth:`add_documents` as one columnar numpy pass.

        The kept terms are numbered in sorted order, so (document, term)
        codes sort into each document's term-sorted entries.  Weights
        are products of ``math.log`` tables (``np.log`` may differ in
        the last bit), and each norm folds the squares left to right
        with ``np.add.accumulate`` over zero-padded rows: the floats
        :meth:`weigh` computes, one by one.
        """
        tokens = list(chain.from_iterable(documents))
        distinct = set(tokens) - self.stopwords
        terms = sorted(compress(distinct, map(
            le, repeat(self.min_token_length), map(len, distinct))))
        n_terms, n_documents = len(terms), len(documents)
        numbers = dict(zip(terms, count()))
        codes = np.fromiter(map(numbers.get, tokens, repeat(n_terms)),
                            dtype=np.int64, count=len(tokens))
        owners = np.repeat(np.arange(n_documents, dtype=np.int64),
                           np.fromiter(map(len, documents), dtype=np.int64,
                                       count=n_documents))
        kept = codes < n_terms
        entries, term_counts = np.unique(
            owners[kept] * n_terms + codes[kept], return_counts=True)
        owners, term_ids = np.divmod(entries, n_terms or 1)

        frequencies = self._document_frequency
        totals = np.fromiter(map(frequencies.get, terms, repeat(0)),
                             dtype=np.int64, count=n_terms)
        totals += np.bincount(term_ids, minlength=n_terms)
        # New terms enter in sorted, not first-seen, order; nothing reads
        # the table's order, only its counts.
        dict.update(frequencies, zip(terms, totals.tolist()))
        self._n_documents += n_documents
        self._idf = _IdfByFrequency(self._n_documents)
        if not n_terms:
            return [{} for _ in documents]

        weights = (_table(self._log_tf, term_counts)[term_counts]
                   * _table(self._idf, totals)[totals][term_ids])
        sizes = np.bincount(owners, minlength=n_documents)
        ends = np.cumsum(sizes)
        squares = np.zeros((n_documents, int(sizes.max())))
        squares[owners, np.arange(len(entries)) - (ends - sizes)[owners]] = (
            weights * weights)
        norms = np.sqrt(np.add.accumulate(squares, axis=1)[:, -1])
        keys = np.array(terms, dtype=object)[term_ids].tolist()
        values = (weights / norms[owners]).tolist()
        vectors, start = [], 0
        for end in ends.tolist():
            vectors.append(dict(zip(keys[start:end], values[start:end])))
            start = end
        return vectors

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
