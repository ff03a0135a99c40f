"""The paper's ten similarity functions (Table I).

====  ==================================  ============================
Fn    Feature                             Measure
====  ==================================  ============================
F1    Weighted concept vector             Cosine similarity
F2    URL of the page                     String similarity
F3    Most frequent name on the page      String similarity
F4    Concepts vector                     Number of overlapping concepts
F5    Organization entities on the page   Number of overlapping orgs
F6    Other person names on the page      Number of overlapping persons
F7    Name closest to the search keyword  String similarity
F8    TF-IDF words vector                 Cosine similarity
F9    TF-IDF words vector                 Pearson correlation
F10   TF-IDF words vector                 Extended Jaccard
====  ==================================  ============================

Overlap counts (F4–F6) are normalized into [0, 1] with the overlap
coefficient so all functions share the value space the region estimation
partitions.
"""

from __future__ import annotations

from repro.extraction.features import PageFeatures
from repro.folds import left_sum
from repro.similarity.base import PairScorer, SimilarityFunction
from repro.similarity.measures import (
    cosine,
    extended_jaccard,
    overlap_coefficient,
    pearson_from_moments,
    pearson_similarity,
)
from repro.similarity.strings import name_similarity, normalized_edit_similarity
from repro.similarity.urls import domain_similarity, parse_url, url_similarity
from repro.similarity.vectors import dot, norm, norm_squared


def _f1(left: PageFeatures, right: PageFeatures) -> float:
    return cosine(left.concept_vector, right.concept_vector)


def _f2(left: PageFeatures, right: PageFeatures) -> float:
    return url_similarity(left.url, right.url)


def _f3(left: PageFeatures, right: PageFeatures) -> float:
    return name_similarity(left.most_frequent_name, right.most_frequent_name)


def _f4(left: PageFeatures, right: PageFeatures) -> float:
    return overlap_coefficient(left.concept_set, right.concept_set)


def _f5(left: PageFeatures, right: PageFeatures) -> float:
    return overlap_coefficient(left.organizations, right.organizations)


def _f6(left: PageFeatures, right: PageFeatures) -> float:
    return overlap_coefficient(left.other_persons, right.other_persons)


def _f7(left: PageFeatures, right: PageFeatures) -> float:
    return name_similarity(left.closest_name_to_query, right.closest_name_to_query)


def _f8(left: PageFeatures, right: PageFeatures) -> float:
    return cosine(left.tfidf, right.tfidf)


def _f9(left: PageFeatures, right: PageFeatures) -> float:
    return pearson_similarity(left.tfidf, right.tfidf)


def _f10(left: PageFeatures, right: PageFeatures) -> float:
    return extended_jaccard(left.tfidf, right.tfidf)


# -- prepared scorers ------------------------------------------------------
#
# A preparer (see repro.similarity.base.Preparer) specializes a function to
# one block: per-page inputs that the naive per-pair scorers re-derive on
# every call (vector norms, parsed URLs, key sets) are computed once per
# page, and string comparisons whose operands repeat across pairs are
# memoized by operand value.  Every preparer is bit-identical to its plain
# scorer — same arithmetic on identically computed inputs — which the
# runtime engine's determinism tests enforce.


def _prepared_cosine(vectors: dict[str, dict[str, float]]) -> PairScorer:
    """Cosine with per-page norms (identical floats: same norm per page)."""
    norms = {doc_id: norm(vector) for doc_id, vector in vectors.items()}

    def scorer(left: PageFeatures, right: PageFeatures) -> float:
        left_vector = vectors[left.doc_id]
        right_vector = vectors[right.doc_id]
        if not left_vector or not right_vector:
            return 0.0
        denominator = norms[left.doc_id] * norms[right.doc_id]
        if denominator == 0.0:
            return 0.0
        value = dot(left_vector, right_vector) / denominator
        return min(1.0, max(0.0, value))

    return scorer


def _prepare_f1(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_cosine(
        {doc_id: page.concept_vector for doc_id, page in features.items()})


def _prepare_f2(features: dict[str, PageFeatures]) -> PairScorer:
    """URL similarity with per-page parsing and a domain-pair memo.

    Pages cluster on a few dozen domains, so the edit-distance fallback of
    :func:`~repro.similarity.urls.domain_similarity` repeats the same
    operand pairs hundreds of times per block; paths are page-unique and
    stay per-pair.
    """
    parsed = {doc_id: parse_url(page.url) if page.url else None
              for doc_id, page in features.items()}
    domain_scores: dict[tuple[str, str], float] = {}

    def scorer(left: PageFeatures, right: PageFeatures) -> float:
        left_parsed = parsed[left.doc_id]
        right_parsed = parsed[right.doc_id]
        if left_parsed is None or right_parsed is None:
            return 0.0
        key = (left_parsed.domain, right_parsed.domain)
        domain_score = domain_scores.get(key)
        if domain_score is None:
            domain_score = domain_similarity(*key)
            domain_scores[key] = domain_score
        path_score = normalized_edit_similarity(left_parsed.path,
                                                right_parsed.path)
        return 0.8 * domain_score + (1.0 - 0.8) * path_score

    return scorer


def _prepared_name_memo(names: dict[str, str]) -> PairScorer:
    """Name similarity memoized by operand pair (names repeat per block)."""
    scores: dict[tuple[str, str], float] = {}

    def scorer(left: PageFeatures, right: PageFeatures) -> float:
        key = (names[left.doc_id], names[right.doc_id])
        value = scores.get(key)
        if value is None:
            value = name_similarity(*key)
            scores[key] = value
        return value

    return scorer


def _prepare_f3(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_name_memo(
        {doc_id: page.most_frequent_name for doc_id, page in features.items()})


def _prepared_overlap(sets: dict[str, set]) -> PairScorer:
    """Overlap coefficient over per-page precomputed sets."""

    def scorer(left: PageFeatures, right: PageFeatures) -> float:
        left_set = sets[left.doc_id]
        right_set = sets[right.doc_id]
        if not left_set or not right_set:
            return 0.0
        intersection = len(left_set & right_set)
        return intersection / min(len(left_set), len(right_set))

    return scorer


def _prepare_f4(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_overlap(
        {doc_id: set(page.concept_set) for doc_id, page in features.items()})


def _prepare_f5(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_overlap(
        {doc_id: set(page.organizations) for doc_id, page in features.items()})


def _prepare_f6(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_overlap(
        {doc_id: set(page.other_persons) for doc_id, page in features.items()})


def _prepare_f7(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_name_memo(
        {doc_id: page.closest_name_to_query
         for doc_id, page in features.items()})


def _prepare_f8(features: dict[str, PageFeatures]) -> PairScorer:
    return _prepared_cosine(
        {doc_id: page.tfidf for doc_id, page in features.items()})


def _prepare_f9(features: dict[str, PageFeatures]) -> PairScorer:
    """Pearson with per-page key sets, value sums and squared norms.

    Per pair, only the sparse dot product and the union dimension remain
    to compute; all other moments are per-page quantities derived once
    with the same scalar helpers the plain scorer uses.  The arithmetic
    itself is :func:`~repro.similarity.measures.pearson_from_moments` —
    the shared expression sequence that keeps plain, prepared and
    vectorized scoring bit-identical.
    """
    vectors = {doc_id: page.tfidf for doc_id, page in features.items()}
    key_sets = {doc_id: set(vector) for doc_id, vector in vectors.items()}
    sums = {doc_id: left_sum(vector.values())
            for doc_id, vector in vectors.items()}
    squares = {doc_id: norm_squared(vector)
               for doc_id, vector in vectors.items()}

    def scorer(left: PageFeatures, right: PageFeatures) -> float:
        left_vector = vectors[left.doc_id]
        right_vector = vectors[right.doc_id]
        if not left_vector or not right_vector:
            return 0.0
        left_keys = key_sets[left.doc_id]
        right_keys = key_sets[right.doc_id]
        dimension = (len(left_keys) + len(right_keys)
                     - len(left_keys & right_keys))
        if dimension < 2:
            return 0.0
        return pearson_from_moments(
            dot(left_vector, right_vector),
            sums[left.doc_id], sums[right.doc_id],
            squares[left.doc_id], squares[right.doc_id],
            dimension)

    return scorer


def _prepare_f10(features: dict[str, PageFeatures]) -> PairScorer:
    vectors = {doc_id: page.tfidf for doc_id, page in features.items()}
    squared_norms = {doc_id: norm_squared(vector)
                     for doc_id, vector in vectors.items()}

    def scorer(left: PageFeatures, right: PageFeatures) -> float:
        left_vector = vectors[left.doc_id]
        right_vector = vectors[right.doc_id]
        if not left_vector or not right_vector:
            return 0.0
        product = dot(left_vector, right_vector)
        denominator = (squared_norms[left.doc_id]
                       + squared_norms[right.doc_id] - product)
        if denominator <= 0.0:
            return 0.0
        return min(1.0, max(0.0, product / denominator))

    return scorer


_REGISTRY: dict[str, SimilarityFunction] = {
    "F1": SimilarityFunction("F1", "weighted concept vector", "cosine", _f1,
                             _prepare_f1, reads=frozenset({"concept_vector"})),
    "F2": SimilarityFunction("F2", "page URL", "string similarity", _f2,
                             _prepare_f2, reads=frozenset({"url"})),
    "F3": SimilarityFunction("F3", "most frequent name", "string similarity",
                             _f3, _prepare_f3,
                             reads=frozenset({"most_frequent_name"})),
    "F4": SimilarityFunction("F4", "concept set", "overlap", _f4, _prepare_f4,
                             reads=frozenset({"concept_set"})),
    "F5": SimilarityFunction("F5", "organizations", "overlap", _f5,
                             _prepare_f5, reads=frozenset({"organizations"})),
    "F6": SimilarityFunction("F6", "other person names", "overlap", _f6,
                             _prepare_f6, reads=frozenset({"other_persons"})),
    "F7": SimilarityFunction("F7", "name closest to query", "string similarity",
                             _f7, _prepare_f7,
                             reads=frozenset({"closest_name_to_query"})),
    "F8": SimilarityFunction("F8", "TF-IDF vector", "cosine", _f8, _prepare_f8,
                             reads=frozenset({"tfidf"})),
    "F9": SimilarityFunction("F9", "TF-IDF vector", "Pearson correlation", _f9,
                             _prepare_f9, reads=frozenset({"tfidf"})),
    "F10": SimilarityFunction("F10", "TF-IDF vector", "extended Jaccard", _f10,
                              _prepare_f10, reads=frozenset({"tfidf"})),
}

#: All function names in Table I order.
ALL_FUNCTION_NAMES: tuple[str, ...] = tuple(_REGISTRY)

#: The paper's Table II function subsets.
SUBSET_I4: tuple[str, ...] = ("F4", "F5", "F7", "F9")
SUBSET_I7: tuple[str, ...] = ("F3", "F4", "F5", "F7", "F8", "F9", "F10")
SUBSET_I10: tuple[str, ...] = ALL_FUNCTION_NAMES


def default_functions() -> list[SimilarityFunction]:
    """The full F1–F10 battery, in Table I order."""
    return [_REGISTRY[name] for name in ALL_FUNCTION_NAMES]


def function_by_name(name: str) -> SimilarityFunction:
    """Look up one function by its name.

    Resolves through :data:`repro.core.registry.SIMILARITIES`, which
    bridges the Table I built-ins and the extended battery (F11–F14) on
    first read and also holds anything added with
    :func:`repro.core.registry.register_similarity` — including
    ``replace=True`` overrides of built-ins.  The registry is imported
    lazily because ``repro.core`` imports this module back.

    Raises:
        KeyError: for unknown names.
    """
    from repro.core.registry import SIMILARITIES
    if name in SIMILARITIES:
        return SIMILARITIES.get(name)
    raise KeyError(name)


def functions_subset(names: tuple[str, ...] | list[str]) -> list[SimilarityFunction]:
    """Resolve a list of function names, preserving order."""
    return [function_by_name(name) for name in names]
