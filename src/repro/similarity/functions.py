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
from repro.similarity.base import SimilarityFunction
from repro.similarity.measures import (
    cosine,
    extended_jaccard,
    overlap_coefficient,
    pearson_similarity,
)
from repro.similarity.strings import name_similarity
from repro.similarity.urls import url_similarity


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


_REGISTRY: dict[str, SimilarityFunction] = {
    "F1": SimilarityFunction("F1", "weighted concept vector", "cosine", _f1,
                             reads=frozenset({"concept_vector"})),
    "F2": SimilarityFunction("F2", "page URL", "string similarity", _f2,
                             reads=frozenset({"url"})),
    "F3": SimilarityFunction("F3", "most frequent name", "string similarity",
                             _f3, reads=frozenset({"most_frequent_name"})),
    "F4": SimilarityFunction("F4", "concept set", "overlap", _f4,
                             reads=frozenset({"concept_set"})),
    "F5": SimilarityFunction("F5", "organizations", "overlap", _f5,
                             reads=frozenset({"organizations"})),
    "F6": SimilarityFunction("F6", "other person names", "overlap", _f6,
                             reads=frozenset({"other_persons"})),
    "F7": SimilarityFunction("F7", "name closest to query", "string similarity",
                             _f7, reads=frozenset({"closest_name_to_query"})),
    "F8": SimilarityFunction("F8", "TF-IDF vector", "cosine", _f8,
                             reads=frozenset({"tfidf"})),
    "F9": SimilarityFunction("F9", "TF-IDF vector", "Pearson correlation", _f9,
                             reads=frozenset({"tfidf"})),
    "F10": SimilarityFunction("F10", "TF-IDF vector", "extended Jaccard", _f10,
                              reads=frozenset({"tfidf"})),
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
