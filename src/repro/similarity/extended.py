"""Extended similarity functions beyond the paper's Table I.

§III argues no single function suffices and §VII asks for better ways to
combine *more* evidence.  This module contributes four additional
functions over features the paper extracts but never compares directly:

====  ====================================  ==========================
Fn    Feature                               Measure
====  ====================================  ==========================
F11   Location entities on the page         Number of overlapping locations
F12   Page title words                      Cosine similarity
F13   Combined entity context (orgs ∪       Weighted Jaccard
      persons ∪ locations)
F14   Concept vector                        Extended Jaccard
====  ====================================  ==========================

The extended-battery benchmark checks whether Table II's "more functions
help" trend continues past ten functions.
"""

from __future__ import annotations

from collections import Counter

from repro.extraction.features import PageFeatures
from repro.similarity.base import SimilarityFunction
from repro.similarity.functions import ALL_FUNCTION_NAMES, default_functions
from repro.similarity.measures import (
    cosine,
    extended_jaccard,
    overlap_coefficient,
)


def _f11(left: PageFeatures, right: PageFeatures) -> float:
    return overlap_coefficient(left.locations, right.locations)


def _f12(left: PageFeatures, right: PageFeatures) -> float:
    # PageFeatures does not retain the raw title, but the title tokens are
    # part of the TF-IDF support; approximate title similarity by cosine
    # over the top-weighted terms, which on short web pages are dominated
    # by title/heading vocabulary.
    return cosine(_top_terms(left.tfidf), _top_terms(right.tfidf))


def _top_terms(vector: dict[str, float], k: int = 12) -> dict[str, float]:
    # Key-sorted output: selection is by weight, but the emitted dict
    # iterates in canonical (ascending-key) order so the scalar dot fold
    # matches the vectorized backend bit-for-bit.
    if len(vector) <= k:
        return vector
    top = sorted(vector.items(), key=lambda item: -item[1])[:k]
    return dict(sorted(top))


def _entity_context(features: PageFeatures) -> Counter:
    context: Counter = Counter()
    context.update(features.organizations)
    context.update(features.other_persons)
    context.update(features.locations)
    return context


def _f13(left: PageFeatures, right: PageFeatures) -> float:
    """Weighted Jaccard over the union of all entity mentions."""
    left_context = _entity_context(left)
    right_context = _entity_context(right)
    if not left_context or not right_context:
        return 0.0
    keys = set(left_context) | set(right_context)
    minimum = sum(min(left_context[key], right_context[key]) for key in keys)
    maximum = sum(max(left_context[key], right_context[key]) for key in keys)
    return minimum / maximum if maximum else 0.0


def _f14(left: PageFeatures, right: PageFeatures) -> float:
    return extended_jaccard(left.concept_vector, right.concept_vector)


EXTENDED_REGISTRY: dict[str, SimilarityFunction] = {
    "F11": SimilarityFunction("F11", "locations", "overlap", _f11,
                              reads=frozenset({"locations"})),
    "F12": SimilarityFunction("F12", "top TF-IDF terms", "cosine", _f12,
                              reads=frozenset({"tfidf"})),
    "F13": SimilarityFunction("F13", "entity context", "weighted Jaccard", _f13,
                              reads=frozenset({"organizations",
                                               "other_persons",
                                               "locations"})),
    "F14": SimilarityFunction("F14", "weighted concept vector",
                              "extended Jaccard", _f14,
                              reads=frozenset({"concept_vector"})),
}

#: Names of the extended functions, in order.
EXTENDED_FUNCTION_NAMES: tuple[str, ...] = tuple(EXTENDED_REGISTRY)

#: Table II style label for the full extended battery.
SUBSET_I14: tuple[str, ...] = ALL_FUNCTION_NAMES + EXTENDED_FUNCTION_NAMES


def extended_functions() -> list[SimilarityFunction]:
    """The four extension functions F11–F14."""
    return list(EXTENDED_REGISTRY.values())


def full_battery() -> list[SimilarityFunction]:
    """F1–F10 plus F11–F14."""
    return default_functions() + extended_functions()


def extended_function_by_name(name: str) -> SimilarityFunction:
    """Look up a function across both registries.

    Raises:
        KeyError: for unknown names.
    """
    if name in EXTENDED_REGISTRY:
        return EXTENDED_REGISTRY[name]
    from repro.similarity.functions import function_by_name
    return function_by_name(name)
