"""Similarity measures and the paper's functions F1–F10.

The building blocks (vector measures, string similarities, URL similarity)
live in their own modules; :mod:`repro.similarity.functions` assembles them
into the ten similarity functions of the paper's Table I, each mapping a
pair of :class:`~repro.extraction.features.PageFeatures` to [0, 1].
:mod:`repro.similarity.backends` scores whole blocks of pairs at once
through pluggable, bit-identical scoring backends (scalar ``python``,
vectorized ``numpy``).
"""

from repro.similarity.backends import (
    BACKENDS,
    ScoringBackend,
    default_backend,
    resolve_backend,
)
from repro.similarity.base import SimilarityFunction
from repro.similarity.measures import (
    cosine,
    extended_jaccard,
    overlap_coefficient,
    pearson_similarity,
)
from repro.similarity.strings import (
    jaro,
    jaro_winkler,
    levenshtein,
    normalized_edit_similarity,
)
from repro.similarity.urls import parse_url, url_similarity
from repro.similarity.extended import (
    EXTENDED_FUNCTION_NAMES,
    SUBSET_I14,
    extended_functions,
    full_battery,
)
from repro.similarity.functions import (
    ALL_FUNCTION_NAMES,
    default_functions,
    function_by_name,
    functions_subset,
)

__all__ = [
    "BACKENDS",
    "ScoringBackend",
    "default_backend",
    "resolve_backend",
    "SimilarityFunction",
    "cosine",
    "pearson_similarity",
    "extended_jaccard",
    "overlap_coefficient",
    "levenshtein",
    "normalized_edit_similarity",
    "jaro",
    "jaro_winkler",
    "parse_url",
    "url_similarity",
    "ALL_FUNCTION_NAMES",
    "default_functions",
    "function_by_name",
    "functions_subset",
    "EXTENDED_FUNCTION_NAMES",
    "SUBSET_I14",
    "extended_functions",
    "full_battery",
]
