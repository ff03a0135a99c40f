"""Sparse-vector primitives.

Feature vectors (TF-IDF, weighted concepts) are sparse ``dict[str, float]``
maps.  These helpers implement the handful of linear-algebra operations the
similarity measures need, always iterating over the smaller operand.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul

from repro.folds import left_sum

SparseVector = dict[str, float]


def dot(left: SparseVector, right: SparseVector) -> float:
    """Inner product of two sparse vectors."""
    if len(left) > len(right):
        left, right = right, left
    return left_sum(map(mul, left.values(),
                        map(right.get, left, repeat(0.0))))


def norm(vector: SparseVector) -> float:
    """Euclidean norm."""
    return math.sqrt(left_sum(map(mul, vector.values(), vector.values())))


def norm_squared(vector: SparseVector) -> float:
    """Squared Euclidean norm (avoids the sqrt when only ratios matter)."""
    return left_sum(map(mul, vector.values(), vector.values()))


def mean(vector: SparseVector, dimension: int) -> float:
    """Mean over an explicit ``dimension``-sized space (implicit zeros count)."""
    if dimension <= 0:
        raise ValueError("dimension must be positive")
    return left_sum(vector.values()) / dimension


def l2_normalize(vector: SparseVector) -> SparseVector:
    """Return the unit-length copy of ``vector`` (empty stays empty)."""
    length = norm(vector)
    if length == 0.0:
        return {}
    return {key: value / length for key, value in vector.items()}
