"""Vector and set similarity measures of the paper's Table I.

All measures return values in [0, 1].  Pairs where either side carries no
evidence (empty vector / empty set) score 0.0: the paper treats "missing or
incomplete information" as one cause of low similarity, and the
region-based accuracy estimation then learns how trustworthy such low
values are.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Set

from repro.similarity.vectors import SparseVector, dot, norm, norm_squared


def cosine(left: SparseVector, right: SparseVector) -> float:
    """Cosine similarity; 0.0 when either vector is empty.

    For non-negative vectors (our TF-IDF and concept weights) the value is
    in [0, 1]; negative components are clamped at 0.
    """
    if not left or not right:
        return 0.0
    denominator = norm(left) * norm(right)
    if denominator == 0.0:
        return 0.0
    value = dot(left, right) / denominator
    return min(1.0, max(0.0, value))


def pearson_similarity(left: SparseVector, right: SparseVector) -> float:
    """Pearson correlation over the union support, rescaled to [0, 1].

    The correlation ``r`` in [-1, 1] is mapped to ``(r + 1) / 2``.  Pairs
    with no evidence or non-positive computed variance on either side
    score 0.0.

    Computed with the expansion over the union support

    .. math::

        \\mathrm{cov} = \\Sigma lr - \\bar r S_l - \\bar l S_r
                        + d\\,\\bar l\\bar r

    (and the matching variance expansions), whose only elementwise fold
    is the sparse dot product — a canonical operation sequence the
    vectorized scoring backend replays exactly, keeping both backends
    bit-identical.
    """
    if not left or not right:
        return 0.0
    dimension = len(set(left) | set(right))
    if dimension < 2:
        return 0.0
    product = dot(left, right)
    sum_left = sum(left.values())
    sum_right = sum(right.values())
    squared_left = norm_squared(left)
    squared_right = norm_squared(right)
    return pearson_from_moments(product, sum_left, sum_right, squared_left,
                                squared_right, dimension)


def pearson_from_moments(product: float, sum_left: float, sum_right: float,
                         squared_left: float, squared_right: float,
                         dimension: int) -> float:
    """Rescaled Pearson correlation from per-pair moments.

    The reference definition of the arithmetic shared by the plain
    scorer, the prepared block scorer
    (:func:`repro.similarity.functions._prepare_f9`), and — operation
    for operation, applied elementwise — the vectorized backend kernel
    (``_pearson_matrix`` in :mod:`repro.similarity.batch`).
    Bit-identity across all of them rests on evaluating exactly this
    expression sequence: **any change here must be mirrored in that
    kernel in the same commit** (the cross-backend parity suite and the
    golden fixtures fail loudly on any divergence, so an unsynchronized
    edit cannot land green).
    ``product`` is the pair's sparse dot product; the sums and squared
    norms are per-vector moments; ``dimension`` is the union support
    size.

    Numerical note: this is the one-pass "computational" expansion of
    the two-pass deviation form.  For this pipeline's inputs —
    L1/L2-normalized non-negative weights — the relative cancellation
    error is negligible, but for adversarial inputs (near-constant
    vectors of large magnitude) the computed variance can cancel to
    ``<= 0`` where the deviation form would return a tiny accurate
    value; such pairs score 0.0 via the guard below.  Center such data
    before scoring if that matters to you.
    """
    mean_left = sum_left / dimension
    mean_right = sum_right / dimension
    covariance = ((product - mean_right * sum_left)
                  - mean_left * sum_right) \
        + dimension * (mean_left * mean_right)
    variance_left = ((squared_left - (2.0 * mean_left) * sum_left)
                     + dimension * (mean_left * mean_left))
    variance_right = ((squared_right - (2.0 * mean_right) * sum_right)
                      + dimension * (mean_right * mean_right))
    if variance_left <= 0.0 or variance_right <= 0.0:
        return 0.0
    correlation = covariance / (math.sqrt(variance_left)
                                * math.sqrt(variance_right))
    correlation = min(1.0, max(-1.0, correlation))
    return (correlation + 1.0) / 2.0


def extended_jaccard(left: SparseVector, right: SparseVector) -> float:
    """Extended (Tanimoto) Jaccard: ``x·y / (|x|² + |y|² − x·y)``.

    Coincides with set Jaccard for binary vectors; 0.0 on empty input.
    """
    if not left or not right:
        return 0.0
    product = dot(left, right)
    denominator = norm_squared(left) + norm_squared(right) - product
    if denominator <= 0.0:
        return 0.0
    return min(1.0, max(0.0, product / denominator))


def overlap_coefficient(left: Set | Collection, right: Set | Collection) -> float:
    """Normalized overlap count: ``|A ∩ B| / min(|A|, |B|)``.

    The paper's F4–F6 use "number of overlapping" items as the measure;
    the overlap coefficient is that count normalized into [0, 1] by the
    smaller set, so a page mentioning few entities is not penalized for
    brevity.  Scores 0.0 when either side is empty.
    """
    left_set = set(left)
    right_set = set(right)
    if not left_set or not right_set:
        return 0.0
    intersection = len(left_set & right_set)
    return intersection / min(len(left_set), len(right_set))


def jaccard(left: Set | Collection, right: Set | Collection) -> float:
    """Plain set Jaccard ``|A ∩ B| / |A ∪ B|`` (0.0 on empty input)."""
    left_set = set(left)
    right_set = set(right)
    if not left_set or not right_set:
        return 0.0
    return len(left_set & right_set) / len(left_set | right_set)


def dice(left: Set | Collection, right: Set | Collection) -> float:
    """Dice coefficient ``2|A ∩ B| / (|A| + |B|)`` (0.0 on empty input)."""
    left_set = set(left)
    right_set = set(right)
    if not left_set or not right_set:
        return 0.0
    return 2.0 * len(left_set & right_set) / (len(left_set) + len(right_set))
