"""Optimal-threshold learning (§IV-A).

For each similarity function the paper chooses the threshold that
maximizes the number of correct link decisions on the training sample.
The search is exact: with the sample sorted by value, every distinct
decision boundary is evaluated with prefix sums in O(n log n).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

#: Threshold meaning "never link" (no value in [0, 1] reaches it).
NEVER_LINK = 1.1
#: Threshold meaning "always link".
ALWAYS_LINK = 0.0


@dataclass(frozen=True)
class LearnedThreshold:
    """A fitted decision threshold with its training accuracy.

    The decision rule is ``link iff value >= threshold``.
    """

    threshold: float
    training_accuracy: float
    n_training: int

    def decide(self, value: float) -> bool:
        return value >= self.threshold


def learn_threshold(labeled_values: Sequence[tuple[float, bool]]) -> LearnedThreshold:
    """Fit the accuracy-maximizing threshold on (value, label) pairs.

    Candidate thresholds are 0.0 ("always link"), the midpoints between
    consecutive distinct values, and :data:`NEVER_LINK`.  Ties prefer the
    *higher* threshold (more conservative linking), which matters because
    transitive closure amplifies false links far more than false splits.

    An empty sample yields the conservative ``NEVER_LINK`` rule with
    accuracy 0.0.
    """
    if not labeled_values:
        return LearnedThreshold(threshold=NEVER_LINK, training_accuracy=0.0,
                                n_training=0)

    ordered = sorted(labeled_values)
    values = [value for value, _ in ordered]
    # positives[i]: links among ordered[0..i] (prefix counts).
    positives = list(accumulate(map(int, (label for _, label in ordered))))
    n_total = len(ordered)
    n_positives = positives[-1]
    last = n_total - 1

    # With the boundary just above ordered[i], pairs 0..i are predicted
    # "no link" and the rest "link": (i + 1 - positives[i]) correct
    # negatives plus (n_positives - positives[i]) correct positives.  A
    # boundary cannot separate equal values (score -1).  Below every
    # value all pairs are "link": n_positives correct (ALWAYS_LINK).
    scores = [index + 1 + n_positives - 2 * below
              if index == last or values[index] != values[index + 1] else -1
              for index, below in enumerate(positives)]
    best_correct = max(n_positives, max(scores))
    best_threshold = ALWAYS_LINK
    if best_correct == max(scores):
        # Ties prefer the last (highest) boundary.
        index = last - scores[::-1].index(best_correct)
        if index == last:
            best_threshold = NEVER_LINK
        else:
            value, next_value = values[index], values[index + 1]
            best_threshold = (value + next_value) / 2.0
            if best_threshold <= value:
                # Float rounding collapsed the midpoint onto the lower
                # value (adjacent/denormal floats); the next value
                # itself is the smallest threshold that separates.
                best_threshold = next_value

    return LearnedThreshold(
        threshold=best_threshold,
        training_accuracy=best_correct / n_total,
        n_training=n_total,
    )
