"""B-cubed precision / recall / F.

The official WePS-2 task measure (Bagga & Baldwin's B³), included as an
extension beyond the paper's reported metrics: per-item precision is the
fraction of the item's predicted cluster sharing its true class, per-item
recall the fraction of its true class captured by its predicted cluster;
both are averaged over items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.metrics.clusterings import Clustering, check_same_universe


@dataclass(frozen=True)
class BCubedScores:
    precision: float
    recall: float

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def bcubed_scores(predicted: Clustering, truth: Clustering) -> BCubedScores:
    """Item-averaged B-cubed precision and recall.

    Raises:
        ValueError: if the clusterings cover different items.
    """
    check_same_universe(predicted, truth)
    n_items = predicted.n_items()
    if n_items == 0:
        return BCubedScores(precision=1.0, recall=1.0)

    # ``items`` is a frozenset of strings, iterated in hash order: an
    # exactly rounded sum is the same in every process, a running float
    # sum is not.
    precisions = []
    recalls = []
    for item in predicted.items:
        predicted_cluster = predicted.cluster_of(item)
        true_cluster = truth.cluster_of(item)
        correct = len(predicted_cluster & true_cluster)
        precisions.append(correct / len(predicted_cluster))
        recalls.append(correct / len(true_cluster))
    return BCubedScores(
        precision=math.fsum(precisions) / n_items,
        recall=math.fsum(recalls) / n_items,
    )
