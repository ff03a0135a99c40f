"""Seeded one-dimensional k-means.

Used by the paper's second region-construction method (§IV-A): cluster the
training similarity values and let each cluster head define a region.  One
dimension admits a simple, fully deterministic Lloyd iteration with
quantile initialization; ties and empty clusters are handled explicitly so
repeated runs are bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro.folds import left_sum


@dataclass(frozen=True)
class KMeans1D:
    """A fitted 1-D k-means model.

    Attributes:
        centers: cluster heads in ascending order.
        boundaries: midpoints between consecutive centers; value ``v``
            belongs to cluster ``i`` iff
            ``boundaries[i-1] <= v < boundaries[i]`` (with open ends).
    """

    centers: tuple[float, ...]
    boundaries: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.centers)

    def assign(self, value: float) -> int:
        """Index of the cluster ``value`` falls into (binary search)."""
        return bisect_right(self.boundaries, value)


def kmeans_1d(values: Sequence[float], k: int, max_iterations: int = 100) -> KMeans1D:
    """Fit 1-D k-means with quantile initialization.

    Args:
        values: the sample to cluster (order irrelevant).
        k: requested cluster count; silently reduced to the number of
            distinct values when the sample has fewer.
        max_iterations: Lloyd iteration cap (convergence is typical well
            before this).

    Raises:
        ValueError: for an empty sample or non-positive ``k``.
    """
    if not values:
        raise ValueError("kmeans_1d requires a non-empty sample")
    if k <= 0:
        raise ValueError("k must be positive")

    data = sorted(values)
    distinct = sorted(set(data))
    k = min(k, len(distinct))

    # Quantile initialization: spread initial centers over the sorted data.
    n_values = len(data)
    centers = [data[min(n_values - 1, int((i + 0.5) * n_values / k))] for i in range(k)]
    centers = _dedupe_ascending(centers, distinct)

    for _ in range(max_iterations):
        boundaries = _midpoints(centers)
        # Assign: data is sorted, so clusters are contiguous runs; run i
        # ends at the first value at or past boundary i (never before
        # run i - 1 ends).  Each run's sum is a sequential left fold.
        edges = [0]
        for boundary in boundaries:
            edges.append(max(edges[-1], bisect_left(data, boundary)))
        edges.append(n_values)
        new_centers = [
            left_sum(data[start:end]) / (end - start)
            if end > start else center
            for start, end, center in zip(edges, edges[1:], centers)
        ]
        if new_centers == centers:
            break
        centers = new_centers

    centers_tuple = tuple(centers)
    return KMeans1D(centers=centers_tuple, boundaries=tuple(_midpoints(centers)))


def _midpoints(centers: Sequence[float]) -> list[float]:
    return [(centers[i] + centers[i + 1]) / 2.0 for i in range(len(centers) - 1)]


def _dedupe_ascending(centers: list[float], distinct: list[float]) -> list[float]:
    """Replace duplicate initial centers with unused distinct values."""
    used = set()
    unused = [value for value in distinct]
    result = []
    for center in centers:
        if center in used:
            replacement = next((v for v in unused if v not in used), None)
            if replacement is None:
                continue
            center = replacement
        used.add(center)
        result.append(center)
    return sorted(result)
