"""Value-space regions (§IV-A).

The paper partitions the similarity value space [0, 1] into regions and
estimates accuracy per region.  Two constructions are studied:

1. equal-width sub-intervals [0, 0.1), [0.1, 0.2), …, [0.9, 1];
2. 1-D k-means clusters of the training similarity values, each cluster
   head defining a region.

``ThresholdRegions`` additionally models the plain threshold rule as a
two-region partition, which unifies the decision criteria: every criterion
is "regions + per-region accuracy" (see :mod:`repro.core.decisions`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Collection, Iterable, Sequence
from functools import partial
from itertools import repeat

from repro.ml.kmeans import KMeans1D, kmeans_1d


def _clamped(values: Collection[float]) -> Collection[float]:
    """``values`` clamped into [0, 1] — the input itself when none stray."""
    if values and (min(values) < 0.0 or max(values) > 1.0):
        return [min(1.0, max(0.0, value)) for value in values]
    return values


class Regions(ABC):
    """A partition of the similarity value space [0, 1]."""

    @property
    @abstractmethod
    def n_regions(self) -> int:
        """Number of regions."""

    @abstractmethod
    def assign(self, value: float) -> int:
        """Region index of ``value`` (values outside [0, 1] are clamped)."""

    def assign_all(self, values: Collection[float]) -> Iterable[int]:
        """Region index of every value, in order (a one-shot iterable).

        The bulk form of :meth:`assign` that decision layers sweep whole
        similarity graphs with.  The built-in schemes override it with
        loops that stay inside the interpreter's C code; this default
        serves registered custom schemes through :meth:`assign`, once per
        distinct value.
        """
        memo = {value: self.assign(value) for value in set(values)}
        return map(memo.__getitem__, values)

    @abstractmethod
    def bounds(self, region: int) -> tuple[float, float]:
        """[low, high) interval of one region (for reports and plots)."""

    def describe(self) -> list[tuple[float, float]]:
        """Bounds of every region in index order."""
        return [self.bounds(region) for region in range(self.n_regions)]

    @abstractmethod
    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot, reloadable by :func:`regions_from_dict`."""


class EqualWidthRegions(Regions):
    """Fixed equal-width sub-intervals of [0, 1].

    Args:
        n_bins: number of intervals (the paper uses 10).

    Raises:
        ValueError: for non-positive ``n_bins``.
    """

    def __init__(self, n_bins: int = 10):
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = n_bins

    @property
    def n_regions(self) -> int:
        return self.n_bins

    def assign(self, value: float) -> int:
        value = min(1.0, max(0.0, value))
        index = int(value * self.n_bins)
        return min(index, self.n_bins - 1)  # value 1.0 joins the last bin

    def assign_all(self, values: Collection[float]) -> Iterable[int]:
        # int(v * n) as in assign (comparing v against k / n would round
        # differently); index n, reached by 1.0 alone, joins the last bin.
        bins = (*range(self.n_bins), self.n_bins - 1)
        scaled = map(float(self.n_bins).__mul__, _clamped(values))
        return map(bins.__getitem__, map(int, scaled))

    def bounds(self, region: int) -> tuple[float, float]:
        width = 1.0 / self.n_bins
        return (region * width, 1.0 if region == self.n_bins - 1 else (region + 1) * width)

    def to_dict(self) -> dict[str, object]:
        return {"type": "equal_width", "n_bins": self.n_bins}


class KMeansRegions(Regions):
    """Regions from 1-D k-means over training similarity values.

    Args:
        values: training similarity values to cluster.
        k: requested region count (the paper's Fig. 1 uses ~10); reduced
            automatically when the sample has fewer distinct values.

    Raises:
        ValueError: for an empty training sample.
    """

    def __init__(self, values: Sequence[float], k: int = 10):
        self._model = kmeans_1d(values, k)

    @classmethod
    def from_model(cls, model: KMeans1D) -> "KMeansRegions":
        """Wrap an already-fitted model (model deserialization path)."""
        regions = cls.__new__(cls)
        regions._model = model
        return regions

    @property
    def n_regions(self) -> int:
        return self._model.k

    @property
    def centers(self) -> tuple[float, ...]:
        """The cluster heads representing each region."""
        return self._model.centers

    @property
    def boundaries(self) -> tuple[float, ...]:
        """Ascending region boundaries (midpoints between the heads)."""
        return self._model.boundaries

    def assign(self, value: float) -> int:
        return self._model.assign(min(1.0, max(0.0, value)))

    def assign_all(self, values: Collection[float]) -> Iterable[int]:
        return map(partial(bisect_right, self._model.boundaries),
                   _clamped(values))

    def bounds(self, region: int) -> tuple[float, float]:
        boundaries = self._model.boundaries
        low = 0.0 if region == 0 else boundaries[region - 1]
        high = 1.0 if region == self.n_regions - 1 else boundaries[region]
        return (low, high)

    def to_dict(self) -> dict[str, object]:
        return {
            "type": "kmeans",
            "centers": list(self._model.centers),
            "boundaries": list(self._model.boundaries),
        }


class ThresholdRegions(Regions):
    """The two-region partition induced by a decision threshold.

    Region 0 is [0, threshold), region 1 is [threshold, 1].  Thresholds
    above 1.0 ("never link") degenerate to a single region.
    """

    def __init__(self, threshold: float):
        self.threshold = threshold
        self._n_regions = 1 if threshold > 1.0 or threshold <= 0.0 else 2

    @property
    def n_regions(self) -> int:
        return self._n_regions

    def assign(self, value: float) -> int:
        if self._n_regions == 1:
            return 0
        return 1 if value >= self.threshold else 0

    def assign_all(self, values: Collection[float]) -> Iterable[int]:
        if self._n_regions == 1:
            return repeat(0, len(values))
        return map(float(self.threshold).__le__, values)  # False/True: 0/1

    def bounds(self, region: int) -> tuple[float, float]:
        if self._n_regions == 1:
            return (0.0, 1.0)
        return (0.0, self.threshold) if region == 0 else (self.threshold, 1.0)

    def to_dict(self) -> dict[str, object]:
        return {"type": "threshold", "threshold": self.threshold}


def fit_regions(method: str, values: Sequence[float], k: int = 10) -> Regions:
    """Region-scheme factory.

    Args:
        method: ``"equal_width"`` or ``"kmeans"``.
        values: training similarity values (used by k-means only).
        k: bin/cluster count.

    Raises:
        ValueError: for unknown methods.
    """
    if method == "equal_width":
        return EqualWidthRegions(n_bins=k)
    if method == "kmeans":
        return KMeansRegions(values, k=k)
    raise ValueError(f"unknown region method: {method!r}")


def regions_from_dict(payload: dict[str, object]) -> Regions:
    """Rebuild a region scheme saved by :meth:`Regions.to_dict`.

    Raises:
        ValueError: for unknown region types.
    """
    kind = payload.get("type")
    if kind == "equal_width":
        return EqualWidthRegions(n_bins=int(payload["n_bins"]))
    if kind == "kmeans":
        return KMeansRegions.from_model(KMeans1D(
            centers=tuple(float(c) for c in payload["centers"]),
            boundaries=tuple(float(b) for b in payload["boundaries"])))
    if kind == "threshold":
        return ThresholdRegions(float(payload["threshold"]))
    raise ValueError(f"unknown region type: {kind!r}")
