"""Per-region accuracy estimation (§IV-A).

For each region the paper estimates, from the training sample, the
fraction of pairs falling in that region that are true links ("accuracy of
link existence").  Values above 0.5 mean the region's majority is "link";
the profile doubles as a per-pair link-probability estimate, which §IV-B
re-uses as edge weights when combining functions.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import eq

from repro.core.regions import Regions, regions_from_dict


@dataclass(frozen=True)
class RegionStats:
    """Training statistics of one region."""

    n_pairs: int
    n_links: int
    accuracy: float  # estimated P(link | value in region)


class RegionAccuracyProfile:
    """Per-region link-existence accuracy learned from a training sample.

    Args:
        regions: the fitted value-space partition.
        labeled_values: training (similarity value, is-link) pairs.
        smoothing: Laplace pseudo-counts added per class; stabilizes tiny
            regions (the training set is deliberately small).

    Empty regions fall back to the overall training link prior — the best
    available estimate when a region was never observed.
    """

    def __init__(self, regions: Regions,
                 labeled_values: Sequence[tuple[float, bool]],
                 smoothing: float = 1.0):
        self.regions = regions
        assigned = list(regions.assign_all(
            [value for value, _ in labeled_values]))
        counts = Counter(assigned)
        links = Counter(compress(
            assigned, (label for _, label in labeled_values)))

        total = len(labeled_values)
        total_links = sum(links.values())
        self._prior = (total_links + smoothing) / (total + 2 * smoothing)

        stats = []
        for region in range(regions.n_regions):
            if counts[region] == 0:
                accuracy = self._prior
            else:
                accuracy = (links[region] + smoothing) / (counts[region] + 2 * smoothing)
            stats.append(RegionStats(
                n_pairs=counts[region], n_links=links[region], accuracy=accuracy))
        self._compile(stats)

    def _compile(self, stats: Sequence[RegionStats]) -> None:
        """Freeze the per-region lookup tables every query indexes."""
        self._stats = list(stats)
        self._accuracies = tuple(entry.accuracy for entry in stats)
        self._links = tuple(accuracy > 0.5 for accuracy in self._accuracies)

    @classmethod
    def from_stats(cls, regions: Regions, stats: Sequence[RegionStats],
                   prior: float) -> "RegionAccuracyProfile":
        """Rebuild a profile from already-estimated statistics.

        This is the deserialization path: no training sample is consulted.

        Raises:
            ValueError: when ``stats`` does not cover every region.
        """
        if len(stats) != regions.n_regions:
            raise ValueError(
                f"expected {regions.n_regions} region stats, got {len(stats)}")
        profile = cls.__new__(cls)
        profile.regions = regions
        profile._prior = prior
        profile._compile(stats)
        return profile

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the fitted profile."""
        return {
            "regions": self.regions.to_dict(),
            "prior": self._prior,
            "stats": [
                {"n_pairs": s.n_pairs, "n_links": s.n_links,
                 "accuracy": s.accuracy}
                for s in self._stats
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "RegionAccuracyProfile":
        """Rebuild a profile saved by :meth:`to_dict`."""
        stats = [
            RegionStats(n_pairs=int(s["n_pairs"]), n_links=int(s["n_links"]),
                        accuracy=float(s["accuracy"]))
            for s in payload["stats"]
        ]
        return cls.from_stats(regions_from_dict(payload["regions"]), stats,
                              prior=float(payload["prior"]))

    @property
    def n_regions(self) -> int:
        return self.regions.n_regions

    @property
    def prior(self) -> float:
        """Smoothed overall link fraction of the training sample."""
        return self._prior

    def region_stats(self, region: int) -> RegionStats:
        return self._stats[region]

    def region_accuracy(self, region: int) -> float:
        """Estimated P(link | region)."""
        return self._accuracies[region]

    def link_probability(self, value: float) -> float:
        """Estimated P(link) for a pair with similarity ``value``."""
        return self._accuracies[self.regions.assign(value)]

    def decide(self, value: float) -> bool:
        """Majority decision of the value's region (accuracy > 0.5 → link)."""
        return self._links[self.regions.assign(value)]

    def link_probabilities(self, values: Collection[float]) -> Iterable[float]:
        """:meth:`link_probability` of every value, in order (one-shot)."""
        return map(self._accuracies.__getitem__,
                   self.regions.assign_all(values))

    def decide_all(self, values: Collection[float]) -> Iterable[bool]:
        """:meth:`decide` of every value, in order (one-shot)."""
        return map(self._links.__getitem__, self.regions.assign_all(values))

    def accuracy_series(self) -> list[tuple[float, float, float]]:
        """(low, high, accuracy) per region — the paper's Figure 1 data."""
        series = []
        for region in range(self.n_regions):
            low, high = self.regions.bounds(region)
            series.append((low, high, self._stats[region].accuracy))
        return series


def overall_accuracy(decisions: Sequence[bool], labels: Sequence[bool]) -> float:
    """Fraction of correct decisions — the paper's acc(G_Dj).

    Raises:
        ValueError: on length mismatch or empty input.
    """
    if len(decisions) != len(labels):
        raise ValueError("decisions and labels differ in length")
    if not decisions:
        raise ValueError("cannot score zero decisions")
    return sum(map(eq, decisions, labels)) / len(decisions)
