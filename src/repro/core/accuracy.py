"""Per-region accuracy estimation (§IV-A).

For each region the paper estimates, from the training sample, the
fraction of pairs falling in that region that are true links ("accuracy of
link existence").  Values above 0.5 mean the region's majority is "link";
the profile doubles as a per-pair link-probability estimate, which §IV-B
re-uses as edge weights when combining functions.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass
from itertools import compress
from operator import eq, itemgetter

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

    A profile keeps its regions, the prior and three tuples in region
    order — training pair counts, link counts and estimated accuracies —
    plus the majority decision derived from the accuracies.  Neither
    fitting nor loading builds an object per region;
    :meth:`region_stats` builds a :class:`RegionStats` when it is read.
    """

    def __init__(self, regions: Regions,
                 labeled_values: Sequence[tuple[float, bool]],
                 smoothing: float = 1.0):
        self.regions = regions
        values, labels = list(zip(*labeled_values)) or ((), ())
        assigned = list(regions.assign_all(values))
        linked = list(compress(assigned, labels))
        # Integer counts per region: one C-level count pass each.
        n_pairs = tuple(map(assigned.count, range(regions.n_regions)))
        n_links = tuple(map(linked.count, range(regions.n_regions)))

        total = len(labeled_values)
        self._prior = (len(linked) + smoothing) / (total + 2 * smoothing)
        accuracies = tuple(
            self._prior if pairs == 0
            else (links + smoothing) / (pairs + 2 * smoothing)
            for pairs, links in zip(n_pairs, n_links))
        self._compile(n_pairs, n_links, accuracies)

    def _compile(self, n_pairs: tuple[int, ...], n_links: tuple[int, ...],
                 accuracies: tuple[float, ...]) -> None:
        """Freeze the per-region lookup tables every query indexes."""
        self._n_pairs = n_pairs
        self._n_links = n_links
        self._accuracies = accuracies
        self._links = tuple(accuracy > 0.5 for accuracy in accuracies)

    @classmethod
    def _restore(cls, regions: Regions, n_pairs: tuple[int, ...],
                 n_links: tuple[int, ...], accuracies: tuple[float, ...],
                 prior: float) -> "RegionAccuracyProfile":
        if len(n_pairs) != regions.n_regions:
            raise ValueError(
                f"expected {regions.n_regions} region stats, got {len(n_pairs)}")
        profile = cls.__new__(cls)
        profile.regions = regions
        profile._prior = prior
        profile._compile(n_pairs, n_links, accuracies)
        return profile

    @classmethod
    def from_stats(cls, regions: Regions, stats: Sequence[RegionStats],
                   prior: float) -> "RegionAccuracyProfile":
        """Rebuild a profile from already-estimated statistics.

        This is the deserialization path: no training sample is consulted.

        Raises:
            ValueError: when ``stats`` does not cover every region.
        """
        return cls._restore(regions,
                            tuple(entry.n_pairs for entry in stats),
                            tuple(entry.n_links for entry in stats),
                            tuple(entry.accuracy for entry in stats), prior)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot of the fitted profile."""
        return {
            "regions": self.regions.to_dict(),
            "prior": self._prior,
            "stats": [
                {"n_pairs": pairs, "n_links": links, "accuracy": accuracy}
                for pairs, links, accuracy in zip(
                    self._n_pairs, self._n_links, self._accuracies)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "RegionAccuracyProfile":
        """Rebuild a profile saved by :meth:`to_dict`.

        Raises:
            ValueError: when ``stats`` does not cover every region.
        """
        stats = payload["stats"]
        return cls._restore(
            regions_from_dict(payload["regions"]),
            tuple(map(int, map(itemgetter("n_pairs"), stats))),
            tuple(map(int, map(itemgetter("n_links"), stats))),
            tuple(map(float, map(itemgetter("accuracy"), stats))),
            prior=float(payload["prior"]))

    @property
    def n_regions(self) -> int:
        return self.regions.n_regions

    @property
    def accuracies(self) -> tuple[float, ...]:
        """Estimated P(link) per region, in region order."""
        return self._accuracies

    @property
    def links(self) -> tuple[bool, ...]:
        """Majority decision per region, in region order."""
        return self._links

    @property
    def prior(self) -> float:
        """Smoothed overall link fraction of the training sample."""
        return self._prior

    @property
    def n_correct(self) -> int:
        """Training pairs the majority rule decides correctly: the links
        of every linking region plus the non-links of every other one."""
        return sum(links if link else pairs - links for pairs, links, link
                   in zip(self._n_pairs, self._n_links, self._links))

    def region_stats(self, region: int) -> RegionStats:
        return RegionStats(n_pairs=self._n_pairs[region],
                           n_links=self._n_links[region],
                           accuracy=self._accuracies[region])

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
            series.append((low, high, self._accuracies[region]))
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
