"""Labeled training samples.

A :class:`TrainingSample` is the small labeled pair set (paper: 10 % of the
data) on which thresholds, regions, accuracy profiles and combination
weights are learned.  It also joins labels with one function's similarity
values, the (value, label) view every criterion fits on.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.sweeps import BlockSweep
from repro.graph.entity_graph import PairKey, WeightedPairGraph


@dataclass(frozen=True)
class TrainingSample:
    """An immutable labeled pair sample for one block.

    Attributes:
        pairs: (canonical pair key, is-same-person) tuples.
    """

    pairs: tuple[tuple[PairKey, bool], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[PairKey, bool]]) -> "TrainingSample":
        return cls(pairs=tuple(pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def n_positives(self) -> int:
        """Number of same-person (link) pairs in the sample."""
        return sum(1 for _, label in self.pairs if label)

    def n_negatives(self) -> int:
        return len(self.pairs) - self.n_positives()

    def link_prior(self) -> float:
        """Fraction of link pairs; 0.5 (uninformative) on an empty sample."""
        if not self.pairs:
            return 0.5
        return self.n_positives() / len(self.pairs)

    def labeled_values(self, graph: WeightedPairGraph) -> list[tuple[float, bool]]:
        """Join the sample with one function's similarity values.

        Pairs missing from the graph read as similarity 0.0 (consistent
        with :class:`WeightedPairGraph` semantics).  A gather by position
        over the graph's pair vector; callers joining many graphs of one
        block resolve the pairs once through a
        :class:`~repro.core.sweeps.BlockSweep`.
        """
        return BlockSweep(self).labeled_values(graph)

    def label_of(self, pair: PairKey) -> bool:
        """Ground-truth label of a sampled pair.

        Raises:
            KeyError: if the pair is not in the sample.
        """
        for key, label in self.pairs:
            if key == pair:
                return label
        raise KeyError(pair)
