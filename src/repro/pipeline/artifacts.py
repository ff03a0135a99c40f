"""Typed artifacts flowing between pipeline stages.

Each stage consumes one artifact type and produces the next, making the
paper's dataflow explicit and composable::

    Corpus -> Blocks -> FeatureSet -> SimilarityGraphs -> Decisions -> Resolution

Artifacts are deliberately *carriers*, not computations: the per-name
maps may be partially (or not at all) materialized, and the heavy stages
compute what is missing inside each block's task
(:mod:`repro.runtime.tasks`), where it lives only as long as the task.
That streaming contract is what lets the default plans keep the
engine's one-block-resident memory profile under either schedule, while
a custom stage that *does* materialize an entry (say, sparsified graphs)
transparently overrides the downstream computation for that block.

This module only depends on data-model packages (corpus, extraction,
graph, runtime, metrics); everything from ``repro.core`` appears as a
type annotation so the registry's lazy built-in loading can import the
pipeline package while core modules are still initializing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.corpus.documents import DocumentCollection, NameCollection
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import PairKey, WeightedPairGraph

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.model import (
        BlockPrediction,
        BlockResolution,
        FittedBlock,
    )

__all__ = [
    "Corpus",
    "Blocks",
    "FeatureSet",
    "SimilarityGraphs",
    "Decisions",
    "Resolution",
]


@dataclass
class Corpus:
    """The raw input: a whole document collection (pages may be unlabeled)."""

    collection: DocumentCollection

    @property
    def name(self) -> str:
        return self.collection.name


@dataclass
class Blocks:
    """The blocking stage's output: the units all later stages iterate.

    Attributes:
        blocks: one :class:`NameCollection` per comparison unit, in the
            order downstream stages (and their executor fan-outs) will
            process them.  Under the paper's query-name blocker these
            are the corpus's per-name blocks; a generic registered
            blocker produces one block per candidate-connected
            component.
        source: the collection the blocks came from, kept so lazily
            resolved extraction pipelines can read its vocabulary
            metadata.  ``None`` for hand-assembled block lists.
        masks: per-block candidate-pair masks keyed by the block's
            ``query_name``.  A block absent from the map (every block on
            the dense query-name fast path) has no mask: all of its
            pairs are candidates.  Downstream stages thread a block's
            mask into similarity scoring, so the resulting
            :class:`~repro.graph.entity_graph.WeightedPairGraph`\\ s
            carry candidate edges only.
    """

    blocks: list[NameCollection]
    source: DocumentCollection | None = None
    masks: dict[str, frozenset[PairKey]] = field(default_factory=dict)

    def __iter__(self) -> Iterator[NameCollection]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def names(self) -> list[str]:
        return [block.query_name for block in self.blocks]

    def mask_for(self, query_name: str) -> frozenset[PairKey] | None:
        """The block's candidate mask, or ``None`` for dense scoring."""
        return self.masks.get(query_name)

    @property
    def dataset(self) -> str:
        return self.source.name if self.source is not None else "<blocks>"


@dataclass
class FeatureSet:
    """Per-block extracted features, possibly lazy.

    ``by_name`` holds only the materialized entries (``query name ->
    doc id -> PageFeatures``).  Blocks absent from the map are extracted
    on demand inside the consuming stage's block task, keeping the
    streaming memory profile; an eager extraction stage can instead
    fill the map up front and downstream stages will use it as-is.
    """

    blocks: Blocks
    by_name: dict[str, dict[str, PageFeatures]] = field(default_factory=dict)


@dataclass
class SimilarityGraphs:
    """Per-block weighted pair graphs ``G_w^fi``, possibly lazy.

    ``by_name`` maps ``query name -> function name -> graph`` for the
    materialized entries (e.g. an experiment context's precomputed
    graphs); missing blocks are computed on demand from ``features`` by
    the consuming stage, with the battery and scoring backend of the
    run's config.
    """

    features: FeatureSet
    by_name: dict[str, dict[str, WeightedPairGraph]] = field(
        default_factory=dict)

    @property
    def blocks(self) -> Blocks:
        return self.features.blocks


@dataclass
class Decisions:
    """Fitted per-block decision state, ready to apply.

    Produced by the fit stage (freshly learned state) or the decide
    stage (a model's stored state resolved per block, including the
    ``model_block`` fallback for names the model was never fitted on).
    """

    graphs: SimilarityGraphs
    fitted: "dict[str, FittedBlock]" = field(default_factory=dict)

    @property
    def blocks(self) -> Blocks:
        return self.graphs.blocks


@dataclass
class Resolution:
    """The terminal artifact: one resolved clustering per block.

    ``results`` holds :class:`~repro.core.model.BlockPrediction` entries
    (predict plans) or :class:`~repro.core.model.BlockResolution` entries
    (evaluate plans), in block order.
    """

    dataset: str
    results: "list[BlockPrediction | BlockResolution]" = field(
        default_factory=list)
