"""Batched similarity-graph construction.

One pass over a block's page pairs fills every similarity function's
weighted graph through a pluggable :class:`~repro.similarity.backends.
ScoringBackend`: the ``numpy`` backend (the default where numpy is
installed) fills whole score matrices from vectorized block kernels; the
``python`` backend, the oracle, sweeps the pair grid once with each
function's plain scorer.  Every backend is bit-identical to scoring
each pair naively, so this path produces exactly the graphs the seed
loop would; ``tests/runtime/test_batch.py`` and
``tests/properties/test_backend_parity.py`` enforce it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.corpus.documents import NameCollection
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph
from repro.similarity.backends import ScoringBackend, resolve_backend
from repro.similarity.base import SimilarityFunction, require_covered


def batched_similarity_graphs(
    block: NameCollection,
    features: dict[str, PageFeatures],
    functions: Sequence[SimilarityFunction],
    backend: str | ScoringBackend | None = None,
    mask: "frozenset | None" = None,
) -> dict[str, WeightedPairGraph]:
    """The weighted graph ``G_w^fi`` for every function.

    Identical output to scoring each pair with ``function(left, right)``
    in a nested loop (the seed implementation), through a selectable
    scoring backend.

    Args:
        block: the pages to score (the blocking unit).
        features: extracted features per ``doc_id``; must cover the
            block, and hold every field ``functions`` read (features
            narrowed to a read set that leaves one out raise).
        functions: the similarity battery; graphs keep its order.
        backend: scoring backend name or instance
            (:data:`~repro.similarity.backends.BACKENDS`); ``None`` uses
            the ambient default.  Backends are bit-identical, so the
            choice never changes the produced graphs.
        mask: optional candidate-pair mask from a blocker — only masked
            pairs are scored, so the graphs carry candidate edges only
            (non-candidate pairs read as 0.0, per
            :class:`~repro.graph.entity_graph.WeightedPairGraph`
            semantics).  ``None`` (default) scores the complete graph.

    Raises:
        ValueError: when a function to score reads a field the features
            were not extracted for.
    """
    ids = block.page_ids()
    require_covered(map(features.__getitem__, ids), functions)
    return resolve_backend(backend).block_graphs(ids, features, functions,
                                                 mask=mask)
