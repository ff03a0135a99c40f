"""Batched similarity-graph construction.

One pass over a block's page pairs fills every similarity function's
weighted graph through a pluggable :class:`~repro.similarity.backends.
ScoringBackend`: the ``python`` backend sweeps the pair grid once with
each function's *prepared* scorer
(:meth:`~repro.similarity.base.SimilarityFunction.prepared`) so per-page
inputs — vector norms, parsed URLs, name forms, key sets — are derived
once per page instead of once per pair; the ``numpy`` backend fills
whole score matrices from vectorized block kernels.  Every backend is
bit-identical to scoring each pair naively, so this path produces
exactly the graphs the seed loop would; ``tests/runtime/test_batch.py``
and ``tests/properties/test_backend_parity.py`` enforce it.

With a :class:`~repro.runtime.cache.SimilarityCache`, graphs already
computed for the same (block, function) are reused instead of rescored,
which collapses the fit → predict → evaluate flows to one quadratic pass
per block.  Cached weights are backend-agnostic — bit-identity is what
makes them safely shareable across backends.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.corpus.documents import NameCollection
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph
from repro.runtime.cache import SimilarityCache, block_fingerprint
from repro.similarity.backends import ScoringBackend, resolve_backend
from repro.similarity.base import SimilarityFunction, require_covered


def batched_similarity_graphs(
    block: NameCollection,
    features: dict[str, PageFeatures],
    functions: Sequence[SimilarityFunction],
    cache: SimilarityCache | None = None,
    backend: str | ScoringBackend | None = None,
    mask: "frozenset | None" = None,
) -> dict[str, WeightedPairGraph]:
    """The weighted graph ``G_w^fi`` for every function.

    Identical output to scoring each pair with ``function(left, right)``
    in a nested loop (the seed implementation), but with per-page input
    reuse, optional cross-pass caching, and a selectable scoring
    backend.

    Args:
        block: the pages to score (the blocking unit).
        features: extracted features per ``doc_id``; must cover the
            block, and hold every field ``functions`` read (features
            narrowed to a read set that leaves one out raise).
        functions: the similarity battery; graphs keep its order.
        cache: optional shared cache — functions whose graph for this
            (block, mask) is already stored are reused, freshly scored
            ones are stored back.
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
    graphs: dict[str, WeightedPairGraph] = {}
    pending: list[SimilarityFunction] = []
    fingerprint = (block_fingerprint(block, mask)
                   if cache is not None else None)
    for function in functions:
        cached = (cache.get_weights(fingerprint, function.name)
                  if cache is not None else None)
        if cached is not None:
            graphs[function.name] = WeightedPairGraph(nodes=list(ids),
                                                      weights=cached)
        else:
            pending.append(function)

    if pending:
        require_covered(map(features.__getitem__, ids), pending)
        scores = resolve_backend(backend).block_scores(ids, features, pending,
                                                       mask=mask)
        for function in pending:
            graphs[function.name] = WeightedPairGraph(
                nodes=list(ids), weights=scores[function.name])
        if cache is not None:
            for function in pending:
                cache.put_weights(fingerprint, function.name,
                                  graphs[function.name].weights)
    # Battery order regardless of the cached/pending split.
    return {function.name: graphs[function.name] for function in functions}
