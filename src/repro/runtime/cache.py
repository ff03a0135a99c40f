"""Shared per-block similarity cache.

The quadratic pairwise-similarity step is the pipeline's dominant cost.
:class:`SimilarityCache` memoizes, per block fingerprint,

* the extracted :class:`~repro.extraction.features.PageFeatures` (so
  tokenization/NER/TF-IDF run once per block and read set), and
* the pairwise similarity values of every function's weighted graph.

Where hits actually occur: repeated serving of a hot block through
``ResolverModel.predict_block`` / ``evaluate_block`` (the second and
later serves cost zero similarity computations, as
``test_serving_twice_halves_the_miss_rate`` in
``tests/runtime/test_backend_cache.py`` pins), and any caller that keeps
one cache across several ``batched_similarity_graphs`` calls for the
same block.
The *collection* passes intentionally do not accumulate entries: every
block task (:mod:`repro.runtime.tasks`) scores through a transient cache
of its own, used for pair-granular accounting (feeding
:class:`~repro.runtime.stats.RunStats`) and gone with the task — the
quadratic reuse across a single pass's function × criterion grid comes
from batched one-sweep construction (:mod:`repro.runtime.batch`), not
from cache round-trips.

Entries are dropped wholesale (:meth:`SimilarityCache.clear`) —
``ResolverModel.release_fit_caches`` clears the model's cache so
long-lived serving processes do not retain quadratic per-block state.
Counters survive eviction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.corpus.documents import NameCollection
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph
from repro.runtime.stats import StatsRecord, rate

#: A block's cache identity: the query name plus the exact page-id tuple
#: (so two different page sets for the same name never alias) plus the
#: candidate-pair mask the weights were scored under (``None`` = dense;
#: masked and dense weights for the same pages must never alias either).
BlockFingerprint = tuple[str, tuple[str, ...], frozenset | None]


def block_fingerprint(block: NameCollection,
                      mask: frozenset | None = None) -> BlockFingerprint:
    """The cache key for one block (under one candidate mask)."""
    return (block.query_name, tuple(block.page_ids()), mask)


@dataclass(frozen=True)
class CacheStats(StatsRecord):
    """Counter snapshot (hit/miss totals survive entry eviction)."""

    derived = ("hit_rate",)

    pair_hits: int
    pair_misses: int
    feature_hits: int
    feature_misses: int
    n_blocks: int

    @property
    def hit_rate(self) -> float:
        """Fraction of pair-value lookups served from the cache."""
        return rate(self.pair_hits, self.pair_hits + self.pair_misses)


class SimilarityCache:
    """Memo of per-block features and pairwise similarity values.

    Not thread-safe; process-pool workers each build their own transient
    cache and report counters back through
    :class:`~repro.runtime.stats.TaskStats`.
    """

    def __init__(self) -> None:
        # Per block, the feature dicts extracted so far — more than one
        # only when the block was asked for under read sets none of
        # which covers the others.
        self._features: dict[BlockFingerprint,
                             list[dict[str, PageFeatures]]] = {}
        self._graphs: dict[BlockFingerprint,
                           dict[str, WeightedPairGraph]] = {}
        self.pair_hits = 0
        self.pair_misses = 0
        self.feature_hits = 0
        self.feature_misses = 0

    # -- features --------------------------------------------------------

    def features_for(
        self,
        block: NameCollection,
        compute: Callable[[NameCollection], dict[str, PageFeatures]],
        reads: frozenset[str] | None = None,
    ) -> dict[str, PageFeatures]:
        """The block's extracted features, computing them on first miss.

        ``reads`` names the fields the caller will read (``None``: all);
        ``compute`` must return features that hold them.  A stored entry
        serves the call only if every page of it
        :meth:`~repro.extraction.features.PageFeatures.covers` ``reads``
        — a narrower one never does, and the wider result is stored
        beside it.
        """
        fingerprint = block_fingerprint(block)
        for features in self._features.get(fingerprint, ()):
            if all(page.covers(reads) for page in features.values()):
                self.feature_hits += 1
                return features
        self.feature_misses += 1
        features = compute(block)
        self._features.setdefault(fingerprint, []).append(features)
        return features

    # -- similarity graphs ------------------------------------------------

    def get_graph(self, fingerprint: BlockFingerprint,
                  function_name: str) -> "WeightedPairGraph | None":
        """Stored similarity graph for one function, or ``None`` on miss.

        A hit counts every stored pair as served-from-cache.  The caller
        receives the stored graph itself: graphs are immutable, so no
        caller can corrupt a cached value.
        """
        graph = self._graphs.get(fingerprint, {}).get(function_name)
        if graph is None:
            return None
        self.pair_hits += graph.n_pairs()
        return graph

    def put_graph(self, fingerprint: BlockFingerprint, function_name: str,
                  graph: "WeightedPairGraph") -> None:
        """Store one function's freshly computed similarity graph."""
        self.pair_misses += graph.n_pairs()
        self._graphs.setdefault(fingerprint, {})[function_name] = graph

    # -- lifecycle -------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._features.clear()
        self._graphs.clear()

    def __len__(self) -> int:
        """Number of blocks with at least one cached entry."""
        return len(self._features.keys() | self._graphs.keys())

    def stats(self) -> CacheStats:
        """Current counter snapshot."""
        return CacheStats(
            pair_hits=self.pair_hits,
            pair_misses=self.pair_misses,
            feature_hits=self.feature_hits,
            feature_misses=self.feature_misses,
            n_blocks=len(self),
        )

    def __repr__(self) -> str:
        snapshot = self.stats()
        return (f"SimilarityCache({snapshot.n_blocks} blocks, "
                f"hit_rate={snapshot.hit_rate:.0%})")
