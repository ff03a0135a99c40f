"""Blocking abstractions.

A blocker maps a page collection to the set of candidate pairs that the
(quadratic) similarity layer is allowed to compare.  ``BlockingResult``
also reports the standard blocking quality numbers — pair completeness
(recall of true pairs) and reduction ratio — given ground truth.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.corpus.documents import DocumentCollection, NameCollection, WebPage
from repro.graph.components import UnionFind
from repro.graph.entity_graph import PairKey, pair_key

#: Candidate-pair mask type threaded through the similarity layer:
#: ``None`` means dense (every in-block pair is a candidate).
CandidateMask = frozenset[PairKey]

#: Query-name prefix of synthetic blocks assembled from candidate
#: components (:func:`blocks_from_candidates`); picked so generic blocks
#: can never collide with a real person name.
SYNTHETIC_BLOCK_PREFIX = "~block:"


@dataclass
class BlockingResult:
    """Candidate pairs produced by a blocker over a page universe."""

    pages: list[WebPage]
    candidate_pairs: set[PairKey] = field(default_factory=set)

    def n_candidates(self) -> int:
        return len(self.candidate_pairs)

    def total_pairs(self) -> int:
        """Unordered pair count of the full (blocking-free) universe."""
        n_pages = len(self.pages)
        return n_pages * (n_pages - 1) // 2

    def reduction_ratio(self) -> float:
        """1 − candidates / all-pairs; higher means cheaper matching."""
        total = self.total_pairs()
        if total == 0:
            return 0.0
        return 1.0 - self.n_candidates() / total

    def pair_completeness(self) -> float:
        """Fraction of ground-truth co-referent pairs kept by the blocker.

        Raises:
            ValueError: if any page lacks a ground-truth label.
        """
        true_pairs = self._true_pairs()
        if not true_pairs:
            return 1.0
        kept = sum(1 for pair in true_pairs if pair in self.candidate_pairs)
        return kept / len(true_pairs)

    def _true_pairs(self) -> set[PairKey]:
        # Group ids by person and enumerate pairs within each group:
        # O(n + Σ gᵢ²) instead of the all-ids double loop's O(n²) — true
        # pairs only ever form inside a person's group.
        labels: dict[str, str] = {}
        for page in self.pages:
            if page.person_id is None:
                raise ValueError(f"page {page.doc_id!r} is unlabeled")
            labels[page.doc_id] = page.person_id
        groups: dict[str, list[str]] = {}
        for doc_id, person_id in labels.items():
            groups.setdefault(person_id, []).append(doc_id)
        pairs: set[PairKey] = set()
        for ids in groups.values():
            pairs.update(pairs_within(ids))
        return pairs


class Blocker(ABC):
    """Interface for candidate-pair generation.

    Implementations register in :data:`repro.core.registry.BLOCKERS`
    (via :func:`~repro.core.registry.register_blocker`) to become valid
    ``ResolverConfig(blocker=...)`` values; registered blockers must be
    no-arg constructible.
    """

    #: registry/config name.
    name: str = "?"

    @abstractmethod
    def block(self, pages: Iterable[WebPage]) -> BlockingResult:
        """Produce the candidate pairs for ``pages``."""


def pairs_within(ids: list[str]) -> set[PairKey]:
    """All unordered pairs among ``ids`` (helper for block-based schemes)."""
    ordered = sorted(ids)
    pairs: set[PairKey] = set()
    for i, left in enumerate(ordered):
        for right in ordered[i + 1:]:
            pairs.add(pair_key(left, right))
    return pairs


def blocks_from_candidates(
    pages: Sequence[WebPage],
    candidate_pairs: Iterable[PairKey],
) -> tuple[list[NameCollection], dict[str, CandidateMask]]:
    """Partition a page universe into candidate-connected comparison units.

    Each connected component of the candidate-pair graph becomes one
    synthetic :class:`~repro.corpus.documents.NameCollection` (pages in
    universe order, named ``~block:<first doc id>`` so generic blocks
    never collide with real query names), paired with the component's
    candidate mask.  Pages with no candidates become singleton blocks
    with an empty mask.  Deterministic: block order follows the first
    appearance of each component in ``pages``.

    This is how :func:`block_collection` turns an arbitrary registered
    blocker's pair set into the per-block units a collection pass fans
    out; the masks then restrict similarity scoring to candidate pairs
    (see :mod:`repro.similarity.backends`).
    """
    page_list = list(pages)
    candidate_pairs = list(candidate_pairs)
    forest = UnionFind(page.doc_id for page in page_list)
    for left, right in candidate_pairs:
        forest.union(left, right)

    component_pages: dict[object, list[WebPage]] = {}
    order: list[object] = []
    for page in page_list:
        root = forest.find(page.doc_id)
        members = component_pages.get(root)
        if members is None:
            component_pages[root] = members = []
            order.append(root)
        members.append(page)
    component_masks: dict[object, set[PairKey]] = {}
    for pair in candidate_pairs:
        component_masks.setdefault(forest.find(pair[0]), set()).add(pair)

    blocks: list[NameCollection] = []
    masks: dict[str, CandidateMask] = {}
    for root in order:
        members = component_pages[root]
        query_name = f"{SYNTHETIC_BLOCK_PREFIX}{members[0].doc_id}"
        blocks.append(NameCollection(query_name=query_name, pages=members))
        masks[query_name] = frozenset(component_masks.get(root, ()))
    return blocks, masks


def block_collection(
    collection: DocumentCollection,
    blocker: str,
) -> tuple[list[NameCollection], dict[str, CandidateMask]]:
    """The comparison units of a collection pass, and their masks.

    Pairs are only ever formed within a block, which is what makes the
    rest of a pass embarrassingly parallel.  The default
    ``"query_name"`` blocker is the paper's scheme (§IV-C): the corpus's
    own per-name blocks, no candidate masks (the dense fast path).  Any
    other name in :data:`~repro.core.registry.BLOCKERS` runs over the
    corpus's page universe, and its candidate pairs are partitioned into
    connected components (:func:`blocks_from_candidates`), one masked
    block each.

    Raises:
        ValueError: for a blocker name that is not registered.
    """
    if blocker == "query_name":
        return list(collection), {}
    # Imported here: the registry's package imports the core, which
    # imports this module.
    from repro.core.registry import BLOCKERS

    pages = list(collection.all_pages())
    result = BLOCKERS.get(blocker)().block(pages)
    return blocks_from_candidates(pages, result.candidate_pairs)
