"""R-Swoosh-style generic entity resolution (Benjelloun et al., VLDB J. 2009).

The related work discusses the Swoosh family: pairwise *match* decisions
drive immediate *merges*, and the merged record (here: merged page
features) is re-compared against the rest.  This captures the "merge then
re-match" dynamic the paper contrasts with its graph pipeline — a merged
profile can match pages neither constituent matched alone.

Match: the configured similarity function applied to (possibly merged)
feature bundles against a threshold learned from the training sample.
Merge: union of entity mentions and concept/TF-IDF evidence (vectors are
averaged and re-normalized; counters added), per the Swoosh requirement
that merges only ever add information.
"""

from __future__ import annotations

from collections import Counter

from repro.baselines.base import PairwiseBaseline
from repro.core.labels import TrainingSample
from repro.core.thresholds import learn_threshold
from repro.corpus.documents import NameCollection
from repro.extraction.features import PageFeatures
from repro.folds import left_sum
from repro.graph.entity_graph import WeightedPairGraph
from repro.metrics.clusterings import Clustering
from repro.similarity.base import SimilarityFunction
from repro.similarity.functions import function_by_name
from repro.similarity.vectors import l2_normalize


def merge_features(left: PageFeatures, right: PageFeatures) -> PageFeatures:
    """Swoosh merge: the union of two bundles' evidence.

    Counters add; concept vectors average (then re-normalize to L1=1);
    TF-IDF vectors average then re-normalize to unit length; name fields
    keep the non-empty (then longer) surface.
    """
    def pick_name(first: str, second: str) -> str:
        if not first:
            return second
        if not second:
            return first
        return first if len(first) >= len(second) else second

    concept_vector: dict[str, float] = {}
    for vector in (left.concept_vector, right.concept_vector):
        for key, value in vector.items():
            concept_vector[key] = concept_vector.get(key, 0.0) + value / 2.0
    total = left_sum(concept_vector.values())
    if total > 0:
        concept_vector = {k: v / total for k, v in concept_vector.items()}

    tfidf: dict[str, float] = {}
    for vector in (left.tfidf, right.tfidf):
        for key, value in vector.items():
            tfidf[key] = tfidf.get(key, 0.0) + value / 2.0
    tfidf = l2_normalize(tfidf)

    return PageFeatures(
        doc_id=f"{left.doc_id}+{right.doc_id}",
        url=left.url or right.url,
        most_frequent_name=pick_name(left.most_frequent_name,
                                     right.most_frequent_name),
        closest_name_to_query=pick_name(left.closest_name_to_query,
                                        right.closest_name_to_query),
        concept_vector=concept_vector,
        concept_set=left.concept_set | right.concept_set,
        organizations=Counter(left.organizations) + Counter(right.organizations),
        other_persons=Counter(left.other_persons) + Counter(right.other_persons),
        locations=Counter(left.locations) + Counter(right.locations),
        tfidf=tfidf,
        n_tokens=left.n_tokens + right.n_tokens,
    )


def r_swoosh(features: dict[str, PageFeatures],
             match: SimilarityFunction,
             threshold: float) -> list[set[str]]:
    """The R-Swoosh algorithm over feature bundles.

    Maintains a resolved set ``R``; each input record is compared against
    every member of ``R``: on the first match, both are merged and the
    merge re-enters the input queue; otherwise the record joins ``R``.

    Returns the partition of original doc ids implied by the merges.
    """
    queue: list[tuple[PageFeatures, set[str]]] = [
        (bundle, {doc_id}) for doc_id, bundle in sorted(features.items())]
    resolved: list[tuple[PageFeatures, set[str]]] = []

    while queue:
        record, members = queue.pop(0)
        matched_index = None
        for index, (other, _) in enumerate(resolved):
            if match(record, other) >= threshold:
                matched_index = index
                break
        if matched_index is None:
            resolved.append((record, members))
        else:
            other, other_members = resolved.pop(matched_index)
            queue.append((merge_features(record, other),
                          members | other_members))
    return [members for _, members in resolved]


class SwooshBaseline(PairwiseBaseline):
    """R-Swoosh with a learned match threshold on one similarity function.

    Args:
        function_name: the match function (default F8, TF-IDF cosine).
        features_by_doc: the block's extracted features (Swoosh needs the
            raw bundles, not just pair scores, because merges create new
            records).
    """

    name = "swoosh"

    def __init__(self, features_by_doc: dict[str, PageFeatures],
                 function_name: str = "F8"):
        self.function_name = function_name
        self._features = features_by_doc
        self._match = function_by_name(function_name)

    def resolve_block(self, block: NameCollection,
                      graphs: dict[str, WeightedPairGraph],
                      training: TrainingSample) -> Clustering:
        graph = graphs[self.function_name]
        learned = learn_threshold(training.labeled_values(graph))
        if learned.threshold > 1.0:
            # Never-link rule: every page is its own entity.
            return Clustering([{doc_id} for doc_id in block.page_ids()])
        block_features = {doc_id: self._features[doc_id]
                          for doc_id in block.page_ids()}
        clusters = r_swoosh(block_features, self._match, learned.threshold)
        return Clustering(clusters)
