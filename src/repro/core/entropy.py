"""Entropy-based informativeness metrics (paper future work, §VII).

The paper's conclusion proposes addressing "the effect of incomplete
information available in the Web pages on the accuracy of the similarity
functions, by considering entropy based metrics" (citing PicShark).  This
module implements that direction:

* **feature availability** — how often each feature actually carries
  evidence in a block;
* **value entropy** — the Shannon entropy of a function's (discretized)
  similarity distribution: a function whose values are all alike cannot
  discriminate anything;
* **information gain** — the mutual information between a function's
  region and the link label on the training sample, a direct measure of
  how much a function's value tells us about co-reference;
* an **entropy-weighted combiner** that weights layers by information
  gain instead of raw accuracy.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.core.combination import (
    CombinationResult,
    Combiner,
    DecisionLayer,
    _require_layers,
    average_probabilities,
    thresholded_result,
)
from repro.core.labels import TrainingSample
from repro.core.regions import Regions
from repro.core.thresholds import learn_threshold
from repro.extraction.features import PageFeatures
from repro.folds import left_sum
from repro.graph.entity_graph import WeightedPairGraph

#: PageFeatures attributes that can be "missing" on a page.
AVAILABILITY_FEATURES = (
    "most_frequent_name", "closest_name_to_query", "concept_vector",
    "organizations", "other_persons", "tfidf",
)


def shannon_entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy (bits) of a distribution; zero-mass atoms ignored.

    Raises:
        ValueError: if the distribution does not sum to ~1.
    """
    total = left_sum(probabilities)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, not 1")
    entropy = -left_sum(p * math.log2(p) for p in probabilities if p > 0.0)
    return max(0.0, entropy)  # avoid -0.0 for degenerate distributions


def feature_availability(features: dict[str, PageFeatures]) -> dict[str, float]:
    """Fraction of pages on which each feature carries evidence."""
    if not features:
        return {name: 0.0 for name in AVAILABILITY_FEATURES}
    counts = {name: 0 for name in AVAILABILITY_FEATURES}
    for bundle in features.values():
        for name in AVAILABILITY_FEATURES:
            if bundle.has_feature(name):
                counts[name] += 1
    n_pages = len(features)
    return {name: count / n_pages for name, count in counts.items()}


def value_entropy(graph: WeightedPairGraph, n_bins: int = 10) -> float:
    """Entropy (bits) of a function's discretized similarity distribution.

    0 bits means every pair gets the same value — the function carries no
    signal for this block regardless of its nominal accuracy.
    """
    values = graph.values()
    if not values:
        return 0.0
    counts = [0] * n_bins
    for value in values:
        index = min(int(min(1.0, max(0.0, value)) * n_bins), n_bins - 1)
        counts[index] += 1
    total = len(values)
    return shannon_entropy([count / total for count in counts if count])


def information_gain(regions: Regions,
                     labeled_values: Sequence[tuple[float, bool]]) -> float:
    """Mutual information I(region; link) in bits over a training sample.

    Measures how much knowing a value's region reduces uncertainty about
    the pair's label — the entropy-based informativeness of a function
    under a region scheme.  Returns 0.0 for empty samples.
    """
    if not labeled_values:
        return 0.0
    total = len(labeled_values)
    joint: dict[tuple[int, bool], int] = {}
    region_counts: dict[int, int] = {}
    n_links = 0
    for value, label in labeled_values:
        region = regions.assign(value)
        joint[(region, label)] = joint.get((region, label), 0) + 1
        region_counts[region] = region_counts.get(region, 0) + 1
        if label:
            n_links += 1

    p_link = n_links / total
    label_entropy = shannon_entropy(
        [p for p in (p_link, 1.0 - p_link) if p > 0.0])

    conditional = 0.0
    for region, count in region_counts.items():
        p_region = count / total
        link_in_region = joint.get((region, True), 0) / count
        region_entropy = shannon_entropy(
            [p for p in (link_in_region, 1.0 - link_in_region) if p > 0.0])
        conditional += p_region * region_entropy
    return max(0.0, label_entropy - conditional)


def layer_information_gain(layer: DecisionLayer,
                           graph: WeightedPairGraph,
                           training: TrainingSample) -> float:
    """Information gain of one fitted decision layer."""
    labeled_values = training.labeled_values(graph)
    return information_gain(layer.fitted.profile.regions, labeled_values)


class EntropyWeightedCombiner(Combiner):
    """Weighted-average combination with information-gain weights.

    Identical to :class:`~repro.core.combination.WeightedAverageCombiner`
    except layers are weighted by their information gain (plus a small
    floor so zero-gain layers do not poison the denominator) rather than
    by raw training accuracy.  Accuracy rewards agreeing with the majority
    class; information gain rewards *reducing uncertainty*, which is what
    an uninformative-but-lucky function lacks.
    """

    name = "entropy_weighted"

    def __init__(self, graphs: dict[str, WeightedPairGraph]):
        self._graphs = graphs

    def combine(self, layers: Sequence[DecisionLayer],
                training: TrainingSample) -> CombinationResult:
        _require_layers(layers)
        weights = []
        for layer in layers:
            gain = layer_information_gain(
                layer, self._graphs[layer.function_name], training)
            weights.append(gain + 1e-6)
        combined = average_probabilities(layers, weights)
        threshold = learn_threshold(training.labeled_values(combined))
        return thresholded_result(
            combined, threshold.threshold,
            diagnostics={"total_gain": left_sum(weights)})
