"""Clustering-and-selection (Liu & Yuan, 2001).

The input sample space is partitioned by clustering the training samples
(here: 1-D k-means over each function's similarity values, separately for
correct and incorrect decisions as in the original method's spirit); each
classifier's performance is estimated per region, and a new sample is
decided by the classifier with the best performance in its region.

The practical difference from :mod:`repro.baselines.dcs` is the selection
statistic: DCS uses the local *confidence* of the link-probability
estimate, clustering-and-selection uses the local *decision accuracy* of
each classifier measured on the training points of the region.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.baselines.base import PairwiseBaseline, baseline_layers
from repro.core.labels import TrainingSample
from repro.core.combination import DecisionLayer
from repro.corpus.documents import NameCollection
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph
from repro.graph.transitive import transitive_closure_clusters
from repro.metrics.clusterings import Clustering
from repro.similarity.functions import ALL_FUNCTION_NAMES


class ClusteringSelectionBaseline(PairwiseBaseline):
    """Per-region classifier selection by local decision accuracy."""

    name = "clustering_selection"

    def __init__(self, function_names: Sequence[str] = ALL_FUNCTION_NAMES,
                 region_k: int = 10):
        self.function_names = tuple(function_names)
        self.region_k = region_k

    def resolve_block(self, block: NameCollection,
                      graphs: dict[str, WeightedPairGraph],
                      training: TrainingSample) -> Clustering:
        layers = baseline_layers(
            graphs, training, self.function_names,
            criteria=("kmeans",), region_k=self.region_k)
        local_accuracy = {
            layer.function_name: self._local_accuracies(layer, graphs, training)
            for layer in layers
        }

        edges = []
        for pair in dict.fromkeys(chain.from_iterable(
                layer.probability_graph.weights for layer in layers)):
            best_accuracy = -1.0
            best_decision = False
            for layer in layers:
                value = graphs[layer.function_name].weights.get(pair, 0.0)
                region = layer.fitted.profile.regions.assign(value)
                accuracy = local_accuracy[layer.function_name][region]
                if accuracy > best_accuracy:
                    best_accuracy = accuracy
                    best_decision = layer.fitted.decide(value)
            if best_decision:
                edges.append(pair)
        graph = DecisionGraph.from_pairs(layers[0].graph.nodes, edges)
        return Clustering(transitive_closure_clusters(graph))

    def _local_accuracies(self, layer: DecisionLayer,
                          graphs: dict[str, WeightedPairGraph],
                          training: TrainingSample) -> list[float]:
        """Per-region fraction of correct decisions on the training sample.

        Regions never visited during training fall back to the layer's
        overall training accuracy.
        """
        profile = layer.fitted.profile
        weights = graphs[layer.function_name].weights
        correct = [0] * profile.n_regions
        total = [0] * profile.n_regions
        for pair, label in training.pairs:
            value = weights.get(pair, 0.0)
            region = profile.regions.assign(value)
            total[region] += 1
            if layer.fitted.decide(value) == label:
                correct[region] += 1
        overall = layer.training_accuracy
        return [correct[i] / total[i] if total[i] else overall
                for i in range(profile.n_regions)]
