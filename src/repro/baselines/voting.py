"""Classifier-fusion baselines: majority and accuracy-weighted voting.

The related-work section groups combination techniques into fusion and
selection; these are the canonical fusion representatives.  Votes are cast
per pair by each function's fitted threshold decision.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.base import PairwiseBaseline, baseline_layers
from repro.core.labels import TrainingSample
from repro.corpus.documents import NameCollection
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph
from repro.graph.transitive import transitive_closure_clusters
from repro.metrics.clusterings import Clustering
from repro.similarity.functions import ALL_FUNCTION_NAMES


class MajorityVoteBaseline(PairwiseBaseline):
    """Link a pair iff a strict majority of functions votes link."""

    name = "majority_vote"

    def __init__(self, function_names: Sequence[str] = ALL_FUNCTION_NAMES):
        self.function_names = tuple(function_names)

    def resolve_block(self, block: NameCollection,
                      graphs: dict[str, WeightedPairGraph],
                      training: TrainingSample) -> Clustering:
        layers = baseline_layers(graphs, training, self.function_names)
        n_layers = len(layers)
        votes: dict[tuple[str, str], int] = {}
        for layer in layers:
            for pair in layer.graph.edges:
                votes[pair] = votes.get(pair, 0) + 1
        graph = DecisionGraph.from_pairs(
            layers[0].graph.nodes,
            [pair for pair, count in votes.items() if count * 2 > n_layers])
        return Clustering(transitive_closure_clusters(graph))


class WeightedVoteBaseline(PairwiseBaseline):
    """Votes weighted by each function's per-pair training accuracy.

    A pair is linked when the accuracy-weighted vote mass of "link"
    exceeds that of "no link".
    """

    name = "weighted_vote"

    def __init__(self, function_names: Sequence[str] = ALL_FUNCTION_NAMES):
        self.function_names = tuple(function_names)

    def resolve_block(self, block: NameCollection,
                      graphs: dict[str, WeightedPairGraph],
                      training: TrainingSample) -> Clustering:
        layers = baseline_layers(graphs, training, self.function_names)
        nodes = layers[0].graph.nodes
        link_mass: dict[tuple[str, str], float] = {}
        total_mass = 0.0
        for layer in layers:
            weight = max(layer.training_accuracy, 1e-9)
            total_mass += weight
            for pair in layer.graph.edges:
                link_mass[pair] = link_mass.get(pair, 0.0) + weight
        graph = DecisionGraph.from_pairs(
            nodes,
            [pair for pair, mass in link_mass.items() if mass * 2 > total_mass])
        return Clustering(transitive_closure_clusters(graph))
