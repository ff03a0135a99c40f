"""Dynamic classifier selection (Woods, Kegelmeyer & Bowyer, 1997).

Instead of selecting one classifier per block (the paper's best-graph
combiner) or fusing votes, DCS selects a classifier *per sample*: for each
page pair, the function whose local accuracy — estimated in the region of
the pair's similarity value — is highest makes the decision.

Local accuracy of a (function, pair) combination is the confidence of the
function's region profile at the pair's value: ``max(p, 1 − p)`` where
``p`` is the estimated link probability.  This mirrors Woods et al.'s
partition-local accuracy estimates with our value-space regions playing
the role of the partitions.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.baselines.base import PairwiseBaseline, baseline_layers
from repro.core.labels import TrainingSample
from repro.corpus.documents import NameCollection
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph
from repro.graph.transitive import transitive_closure_clusters
from repro.metrics.clusterings import Clustering
from repro.similarity.functions import ALL_FUNCTION_NAMES


class DynamicSelectionBaseline(PairwiseBaseline):
    """Per-pair classifier selection by local (region) accuracy.

    Args:
        function_names: functions to select among.
        region_method: region construction for the local-accuracy
            estimates (``"kmeans"`` or ``"equal_width"``).
        region_k: region count.
    """

    name = "dynamic_selection"

    def __init__(self, function_names: Sequence[str] = ALL_FUNCTION_NAMES,
                 region_method: str = "kmeans", region_k: int = 10):
        self.function_names = tuple(function_names)
        self.region_method = region_method
        self.region_k = region_k

    def resolve_block(self, block: NameCollection,
                      graphs: dict[str, WeightedPairGraph],
                      training: TrainingSample) -> Clustering:
        layers = baseline_layers(
            graphs, training, self.function_names,
            criteria=(self.region_method,), region_k=self.region_k)
        probabilities = [layer.probability_graph.weights for layer in layers]
        edges = []
        for pair in dict.fromkeys(chain.from_iterable(probabilities)):
            best_confidence = -1.0
            best_decision = False
            for weights in probabilities:
                probability = weights.get(pair)
                if probability is None:
                    continue
                confidence = max(probability, 1.0 - probability)
                if confidence > best_confidence:
                    best_confidence = confidence
                    best_decision = probability > 0.5
            if best_decision:
                edges.append(pair)
        graph = DecisionGraph.from_pairs(layers[0].graph.nodes, edges)
        return Clustering(transitive_closure_clusters(graph))
