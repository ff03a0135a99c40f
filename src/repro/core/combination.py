"""Combining multiple similarity functions (§IV-B).

Every (similarity function, decision criterion) combination yields a
:class:`DecisionLayer`: a decision graph G_Dj plus per-pair link
probabilities and a training-set accuracy estimate acc(G_Dj).  Combiners
merge layers into one graph:

* :class:`BestGraphSelector` — estimate every layer's overall accuracy and
  keep the single best graph.  The paper reports this performed best on
  its datasets (the C columns of Table II), while noting the winner varies.
* :class:`WeightedAverageCombiner` — the multigraph route: weight each
  layer's per-pair link probability by the layer's accuracy, average, and
  learn an optimal threshold on the combined value (the W column).
* :class:`MajorityVoteCombiner` — classic classifier-fusion baseline the
  related work discusses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import TypeVar

from repro.core.decisions import FittedDecision
from repro.core.labels import TrainingSample
from repro.core.registry import COMBINERS, register_combiner
from repro.core.thresholds import learn_threshold
from repro.graph.entity_graph import DecisionGraph, PairKey, WeightedPairGraph


@dataclass
class DecisionLayer:
    """One (function, criterion) decision graph with its estimates.

    Attributes:
        function_name: e.g. ``"F3"``.
        criterion_name: e.g. ``"kmeans"``.
        graph: the layer's decision graph G_Dj.
        probabilities: per-pair link-probability estimates (every scored
            pair, not only asserted edges — negative evidence matters for
            averaging).  ``None`` defers them: they are computed from
            ``similarity`` on first read, so layers a combiner never
            consults never pay for their quadratic dict.
        fitted: the fitted decision backing this layer.
        graph_accuracy: acc(G_Dj) — the fraction of training pairs whose
            label matches the equivalence the graph *implies* (i.e. after
            transitive closure, since the final resolution is the closure).
            This is the selection signal of best-graph combination: it
            punishes over-linking layers whose chains merge everything,
            which raw per-pair accuracy cannot see.
        similarity: the weighted graph the layer was decided over — the
            source of deferred ``probabilities`` (unused otherwise).
    """

    function_name: str
    criterion_name: str
    graph: DecisionGraph
    probabilities: dict[PairKey, float] | None
    fitted: FittedDecision
    graph_accuracy: float = 0.0
    similarity: WeightedPairGraph | None = field(
        default=None, repr=False, compare=False)

    @property
    def label(self) -> str:
        return f"{self.function_name}/{self.criterion_name}"

    @property
    def training_accuracy(self) -> float:
        """Per-pair decision accuracy on the training sample."""
        return self.fitted.training_accuracy


def decided_edges(fitted: FittedDecision,
                  graph: WeightedPairGraph) -> set[PairKey]:
    """The pairs ``fitted`` links, inserted in the graph's pair order.

    The single definition of the edge rule, shared by fit-time layer
    building and predict-time re-application — which keeps fit/predict
    bit-identical by construction.
    """
    weights = graph.weights
    return set(compress(weights, fitted.decide_all(weights.values())))


def decided_probabilities(fitted: FittedDecision,
                          graph: WeightedPairGraph) -> dict[PairKey, float]:
    """``fitted``'s link probability of every pair, in the graph's order."""
    weights = graph.weights
    return dict(zip(weights, fitted.link_probabilities(weights.values())))


def _layer_probabilities(layer: DecisionLayer) -> dict[PairKey, float]:
    if layer._probabilities is None:
        layer._probabilities = decided_probabilities(layer.fitted,
                                                     layer.similarity)
    return layer._probabilities


def _set_layer_probabilities(layer: DecisionLayer,
                             probabilities: dict[PairKey, float] | None,
                             ) -> None:
    layer._probabilities = probabilities


# Installed after @dataclass ran, so the generated __init__ assigns the
# constructor argument through the setter instead of taking the property
# object for a field default.
DecisionLayer.probabilities = property(_layer_probabilities,
                                       _set_layer_probabilities)


def decide_layer(function_name: str, criterion_name: str,
                 fitted: FittedDecision, graph: WeightedPairGraph,
                 graph_accuracy: float = 0.0) -> DecisionLayer:
    """One fitted decision applied to one similarity graph: the layer's
    edges now, its probabilities on first read."""
    return DecisionLayer(
        function_name=function_name,
        criterion_name=criterion_name,
        graph=DecisionGraph(nodes=list(graph.nodes),
                            edges=decided_edges(fitted, graph)),
        probabilities=None,
        fitted=fitted,
        graph_accuracy=graph_accuracy,
        similarity=graph,
    )


@dataclass
class CombinationResult:
    """The combined graph G_combined plus diagnostics.

    Attributes:
        graph: combined decision graph.
        probabilities: combined per-pair link probabilities (drives
            correlation clustering when selected).
        chosen_layer: the winning layer's label (best-graph selection only).
        threshold: the learned combination threshold (weighted average only).
    """

    graph: DecisionGraph
    probabilities: WeightedPairGraph
    chosen_layer: str | None = None
    threshold: float | None = None
    diagnostics: dict[str, float] = field(default_factory=dict)


#: A fitted or decision layer — the combiner rules that only read
#: ``label`` / ``function_name`` / the accuracy estimates take either.
Layer = TypeVar("Layer")


class Combiner(ABC):
    """Merges decision layers into one combined graph.

    ``combine`` is the fit-time path: it may consult the labeled training
    sample (best-graph selection scores layers on it, weighted averaging
    learns its link threshold on it).  Whatever it learned beyond the
    layers themselves must be captured by ``fit_params`` so that ``apply``
    can re-combine the same layers on *unlabeled* data — that pair of
    methods is what lets a fitted :class:`~repro.core.model.ResolverModel`
    serve predictions without ground truth.
    """

    name: str

    @abstractmethod
    def combine(self, layers: Sequence[DecisionLayer],
                training: TrainingSample) -> CombinationResult:
        """Combine ``layers`` (all over the same node universe).

        Raises:
            ValueError: when called with no layers.
        """

    def fit_params(self, result: CombinationResult) -> dict[str, object]:
        """JSON-serializable parameters ``apply`` needs (default: none)."""
        return {}

    def apply(self, layers: Sequence[DecisionLayer],
              params: dict[str, object]) -> CombinationResult:
        """Re-combine ``layers`` without labels, from stored ``params``.

        Must reproduce ``combine``'s output bit-for-bit when the layers
        carry the same fitted decisions the params were learned with.

        Raises:
            ValueError: when called with no layers or unusable params.
        """
        raise NotImplementedError(
            f"combiner {self.name!r} does not support label-free application")

    def consulted_layers(self, layers: Sequence[Layer],
                         params: dict[str, object]) -> list[Layer]:
        """The layers :meth:`apply` reads, given the stored ``params``.

        ``apply`` over just these must equal ``apply`` over all of
        ``layers``.  Every label-free path derives from this one rule
        which similarity functions to score and which decision layers to
        build, so whatever a combiner ignores is never computed.  Works
        on fitted layers and decision layers alike (anything carrying
        ``label`` and ``graph_accuracy``).  Default: every layer.
        """
        return list(layers)


def consulted_function_names(layers: Sequence[Layer]) -> list[str]:
    """Names of the similarity functions ``layers`` decide over, in
    first-appearance order."""
    return list(dict.fromkeys(layer.function_name for layer in layers))


def _require_layers(layers: Sequence[DecisionLayer]) -> None:
    if not layers:
        raise ValueError("cannot combine zero decision layers")


@register_combiner("best_graph")
class BestGraphSelector(Combiner):
    """Keep the layer with the highest estimated graph accuracy acc(G_Dj).

    Ties break toward the earlier layer (stable, deterministic).  This is
    dynamic classifier *selection* at the graph level; the paper found it
    the strongest combiner on both datasets.
    """

    name = "best_graph"

    def combine(self, layers: Sequence[DecisionLayer],
                training: TrainingSample) -> CombinationResult:
        _require_layers(layers)
        best = max(layers, key=lambda layer: layer.graph_accuracy)
        return self._select(best)

    def fit_params(self, result: CombinationResult) -> dict[str, object]:
        return {"chosen_layer": result.chosen_layer}

    def apply(self, layers: Sequence[DecisionLayer],
              params: dict[str, object]) -> CombinationResult:
        return self._select(self.consulted_layers(layers, params)[0])

    def consulted_layers(self, layers: Sequence[Layer],
                         params: dict[str, object]) -> list[Layer]:
        _require_layers(layers)
        chosen_label = params.get("chosen_layer")
        best = next((layer for layer in layers if layer.label == chosen_label),
                    None)
        if best is None:
            # The stored winner is gone (e.g. the model now runs a layer
            # subset); re-select on the stored accuracy estimates, which
            # uses the same tie-breaking as fit-time selection.
            best = max(layers, key=lambda layer: layer.graph_accuracy)
        return [best]

    def _select(self, best: DecisionLayer) -> CombinationResult:
        probabilities = WeightedPairGraph(
            nodes=list(best.graph.nodes), weights=dict(best.probabilities))
        return CombinationResult(
            graph=DecisionGraph(nodes=list(best.graph.nodes),
                                edges=set(best.graph.edges)),
            probabilities=probabilities,
            chosen_layer=best.label,
            diagnostics={"chosen_accuracy": best.graph_accuracy},
        )


def average_probabilities(layers: Sequence[DecisionLayer],
                          weights: Sequence[float]) -> dict[PairKey, float]:
    """Weight-averaged per-pair link probabilities across layers."""
    total_weight = sum(weights)
    combined: dict[PairKey, float] = {}
    all_pairs: set[PairKey] = set()
    for layer in layers:
        all_pairs.update(layer.probabilities)
    for pair in all_pairs:
        numerator = 0.0
        for layer, weight in zip(layers, weights):
            numerator += weight * layer.probabilities.get(pair, 0.0)
        combined[pair] = numerator / total_weight
    return combined


def thresholded_result(nodes: list[str], combined: dict[PairKey, float],
                       threshold: float,
                       diagnostics: dict[str, float] | None = None,
                       ) -> CombinationResult:
    """Build a :class:`CombinationResult` by cutting averaged probabilities
    at ``threshold`` (link iff probability >= threshold)."""
    graph = DecisionGraph(nodes=nodes)
    for pair, probability in combined.items():
        if probability >= threshold:
            graph.edges.add(pair)
    return CombinationResult(
        graph=graph,
        probabilities=WeightedPairGraph(nodes=nodes, weights=combined),
        threshold=threshold,
        diagnostics=diagnostics or {},
    )


@register_combiner("weighted_average")
class WeightedAverageCombiner(Combiner):
    """Accuracy-weighted average of per-layer link probabilities.

    Every pair's combined probability is
    ``Σ_l acc_l · p_l(pair) / Σ_l acc_l``; the link threshold on the
    combined value is then learned on the training sample (§IV-B).
    """

    name = "weighted_average"

    def layer_weights(self, layers: Sequence[Layer]) -> list[float]:
        """Each layer's weight in the average: its training accuracy
        (floored so an all-wrong layer cannot zero the denominator)."""
        return [max(layer.training_accuracy, 1e-9) for layer in layers]

    def combine(self, layers: Sequence[DecisionLayer],
                training: TrainingSample) -> CombinationResult:
        _require_layers(layers)
        nodes = list(layers[0].graph.nodes)
        combined = average_probabilities(layers, self.layer_weights(layers))
        labeled = [(combined.get(pair, 0.0), label) for pair, label in training.pairs]
        threshold = learn_threshold(labeled)
        return thresholded_result(
            nodes, combined, threshold.threshold,
            diagnostics={"training_accuracy": threshold.training_accuracy})

    def fit_params(self, result: CombinationResult) -> dict[str, object]:
        return {"threshold": result.threshold,
                "diagnostics": dict(result.diagnostics)}

    def apply(self, layers: Sequence[DecisionLayer],
              params: dict[str, object]) -> CombinationResult:
        _require_layers(layers)
        threshold = params.get("threshold")
        if threshold is None:
            raise ValueError(
                "weighted_average needs a stored 'threshold' to apply")
        nodes = list(layers[0].graph.nodes)
        combined = average_probabilities(layers, self.layer_weights(layers))
        return thresholded_result(
            nodes, combined, float(threshold),
            diagnostics=dict(params.get("diagnostics") or {}))


@register_combiner("majority")
class MajorityVoteCombiner(Combiner):
    """Edge iff a strict majority of layers assert it (classifier fusion)."""

    name = "majority"

    def apply(self, layers: Sequence[DecisionLayer],
              params: dict[str, object]) -> CombinationResult:
        # Voting never consults labels; apply is combine without training.
        return self.combine(layers, TrainingSample.from_pairs([]))

    def combine(self, layers: Sequence[DecisionLayer],
                training: TrainingSample) -> CombinationResult:
        _require_layers(layers)
        nodes = list(layers[0].graph.nodes)
        n_layers = len(layers)
        votes: dict[PairKey, int] = {}
        all_pairs: set[PairKey] = set()
        for layer in layers:
            all_pairs.update(layer.probabilities)
            for pair in layer.graph.edges:
                votes[pair] = votes.get(pair, 0) + 1

        graph = DecisionGraph(nodes=nodes)
        probabilities: dict[PairKey, float] = {}
        for pair in all_pairs:
            fraction = votes.get(pair, 0) / n_layers
            probabilities[pair] = fraction
            if fraction > 0.5:
                graph.edges.add(pair)
        return CombinationResult(
            graph=graph,
            probabilities=WeightedPairGraph(nodes=nodes, weights=probabilities),
        )


def build_combiner(name: str) -> Combiner:
    """Combiner factory for config strings.

    Resolves through the :data:`~repro.core.registry.COMBINERS` registry,
    so combiners added with ``@register_combiner`` are constructible here
    without editing this module.

    Raises:
        ValueError: for unknown combiner names.
    """
    factory = COMBINERS.get(name)
    return factory()
