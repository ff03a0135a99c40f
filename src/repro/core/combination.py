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
from typing import TypeVar

from repro.core.decisions import FittedDecision
from repro.core.labels import TrainingSample
from repro.core.registry import COMBINERS, register_combiner
from repro.core.thresholds import learn_threshold
from repro.core.sweeps import route_for
from repro.graph.entity_graph import (
    DecisionGraph,
    PairKey,
    PairLayout,
    WeightedPairGraph,
    as_list,
)


@dataclass
class DecisionLayer:
    """One (function, criterion) decision graph with its estimates.

    Attributes:
        function_name: e.g. ``"F3"``.
        criterion_name: e.g. ``"kmeans"``.
        graph: the layer's decision graph G_Dj.
        probabilities: per-pair link-probability estimates (every scored
            pair, not only asserted edges — negative evidence matters for
            averaging), read as a mapping.  ``None`` defers them: they
            are computed from ``similarity`` on first read of
            :attr:`probability_graph` (the vector the combiners use), so
            layers a combiner never consults never pay for them.
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
    graph: DecisionGraph | None
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

    @property
    def probability_graph(self) -> WeightedPairGraph:
        """The link probabilities as a graph over the layer's pages —
        in ``similarity``'s layout when computed from it."""
        if self._probabilities is None:
            layout, values = self.similarity.vector()
            route = route_for(values)
            self._probabilities = WeightedPairGraph(
                layout.nodes, layout=layout,
                values=route.probabilities(self.fitted,
                                           route.vector(values)))
        return self._probabilities


def _layer_probabilities(layer: DecisionLayer):
    return layer.probability_graph.weights


def _set_layer_probabilities(layer: DecisionLayer,
                             probabilities: dict[PairKey, float] | None,
                             ) -> None:
    layer._probabilities = (None if probabilities is None else
                            WeightedPairGraph(layer.graph.nodes,
                                              weights=probabilities))


# Installed after @dataclass ran, so the generated __init__ assigns the
# constructor argument through the setter instead of taking the property
# object for a field default.
DecisionLayer.probabilities = property(_layer_probabilities,
                                       _set_layer_probabilities)


def undecided_layer(function_name: str, criterion_name: str,
                    fitted: FittedDecision, graph: WeightedPairGraph,
                    graph_accuracy: float = 0.0) -> DecisionLayer:
    """A layer whose edges a :class:`~repro.core.sweeps.BlockSweep`
    decides together with its block's other layers."""
    return DecisionLayer(
        function_name=function_name,
        criterion_name=criterion_name,
        graph=None,
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
        return CombinationResult(
            graph=best.graph.copy(),
            probabilities=best.probability_graph.copy(),
            chosen_layer=best.label,
            diagnostics={"chosen_accuracy": best.graph_accuracy},
        )


def average_probabilities(layers: Sequence[DecisionLayer],
                          weights: Sequence[float]) -> WeightedPairGraph:
    """Weight-averaged per-pair link probabilities across layers.

    The result holds every pair some layer holds — a pair absent from
    every layer stays absent, a stored 0.0 stays stored — and reads a
    pair a layer lacks as 0.0.  Each pair's average is a left fold in
    layer order, so both routes give the same bits.

    Raises:
        ValueError: when the layers span different pages.
    """
    graphs = [layer.probability_graph for layer in layers]
    vectors = [graph.vector() for graph in graphs]
    layout = _union_layout([layout for layout, _ in vectors])
    route = route_for(vectors[0][1])
    aligned = [route.vector(values) if layout_of == layout else
               route.vector(route.gather(route.vector(values),
                                         layout_of.locate(layout.keys())))
               for layout_of, values in vectors]
    return WeightedPairGraph(layout.nodes, layout=layout,
                             values=route.average(aligned, weights))


def _union_layout(layouts: Sequence[PairLayout]) -> PairLayout:
    """The one layout holding every pair of ``layouts``."""
    first = layouts[0]
    if all(layout == first for layout in layouts):
        return first
    if any(layout.nodes != first.nodes for layout in layouts):
        raise ValueError("cannot combine layers over different pages")
    full = len(PairLayout(first.nodes))
    held = set()
    for layout in layouts:
        held.update(range(full) if layout.positions is None
                    else as_list(layout.positions))
    return PairLayout(first.nodes,
                      None if len(held) == full else sorted(held))


def thresholded_result(combined: WeightedPairGraph, threshold: float,
                       diagnostics: dict[str, float] | None = None,
                       ) -> CombinationResult:
    """Build a :class:`CombinationResult` by cutting averaged probabilities
    at ``threshold`` (link iff probability >= threshold)."""
    layout, values = combined.vector()
    route = route_for(values)
    graph = DecisionGraph(layout.nodes, layout=layout,
                          linked=route.at_least(route.vector(values),
                                                threshold))
    return CombinationResult(
        graph=graph,
        probabilities=combined,
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
        combined = average_probabilities(layers, self.layer_weights(layers))
        threshold = learn_threshold(training.labeled_values(combined))
        return thresholded_result(
            combined, threshold.threshold,
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
        combined = average_probabilities(layers, self.layer_weights(layers))
        return thresholded_result(
            combined, float(threshold),
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
