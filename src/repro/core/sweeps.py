"""Decision layers over pair vectors: one block's §IV decision step.

A block's similarity graph is one pair vector in its
:class:`~repro.graph.entity_graph.PairLayout`'s order (ascending block
positions ``(i, j)``, ``i < j``; a masked graph also holds its sorted
pair positions).  :class:`BlockSweep` runs every reader of that vector:
the training sample's (value, label) view is a gather by position, each
(function × criterion) layer's edges are one compare or region lookup
over the vector, and acc(G_Dj) — agreement of each layer's transitive
closure with the labels — labels the connected components of *all* the
block's layers in one pass, node ids offset by layer.

Two routes implement the sweep, chosen by the vector's type and hence
by the scoring backend that produced it
(:mod:`repro.similarity.backends`):

* :class:`ListRoute` — ``list`` vectors (the ``python`` backend, and
  graphs built by hand).  It runs the scalar rules'
  :meth:`~repro.core.decisions.FittedDecision.decide_all` and a
  union-find per layer (:func:`~repro.graph.components.integer_roots`);
  it is the reference and needs no numpy.
* :class:`NumpyRoute` — float64 arrays (the ``numpy`` backend).  It
  decides with array compares, ``searchsorted`` on k-means boundaries
  and equal-width bins computed once per graph, and closes all layers
  together.  Batching across layers is what pays: per-call overhead
  outweighs a 190-pair sweep done one layer at a time.

Both routes give identical edges, accuracies and probabilities — every
value sees the same IEEE operations — which
``tests/properties/test_decision_tables.py`` checks against the seed's
pair-by-pair loop at tolerance zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain, compress, repeat
from operator import add, eq, mul

from repro.core.regions import EqualWidthRegions, KMeansRegions, ThresholdRegions
from repro.folds import left_sum
from repro.graph.components import integer_roots
from repro.graph.entity_graph import DecisionGraph, PairLayout, as_list


class ListRoute:
    """The reference route over ``list`` vectors."""

    def vector(self, values: Sequence[float]) -> list[float]:
        return as_list(values)

    def decide(self, fitted, values: list[float], memo: dict) -> list[bool]:
        """``fitted``'s decision of every value (equal-width bins are
        assigned once per graph, in ``memo``)."""
        regions = fitted.profile.regions
        if type(regions) is EqualWidthRegions:
            key = ("equal_width", regions.n_bins)
            if key not in memo:
                memo[key] = list(regions.assign_all(values))
            assigned = memo[key]
        else:
            assigned = regions.assign_all(values)
        return list(map(fitted.profile.links.__getitem__, assigned))

    def probabilities(self, fitted, values: list[float]) -> list[float]:
        return list(fitted.link_probabilities(values))

    def linked(self, mask: Sequence[bool]) -> list[int]:
        """Entry indices where ``mask`` holds, ascending."""
        return list(compress(range(len(mask)), as_list(mask)))

    def at_least(self, values: list[float], threshold: float) -> list[int]:
        return [entry for entry, value in enumerate(values)
                if value >= threshold]

    def gather(self, values: list[float], entries: list[int]) -> list[float]:
        """``values[entry]`` per entry, 0.0 for ``-1``."""
        return [values[entry] if entry >= 0 else 0.0 for entry in entries]

    def average(self, vectors: list[list[float]],
                weights: Sequence[float]) -> list[float]:
        """``Σ_l w_l · v_l / Σ_l w_l`` per entry, folded left in layer
        order."""
        total = left_sum(weights)
        numerators = [0.0] * len(vectors[0])
        for vector, weight in zip(vectors, weights):
            numerators = list(map(add, numerators,
                                  map(mul, repeat(weight), vector)))
        return [numerator / total for numerator in numerators]

    def ends(self, layout: PairLayout, number: list[int] | None):
        """(earlier, later) node numbers of every entry of ``layout``
        (``number``: each block position's node number; ``None``: the
        positions themselves)."""
        earlier, later = layout.ends()
        if number is None:
            return earlier, later
        return [number[i] for i in earlier], [number[j] for j in later]

    def accuracies(self, n_numbers: int, groups, training) -> list[float]:
        """acc(G_Dj) of every layer: per graph ``(earlier, later, masks)``
        from :meth:`ends`, ``training`` as ``(left, right, labels)``."""
        left, right, labels = training
        found = []
        for earlier, later, masks in groups:
            for mask in masks:
                mask = as_list(mask)
                root = integer_roots(n_numbers, compress(earlier, mask),
                                     compress(later, mask)).__getitem__
                joined = map(eq, map(root, left), map(root, right))
                found.append(sum(map(eq, joined, labels)) / len(labels))
        return found


class NumpyRoute:
    """The batched route over float64 arrays."""

    def __init__(self):
        import numpy
        self.np = numpy

    def vector(self, values: Sequence[float]):
        return self.np.asarray(values, dtype=self.np.float64)

    def _regions(self, regions, values, memo: dict):
        np = self.np
        kind = type(regions)
        if kind is ThresholdRegions:
            if regions.n_regions == 1:
                return np.zeros(len(values), dtype=np.intp)
            return (values >= regions.threshold).astype(np.intp)
        if kind is EqualWidthRegions:
            key = ("equal_width", regions.n_bins)
            if key not in memo:
                scaled = self._clipped(values, memo) * float(regions.n_bins)
                memo[key] = np.minimum(scaled.astype(np.intp),
                                       regions.n_bins - 1)
            return memo[key]
        if kind is KMeansRegions:
            return np.searchsorted(np.asarray(regions.boundaries),
                                   self._clipped(values, memo), side="right")
        return np.fromiter(regions.assign_all(values.tolist()), np.intp,
                           len(values))

    def _clipped(self, values, memo: dict):
        if "clipped" not in memo:
            memo["clipped"] = self.np.clip(values, 0.0, 1.0)
        return memo["clipped"]

    def decide(self, fitted, values, memo: dict):
        profile = fitted.profile
        links = self.np.asarray(profile.links, dtype=bool)
        return links[self._regions(profile.regions, values, memo)]

    def probabilities(self, fitted, values):
        profile = fitted.profile
        accuracies = self.np.asarray(profile.accuracies,
                                     dtype=self.np.float64)
        return accuracies[self._regions(profile.regions, values, {})]

    def linked(self, mask):
        return self.np.flatnonzero(mask)

    def at_least(self, values, threshold: float):
        return self.np.flatnonzero(values >= threshold)

    def gather(self, values, entries: list[int]) -> list[float]:
        np = self.np
        entries = np.asarray(entries, dtype=np.intp)
        taken = values[np.maximum(entries, 0)] if len(values) else \
            np.zeros(len(entries))
        return np.where(entries >= 0, taken, 0.0).tolist()

    def average(self, vectors, weights: Sequence[float]):
        total = left_sum(weights)
        numerators = self.np.zeros(len(vectors[0]))
        for vector, weight in zip(vectors, weights):
            numerators = numerators + weight * self.vector(vector)
        return numerators / total

    def ends(self, layout: PairLayout, number: list[int] | None):
        np = self.np
        earlier, later = layout.memo("ends_array", lambda: (
            np.triu_indices(len(layout.nodes), k=1)
            if layout.positions is None else tuple(
                np.asarray(side, dtype=np.intp) for side in layout.ends())))
        if number is None:
            return earlier, later
        number = np.asarray(number, dtype=np.intp)
        return number[earlier], number[later]

    def accuracies(self, n_numbers: int, groups, training) -> list[float]:
        np = self.np
        left, right, labels = (np.asarray(column) for column in training)
        sources, targets, n_layers = [], [], 0
        for earlier, later, masks in groups:
            layer, entry = np.nonzero(
                np.asarray(masks, dtype=bool).reshape(len(masks), -1))
            offset = (layer + n_layers) * n_numbers
            sources.append(offset + earlier[entry])
            targets.append(offset + later[entry])
            n_layers += len(masks)
        roots = self._components(n_layers * n_numbers,
                                 np.concatenate(sources),
                                 np.concatenate(targets))
        roots = roots.reshape(n_layers, n_numbers)
        agree = (roots[:, left] == roots[:, right]) == labels
        return [correct / len(labels)
                for correct in np.count_nonzero(agree, axis=1).tolist()]

    def _components(self, n_nodes: int, sources, targets):
        """Root of every node: the smallest id of its component."""
        np = self.np
        parent = np.arange(n_nodes)
        while len(sources):
            # Hook every edge's larger root under its smaller one (roots
            # only ever point down, so no cycles), then jump pointers
            # until every tree is a star again.
            low = np.minimum(parent[sources], parent[targets])
            high = np.maximum(parent[sources], parent[targets])
            split = low != high
            if not split.any():
                break
            sources, targets = sources[split], targets[split]
            np.minimum.at(parent, high[split], low[split])
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
        return parent


LIST = ListRoute()
_NUMPY: NumpyRoute | None = None


def route_for(values: Sequence[float]) -> ListRoute | NumpyRoute:
    """The route for a pair vector: a ``list`` takes the reference
    route, an array the numpy one."""
    global _NUMPY
    if isinstance(values, list):
        return LIST
    if _NUMPY is None:
        _NUMPY = NumpyRoute()
    return _NUMPY


class BlockSweep:
    """One block's decision step over its pair vectors.

    Args:
        training: the block's labeled sample; its pairs are resolved to
            entry indices once per layout and reused by every function
            and layer.
    """

    def __init__(self, training=None):
        self.training = training
        self.labels = ([] if training is None
                       else [label for _, label in training.pairs])
        self._entries: dict[int, tuple[PairLayout, list[int]]] = {}

    def entries(self, layout: PairLayout) -> list[int]:
        """Each training pair's entry index in ``layout`` (-1: absent)."""
        cached = self._entries.get(id(layout))
        if cached is None or cached[0] is not layout:
            cached = self._entries[id(layout)] = (layout, layout.locate(
                pair for pair, _ in self.training.pairs))
        return cached[1]

    def labeled_values(self, graph) -> list[tuple[float, bool]]:
        """(similarity value, label) per training pair; pairs the graph
        does not hold read 0.0."""
        layout, values = graph.vector()
        found = route_for(values).gather(values, self.entries(layout))
        return list(zip(found, self.labels))

    def decide(self, layers: Sequence) -> None:
        """Set every layer's ``graph`` — and, with a training sample, its
        ``graph_accuracy`` — in one sweep per similarity graph and one
        closure over all layers.

        acc(G_Dj) scores the equivalence a graph *implies*: its
        transitive closure, because the final clustering is the closure
        (§IV-C).  An over-linking graph whose chains merge distinct
        persons scores poorly even when each of its edges looked right
        in isolation.  An empty training sample scores 0.0.
        """
        if not layers:
            return
        groups: dict[int, list] = {}
        for layer in layers:
            groups.setdefault(id(layer.similarity), []).append(layer)
        closure, ordered = [], []
        for group in groups.values():
            layout, values = group[0].similarity.vector()
            route = route_for(values)
            values = route.vector(values)
            memo: dict = {}
            masks = [route.decide(layer.fitted, values, memo)
                     for layer in group]
            for layer, mask in zip(group, masks):
                layer.graph = DecisionGraph(layout.nodes, layout=layout,
                                            linked=route.linked(mask))
            closure.append((route, layout, masks))
            ordered.extend(group)
        if self.training is None:
            return
        if not self.training.pairs:
            for layer in ordered:
                layer.graph_accuracy = 0.0
            return
        numbers: dict[str, int] = {}
        for node in chain(chain.from_iterable(
                layout.nodes for _, layout, _ in closure),
                chain.from_iterable(pair for pair, _ in self.training.pairs)):
            numbers.setdefault(node, len(numbers))
        route = closure[0][0]
        prefix = list(numbers)
        groups_in_numbers = []
        for _, layout, masks in closure:
            number = (None if prefix[:len(layout.nodes)] == layout.nodes
                      else [numbers[node] for node in layout.nodes])
            groups_in_numbers.append((*route.ends(layout, number), masks))
        training = ([numbers[left] for (left, _), _ in self.training.pairs],
                    [numbers[right] for (_, right), _ in self.training.pairs],
                    self.labels)
        for layer, accuracy in zip(ordered, route.accuracies(
                len(numbers), groups_in_numbers, training)):
            layer.graph_accuracy = accuracy
