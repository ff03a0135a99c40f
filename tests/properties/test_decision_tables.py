"""Bulk decision sweeps ≡ the scalar rules they replaced.

Decision layers are applied to whole similarity graphs through
``FittedDecision.decide_all`` / ``link_probabilities`` (per-region tables
indexed from C-level loops) and, block by block, through
:class:`~repro.core.sweeps.BlockSweep` over pair vectors — a ``list``
route and a numpy route.  The scalar ``decide`` / ``link_probability``,
the seed's pair-by-pair loop, a string-keyed union-find and the seed's
dict weighted average stay here as the reference: outcomes must be
equal value by value at tolerance zero, and the layer containers must
be filled in the graph's pair order.
"""

import math

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.accuracy import RegionAccuracyProfile
from repro.core.combination import average_probabilities, undecided_layer
from repro.core.decisions import FittedDecision, build_criteria
from repro.core.labels import TrainingSample
from repro.core.regions import Regions, ThresholdRegions
from repro.core.sweeps import BlockSweep
from repro.core.thresholds import ALWAYS_LINK, NEVER_LINK, LearnedThreshold
from repro.graph.components import UnionFind
from repro.graph.entity_graph import (
    DecisionGraph,
    PairLayout,
    WeightedPairGraph,
    pair_key,
    pair_position,
)
from repro.ml.kmeans import KMeans1D

unit = st.floats(min_value=0.0, max_value=1.0)
anywhere = st.floats(min_value=-2.0, max_value=3.0)
labeled = st.lists(st.tuples(unit, st.booleans()), min_size=0, max_size=40)
CRITERIA = ("threshold", "equal_width", "kmeans")


class HalvesRegions(Regions):
    """A custom scheme (no bulk override): below / from one half."""

    n_regions = 2

    def assign(self, value):
        return 1 if value >= 0.5 else 0

    def bounds(self, region):
        return (0.0, 0.5) if region == 0 else (0.5, 1.0)

    def to_dict(self):
        return {"type": "halves"}


def around(value):
    return [math.nextafter(value, -math.inf), value,
            math.nextafter(value, math.inf)]


def probes_for(fitted: FittedDecision, extra):
    """Values that sit on every edge the fitted decision has."""
    probes = [0.0, 1.0, -0.0, -1.5, 2.5, *extra]
    regions = fitted.profile.regions
    for region in range(regions.n_regions):
        for bound in regions.bounds(region):
            probes.extend(around(bound))
    if fitted.threshold is not None:
        probes.extend(around(fitted.threshold.threshold))
    return probes


def seed_loop(decisions, graph):
    """The seed's eager application: one scalar call per pair."""
    results = [(DecisionGraph(nodes=list(graph.nodes)), {})
               for _ in decisions]
    for pair, value in graph.pairs():
        for decision, (decision_graph, probabilities) in zip(decisions,
                                                             results):
            probabilities[pair] = decision.link_probability(value)
            if decision.decide(value):
                decision_graph.edges.add(pair)
    return results


def graph_over(values):
    nodes = [f"p{index:03d}" for index in range(len(values) + 1)]
    weights = {(nodes[0], node): value
               for node, value in zip(nodes[1:], values)}
    return WeightedPairGraph(nodes=nodes, weights=weights)


def decided(fitted, graph):
    """``fitted`` applied to ``graph`` as a one-layer sweep: the layer's
    edge set and its probabilities as a mapping, in layout order."""
    layer = undecided_layer("F1", fitted.criterion_name, fitted, graph)
    BlockSweep().decide([layer])
    return layer.graph.edges, dict(layer.probability_graph.pairs())


def assert_bulk_matches_scalar(fitted, probes):
    assert (list(fitted.decide_all(probes))
            == [fitted.decide(value) for value in probes])
    assert (list(fitted.link_probabilities(probes))
            == [fitted.link_probability(value) for value in probes])

    graph = graph_over(probes)
    edges, probabilities = decided(fitted, graph)
    (expected_graph, expected), = seed_loop([fitted], graph)
    assert edges == expected_graph.edges
    assert list(edges) == list(expected_graph.edges)
    assert probabilities == expected
    assert list(probabilities) == list(expected)

    # The same probes as a float64 pair vector take the numpy route.
    numpy = pytest.importorskip("numpy")
    layout, values = graph.vector()
    swept = WeightedPairGraph(graph.nodes, layout=layout,
                              values=numpy.asarray(values, dtype=float))
    swept_edges, swept_probabilities = decided(fitted, swept)
    assert swept_edges == expected_graph.edges
    assert list(swept_probabilities.items()) == list(expected.items())


class TestBulkDecisions:
    @settings(max_examples=60)
    @given(labeled, st.lists(anywhere, max_size=20),
           st.integers(min_value=1, max_value=12))
    def test_every_criterion_matches_its_scalar_rule(self, data, extra, k):
        for criterion in build_criteria(CRITERIA, k=k):
            fitted = criterion.fit(data)
            assert_bulk_matches_scalar(fitted, probes_for(fitted, extra))

    @given(labeled, st.lists(anywhere, max_size=30))
    def test_custom_regions_take_the_scalar_fallback(self, data, extra):
        fitted = FittedDecision(
            criterion_name="halves",
            profile=RegionAccuracyProfile(HalvesRegions(), data),
            threshold=None, training_accuracy=0.0)
        assert_bulk_matches_scalar(fitted, probes_for(fitted, extra))

    @given(labeled, st.integers(min_value=1, max_value=12))
    def test_training_accuracy_is_the_scalar_hit_rate(self, data, k):
        for criterion in build_criteria(CRITERIA, k=k):
            fitted = criterion.fit(data)
            hits = sum(1 for value, label in data
                       if fitted.decide(value) == label)
            assert fitted.training_accuracy == (hits / len(data)
                                                if data else 0.0)

    @given(labeled, st.integers(min_value=1, max_value=12))
    def test_region_statistics_count_scalar_assignments(self, data, k):
        for criterion in build_criteria(CRITERIA, k=k):
            profile = criterion.fit(data).profile
            for region in range(profile.n_regions):
                members = [label for value, label in data
                           if profile.regions.assign(value) == region]
                stats = profile.region_stats(region)
                assert (stats.n_pairs, stats.n_links) == (len(members),
                                                          sum(members))

    def test_an_empty_graph_yields_empty_layers(self):
        for criterion in build_criteria(CRITERIA, k=10):
            fitted = criterion.fit([(0.2, False), (0.8, True)])
            graph = WeightedPairGraph(nodes=["a"], weights={})
            assert decided(fitted, graph) == (set(), {})


class TestKMeansAssign:
    @given(st.lists(unit, min_size=0, max_size=12).map(sorted), anywhere)
    def test_bisect_is_the_seed_binary_search(self, boundaries, value):
        low, high = 0, len(boundaries)
        while low < high:
            mid = (low + high) // 2
            if value < boundaries[mid]:
                high = mid
            else:
                low = mid + 1
        model = KMeans1D(centers=tuple([0.0] * (len(boundaries) + 1)),
                         boundaries=tuple(boundaries))
        assert model.assign(value) == low


# -- one block's sweep over pair vectors ≡ the seed's loops ----------------

def fixed_threshold(name, threshold, labeled_values):
    """A threshold decision that is not learned: ``ALWAYS_LINK`` links
    every stored pair, ``NEVER_LINK`` none."""
    return FittedDecision(
        criterion_name=name,
        profile=RegionAccuracyProfile(ThresholdRegions(threshold),
                                      labeled_values),
        threshold=LearnedThreshold(threshold, 0.0, len(labeled_values)),
        training_accuracy=0.0)


@st.composite
def blocks(draw):
    """(nodes, layout, two value lists, training sample): 0–7 pages,
    dense or masked, training pairs drawn from every pair of the block
    (masked-out ones read 0.0), possibly none."""
    n_pages = draw(st.integers(min_value=0, max_value=7))
    nodes = [f"p{index:03d}" for index in range(n_pages)]
    every = [(i, j) for i in range(n_pages) for j in range(i + 1, n_pages)]
    masked = draw(st.booleans())
    held = ([pair for pair in every if draw(st.booleans())]
            if masked else every)
    layout = PairLayout(nodes, [pair_position(i, j, n_pages)
                                for i, j in held] if masked else None)
    value = st.one_of(unit, st.sampled_from([0.0, 0.5, 1.0]))
    columns = [[draw(value) for _ in held] for _ in range(2)]
    sampled = draw(st.lists(st.tuples(st.sampled_from(every), st.booleans()),
                            max_size=12, unique_by=lambda item: item[0])
                   ) if every else []
    training = TrainingSample.from_pairs(
        [(pair_key(nodes[i], nodes[j]), label) for (i, j), label in sampled])
    return nodes, layout, held, columns, training


def seed_accuracy(graph: DecisionGraph, training: TrainingSample) -> float:
    """acc(G_Dj) with the seed's string-keyed union-find."""
    if not training.pairs:
        return 0.0
    forest = UnionFind(graph.nodes)
    for left, right in graph.edges:
        forest.union(left, right)
    return sum(forest.connected(left, right) == label
               for (left, right), label in training.pairs) / len(training)


def seed_average(probabilities: list[dict], weights: list[float]) -> dict:
    """The seed's dict weighted average."""
    total_weight = sum(weights)
    combined = {}
    for pair in set().union(*probabilities):
        numerator = 0.0
        for layer, weight in zip(probabilities, weights):
            numerator += weight * layer.get(pair, 0.0)
        combined[pair] = numerator / total_weight
    return combined


def hexes(pairs):
    return [(pair, float(value).hex()) for pair, value in pairs]


def small_block(n_pages, values=(), labels=()):
    """A dense block of ``n_pages`` pages, every pair holding the next of
    ``values`` in both graphs, the first pairs labeled ``labels``."""
    nodes = [f"p{index:03d}" for index in range(n_pages)]
    keys = [pair_key(nodes[i], nodes[j])
            for i in range(n_pages) for j in range(i + 1, n_pages)]
    held = [(i, j) for i in range(n_pages) for j in range(i + 1, n_pages)]
    return (nodes, PairLayout(nodes), held, [list(values), list(values)],
            TrainingSample.from_pairs(zip(keys, labels)))


class TestBlockSweep:
    @settings(max_examples=80, deadline=None)
    @given(blocks(), st.integers(min_value=1, max_value=12))
    @example(small_block(0), 10)
    @example(small_block(1), 10)
    @example(small_block(2, [0.4]), 10)
    @example(small_block(2, [0.4], [True]), 10)
    @example(small_block(3, [0.0, 0.5, 1.0], [True, False, True]), 2)
    def test_vector_sweep_is_the_seed_loop(self, block, k):
        nodes, layout, held, columns, training = block
        routes = [list]
        try:
            import numpy
            routes.append(lambda values: numpy.asarray(values, dtype=float))
        except ImportError:
            pass
        keys = [pair_key(nodes[i], nodes[j]) for i, j in held]
        references = [WeightedPairGraph(nodes, weights=dict(zip(keys, column)))
                      for column in columns]

        # The seed: (value, label) joins by dict lookup, each decision
        # pair by pair, closure accuracy on strings, a dict average.
        expected = []
        for graph in references:
            labeled = [(graph.weights.get(pair, 0.0), label)
                       for pair, label in training.pairs]
            fitted = [criterion.fit(labeled)
                      for criterion in build_criteria(CRITERIA, k=k)]
            fitted.append(FittedDecision(
                criterion_name="halves",
                profile=RegionAccuracyProfile(HalvesRegions(), labeled),
                threshold=None, training_accuracy=0.0))
            fitted.append(fixed_threshold("always", ALWAYS_LINK, labeled))
            fitted.append(fixed_threshold("never", NEVER_LINK, labeled))
            for decision, (decision_graph, probabilities) in zip(
                    fitted, seed_loop(fitted, graph)):
                expected.append((labeled, decision, decision_graph,
                                 probabilities,
                                 seed_accuracy(decision_graph, training)))
        weights = [max(entry[1].training_accuracy, 1e-9) for entry in expected]
        expected_average = seed_average([entry[3] for entry in expected],
                                        weights)

        for vector in routes:
            sweep = BlockSweep(training)
            layers = []
            for index, column in enumerate(columns):
                graph = WeightedPairGraph(nodes, layout=layout,
                                          values=vector(column))
                assert sweep.labeled_values(graph) == expected[6 * index][0]
                layers.extend(undecided_layer(f"F{index}", entry[1].criterion_name,
                                              entry[1], graph)
                              for entry in expected[6 * index:6 * index + 6])
            sweep.decide(layers)
            for layer, (_, _, decision_graph, probabilities, accuracy) in zip(
                    layers, expected):
                assert layer.graph.edges == decision_graph.edges
                assert layer.graph_accuracy == accuracy
                assert hexes(layer.probability_graph.pairs()) \
                    == hexes(probabilities.items())
            by_name = {layer.criterion_name: layer for layer in layers[:6]}
            assert by_name["always"].graph.n_edges() == len(held)
            assert by_name["never"].graph.n_edges() == 0
            if layers:
                combined = average_probabilities(layers, weights)
                assert dict(hexes(combined.pairs())) \
                    == dict(hexes(expected_average.items()))
                assert [pair for pair, _ in combined.pairs()] == keys

    def test_an_empty_training_sample_scores_zero(self):
        nodes = ["a", "b", "c"]
        graph = WeightedPairGraph(nodes, layout=PairLayout(nodes),
                                  values=[0.9, 0.1, 0.8])
        fitted = build_criteria(CRITERIA, k=3)[0].fit([])
        layers = [undecided_layer("F1", "threshold", fitted, graph)]
        BlockSweep(TrainingSample.from_pairs([])).decide(layers)
        assert layers[0].graph_accuracy == 0.0
