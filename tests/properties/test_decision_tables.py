"""Bulk decision sweeps ≡ the scalar rules they replaced.

Decision layers are applied to whole similarity graphs through
``FittedDecision.decide_all`` / ``link_probabilities`` (per-region tables
indexed from C-level loops).  The scalar ``decide`` / ``link_probability``
and the seed's pair-by-pair loop stay here as the reference: outcomes
must be equal value by value, and the layer containers must be filled in
the graph's pair order.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accuracy import RegionAccuracyProfile
from repro.core.combination import decided_edges, decided_probabilities
from repro.core.decisions import FittedDecision, build_criteria
from repro.core.regions import Regions
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph
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


def assert_bulk_matches_scalar(fitted, probes):
    assert (list(fitted.decide_all(probes))
            == [fitted.decide(value) for value in probes])
    assert (list(fitted.link_probabilities(probes))
            == [fitted.link_probability(value) for value in probes])

    graph = graph_over(probes)
    edges = decided_edges(fitted, graph)
    probabilities = decided_probabilities(fitted, graph)
    (expected_graph, expected), = seed_loop([fitted], graph)
    assert edges == expected_graph.edges
    assert list(edges) == list(expected_graph.edges)
    assert probabilities == expected
    assert list(probabilities) == list(expected)


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
            assert decided_edges(fitted, graph) == set()
            assert decided_probabilities(fitted, graph) == {}


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
