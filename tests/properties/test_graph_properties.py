"""Property-based tests for graph algorithms."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweeps import route_for
from repro.graph.components import (
    UnionFind,
    connected_components,
    integer_roots,
)
from repro.graph.correlation import correlation_cluster
from repro.graph.entity_graph import (
    DecisionGraph,
    PairLayout,
    WeightedPairGraph,
    as_list,
    pair_key,
    pair_position,
)
from repro.graph.transitive import transitive_closure_clusters
from repro.graph.validation import graph_from_clusters, is_partition

NODES = [f"n{i}" for i in range(8)]
node_strategy = st.sampled_from(NODES)
edge_strategy = st.tuples(node_strategy, node_strategy).filter(
    lambda pair: pair[0] != pair[1]).map(lambda pair: pair_key(*pair))
edges_strategy = st.frozensets(edge_strategy, max_size=20)


class TestClosureProperties:
    @given(edges_strategy)
    def test_components_partition_nodes(self, edges):
        graph = DecisionGraph.from_pairs(NODES, edges)
        clusters = transitive_closure_clusters(graph)
        assert is_partition([set(c) for c in clusters], NODES)

    @given(edges_strategy)
    def test_every_edge_is_intra_cluster(self, edges):
        graph = DecisionGraph.from_pairs(NODES, edges)
        clusters = transitive_closure_clusters(graph)
        membership = {}
        for index, cluster in enumerate(clusters):
            for node in cluster:
                membership[node] = index
        for left, right in edges:
            assert membership[left] == membership[right]

    @given(edges_strategy)
    def test_closure_idempotent(self, edges):
        graph = DecisionGraph.from_pairs(NODES, edges)
        clusters = transitive_closure_clusters(graph)
        closed = graph_from_clusters(NODES, [set(c) for c in clusters])
        reclustered = transitive_closure_clusters(closed)
        assert ({frozenset(c) for c in clusters}
                == {frozenset(c) for c in reclustered})

    @given(edges_strategy, edges_strategy)
    def test_monotone_in_edges(self, smaller, extra):
        small_graph = DecisionGraph.from_pairs(NODES, smaller)
        big_graph = DecisionGraph.from_pairs(NODES, smaller | extra)
        assert (len(transitive_closure_clusters(big_graph))
                <= len(transitive_closure_clusters(small_graph)))


class TestUnionFindProperties:
    @given(st.lists(edge_strategy, max_size=20))
    def test_matches_connected_components(self, edges):
        forest = UnionFind(NODES)
        for left, right in edges:
            forest.union(left, right)
        from_forest = {frozenset(group) for group in forest.groups()}
        from_function = {frozenset(group) for group in
                         connected_components(NODES, edges)}
        assert from_forest == from_function


@st.composite
def decided_graphs(draw):
    """A decision graph from one threshold over a similarity vector on a
    dense or masked layout, as ``list`` or float64 array (the ``python``
    and ``numpy`` routes), and its edges as block positions.  Pages are
    named out of sorted order, so cluster order is by position only."""
    n = draw(st.integers(min_value=0, max_value=14))
    nodes = [f"p{(7 * index) % 17:02d}-{index}" for index in range(n)]
    earlier, later = (side.tolist() for side in np.triu_indices(n, k=1))
    entries = list(range(len(earlier)))
    if draw(st.booleans()):
        entries = sorted(draw(st.sets(st.sampled_from(entries))
                              if entries else st.just(set())))
        layout = PairLayout(nodes, [pair_position(earlier[entry],
                                                  later[entry], n)
                                    for entry in entries])
    else:
        layout = PairLayout(nodes)
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                           min_size=len(entries), max_size=len(entries)))
    if draw(st.booleans()):
        values = np.asarray(values, dtype=np.float64)
    route = route_for(values)
    linked = route.at_least(values, draw(st.sampled_from([0.5, 0.75, 1.0])))
    graph = DecisionGraph(nodes, layout=layout, linked=linked)
    edges = [(earlier[entries[entry]], later[entries[entry]])
             for entry in as_list(linked)]
    return graph, edges


class TestIntegerClosure:
    """The closure over layout positions ≡ the hash-keyed union-find,
    cluster order included (ascending smallest member)."""

    @settings(max_examples=200, deadline=None)
    @given(decided_graphs())
    def test_matches_connected_components(self, drawn):
        graph, edges = drawn
        nodes = graph.nodes
        expected = [{nodes[position] for position in component}
                    for component in connected_components(range(len(nodes)),
                                                          edges)]
        assert transitive_closure_clusters(graph) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_long_chains_and_isolated_nodes(self, data):
        """A chain over ``n`` nodes linked in any order and direction,
        a few links cut, and three isolated nodes after it: every node's
        root is its component's smallest node."""
        n = data.draw(st.integers(min_value=1, max_value=300))
        links = data.draw(st.permutations(
            [(index, index + 1) for index in range(n - 1)]))
        links = [link[::-1] if data.draw(st.booleans()) else link
                 for link in links[data.draw(st.integers(0, 3)):]]
        smallest = {}
        for component in connected_components(range(n + 3), links):
            smallest.update(dict.fromkeys(component, min(component)))
        assert integer_roots(n + 3, [a for a, _ in links],
                             [b for _, b in links]) == [
            smallest[node] for node in range(n + 3)]


probability_strategy = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def probability_graphs(draw):
    return WeightedPairGraph.from_scores(NODES, {
        pair_key(left, right): draw(probability_strategy)
        for i, left in enumerate(NODES) for right in NODES[i + 1:]})


class TestCorrelationProperties:
    @settings(max_examples=25, deadline=None)
    @given(probability_graphs(), st.integers(min_value=0, max_value=5))
    def test_output_is_partition(self, graph, seed):
        clusters = correlation_cluster(graph, seed=seed)
        assert is_partition([set(c) for c in clusters], NODES)
