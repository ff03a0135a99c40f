"""Property-based tests for graph algorithms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.components import UnionFind, connected_components
from repro.graph.correlation import correlation_cluster
from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph, pair_key
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
