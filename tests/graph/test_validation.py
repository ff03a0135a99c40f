"""Graph/partition validation tests."""

from repro.graph.entity_graph import DecisionGraph
from repro.graph.validation import (
    graph_from_clusters,
    is_partition,
    is_union_of_cliques,
    missing_clique_edges,
)


class TestIsPartition:
    def test_valid(self):
        assert is_partition([{"a"}, {"b", "c"}], ["a", "b", "c"])

    def test_overlap_invalid(self):
        assert not is_partition([{"a", "b"}, {"b"}], ["a", "b"])

    def test_missing_item_invalid(self):
        assert not is_partition([{"a"}], ["a", "b"])

    def test_extra_item_invalid(self):
        assert not is_partition([{"a"}, {"z"}], ["a"])

    def test_empty_cluster_invalid(self):
        assert not is_partition([set(), {"a"}], ["a"])


class TestCliqueChecks:
    def test_union_of_cliques(self):
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert is_union_of_cliques(graph)

    def test_open_triangle_not_clique(self):
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert not is_union_of_cliques(graph)
        assert missing_clique_edges(graph) == {("a", "c")}

    def test_singletons_fine(self):
        graph = DecisionGraph(nodes=["a", "b"])
        assert is_union_of_cliques(graph)

    def test_closing_the_edges_fixes_it(self):
        graph = DecisionGraph.from_pairs(
            ["a", "b", "c"], [("a", "b"), ("b", "c")])
        closed = DecisionGraph.from_pairs(
            graph.nodes, graph.edges | missing_clique_edges(graph))
        assert is_union_of_cliques(closed)


class TestGraphFromClusters:
    def test_clique_per_cluster(self):
        graph = graph_from_clusters(["a", "b", "c", "d"],
                                    [{"a", "b", "c"}, {"d"}])
        assert graph.n_edges() == 3
        assert is_union_of_cliques(graph)

    def test_round_trip_with_closure(self):
        from repro.graph.transitive import transitive_closure_clusters
        clusters = [{"a", "b"}, {"c"}, {"d", "e", "f"}]
        graph = graph_from_clusters("abcdef", clusters)
        recovered = transitive_closure_clusters(graph)
        assert {frozenset(c) for c in recovered} == {frozenset(c) for c in clusters}
