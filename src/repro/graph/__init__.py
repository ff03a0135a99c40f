"""Entity-graph substrate.

The paper represents the resolution state as graphs over web pages: the
complete weighted graph ``G_w^fi`` per similarity function, the decision
graphs ``G_Dj`` after applying a decision criterion, the combined graph,
and finally a clustering obtained by transitive closure or correlation
clustering.  This package implements those graph types and algorithms.
"""

from repro.graph.entity_graph import (
    DecisionGraph,
    WeightedPairGraph,
    pair_key,
)
from repro.graph.components import UnionFind, connected_components
from repro.graph.star import star_cluster
from repro.graph.transitive import transitive_closure_clusters
from repro.graph.correlation import correlation_cluster
from repro.graph.validation import (
    is_partition,
    is_union_of_cliques,
    missing_clique_edges,
)

__all__ = [
    "pair_key",
    "WeightedPairGraph",
    "DecisionGraph",
    "UnionFind",
    "connected_components",
    "transitive_closure_clusters",
    "star_cluster",
    "correlation_cluster",
    "is_partition",
    "is_union_of_cliques",
    "missing_clique_edges",
]
