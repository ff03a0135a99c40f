"""Structural checks on entity graphs and partitions.

§II of the paper: a *correct* entity graph is a union of pairwise disjoint
cliques (transitivity of the equivalence relation).  These helpers verify
that property and quantify how far a decision graph is from it — useful
both as test invariants and as diagnostics on intermediate graphs.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graph.components import connected_components
from repro.graph.entity_graph import DecisionGraph, pair_key


def is_partition(clusters: list[set[str]], nodes: Iterable[str]) -> bool:
    """True when ``clusters`` partition exactly the ``nodes`` universe."""
    node_set = set(nodes)
    seen: set[str] = set()
    for cluster in clusters:
        if not cluster:
            return False
        if cluster & seen:
            return False
        seen.update(cluster)
    return seen == node_set


def is_union_of_cliques(graph: DecisionGraph) -> bool:
    """True when every connected component of ``graph`` is a clique."""
    return not missing_clique_edges(graph)


def missing_clique_edges(graph: DecisionGraph) -> set[tuple[str, str]]:
    """Edges that transitivity implies but the graph lacks.

    Empty result means the graph already *is* a union of cliques, i.e. a
    legal entity graph.
    """
    missing: set[tuple[str, str]] = set()
    for component in connected_components(graph.nodes, graph.edges):
        members = sorted(component)
        for i, left in enumerate(members):
            for right in members[i + 1:]:
                key = pair_key(left, right)
                if key not in graph.edges:
                    missing.add(key)
    return missing


def graph_from_clusters(nodes: Iterable[str],
                        clusters: list[set[str]]) -> DecisionGraph:
    """The (clique-union) decision graph induced by a partition."""
    return DecisionGraph.from_pairs(nodes, [
        (left, right)
        for members in map(sorted, clusters)
        for i, left in enumerate(members)
        for right in members[i + 1:]])
