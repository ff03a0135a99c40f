"""Transitive-closure clustering (the paper's deployed clusterer).

Similarity functions are not transitive, but the target equivalence
relation is; the paper's implementation resolves the tension by taking the
transitive closure of the combined decision graph — i.e. the connected
components become the entity clusters.
"""

from __future__ import annotations

from repro.graph.components import connected_components
from repro.graph.entity_graph import DecisionGraph, as_list


def transitive_closure_clusters(graph: DecisionGraph) -> list[set[str]]:
    """Cluster a decision graph by transitive closure.

    Returns the connected components as the entity partition; pages with
    no decision edges become singleton entities.  The graph is closed
    over its entry indices, without building its edge set.
    """
    layout, linked = graph.vector()
    earlier, later = layout.ends()
    linked = as_list(linked)
    nodes = layout.nodes
    return [{nodes[position] for position in component}
            for component in connected_components(
                range(len(nodes)),
                zip(map(earlier.__getitem__, linked),
                    map(later.__getitem__, linked)))]
