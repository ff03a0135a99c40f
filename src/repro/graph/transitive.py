"""Transitive-closure clustering (the paper's deployed clusterer).

Similarity functions are not transitive, but the target equivalence
relation is; the paper's implementation resolves the tension by taking the
transitive closure of the combined decision graph — i.e. the connected
components become the entity clusters.  The graph is closed over its
layout positions by :func:`~repro.graph.components.integer_roots`, an
integer parent list, never over page ids.
"""

from __future__ import annotations

from repro.graph.components import integer_roots
from repro.graph.entity_graph import DecisionGraph, as_list


def transitive_closure_clusters(graph: DecisionGraph) -> list[set[str]]:
    """Cluster a decision graph by transitive closure.

    Returns the connected components as the entity partition, in the
    order of their earliest page (names added in layout order); pages
    with no decision edges become singleton entities.  The graph is
    closed over its entry indices, without building its edge set.
    """
    layout, linked = graph.vector()
    earlier, later = layout.ends()
    linked = as_list(linked)
    nodes = layout.nodes
    roots = integer_roots(len(nodes), map(earlier.__getitem__, linked),
                          map(later.__getitem__, linked))
    # A root is its component's smallest position, so it is met first.
    clusters: dict[int, set[str]] = {}
    for node, root in zip(nodes, roots):
        clusters.setdefault(root, set()).add(node)
    return list(clusters.values())
