"""Star clustering for entity resolution.

The paper's conclusion notes that "none of the [clustering] methods is
fully compliant with the objectives of entity resolution in the Web
context"; star clustering (Aslam, Pelekhov & Rus) is the classic
alternative used by several WePS systems.  It covers the similarity graph
with star-shaped subgraphs: repeatedly pick the highest-degree unassigned
node as a star center and absorb its unassigned neighbors as satellites.

Compared to transitive closure, star clustering does not chain: two pages
are only grouped when both are similar to a common center, which bounds
the damage of isolated false-positive edges.
"""

from __future__ import annotations

from math import fsum

from repro.graph.entity_graph import DecisionGraph, WeightedPairGraph, pair_key


def star_cluster(graph: DecisionGraph,
                 weights: WeightedPairGraph | None = None) -> list[set[str]]:
    """Cluster a decision graph with (offline) star clustering.

    Args:
        graph: the combined decision graph (edges = "same person" votes).
        weights: optional link probabilities; when given, star centers are
            chosen by weighted degree, which prefers confident hubs.

    Returns:
        The entity partition; unassigned isolated pages become singletons.
    """
    adjacency = graph.adjacency()

    def degree(node: str) -> float:
        if weights is None:
            return float(len(adjacency[node]))
        # fsum is exact, so the set's iteration order cannot move the
        # last ulp — and with it the (degree, node) tie-break.
        return fsum(weights.weights.get(pair_key(node, other), 0.0)
                    for other in adjacency[node])

    # Sort once by (degree, node) descending; the greedy cover scans this
    # order and skips already-assigned nodes, which is equivalent to
    # repeatedly extracting the max-degree unassigned node.
    order = sorted(graph.nodes, key=lambda node: (-degree(node), node))

    assigned: set[str] = set()
    clusters: list[set[str]] = []
    for center in order:
        if center in assigned:
            continue
        satellites = {node for node in adjacency[center]
                      if node not in assigned}
        cluster = {center} | satellites
        assigned.update(cluster)
        clusters.append(cluster)
    return clusters
