"""Correlation clustering (Bansal, Blum & Chawla) for entity resolution.

The paper lists correlation clustering as an alternative to transitive
closure (§IV-C).  We implement the standard practical pipeline: the
CC-Pivot randomized algorithm (Ailon et al.) for a constant-factor initial
solution, followed by best-move local search.

Pair weights are link probabilities in [0, 1]; the agreement weight of a
pair is ``p − 0.5`` and the objective is to maximize the total agreement of
intra-cluster pairs minus the agreement of cut pairs with positive weight —
equivalently, minimize disagreements.
"""

from __future__ import annotations

import random

from repro.graph.entity_graph import WeightedPairGraph, pair_key


def correlation_cluster(
    graph: WeightedPairGraph,
    seed: int = 0,
    max_rounds: int = 20,
) -> list[set[str]]:
    """Cluster pages by correlation clustering over link probabilities.

    Args:
        graph: pair graph whose weights are link probabilities in [0, 1];
            missing pairs read as probability 0 (strong negative evidence).
        seed: RNG seed for the pivot order.
        max_rounds: local-search sweep budget.

    Returns:
        The entity partition as a list of page-id sets.
    """
    # Sorted ids, not block page order: the pivot shuffle and the
    # local-search sweep then see the same sequence however the block's
    # pages are ordered.
    nodes = sorted(graph.nodes)
    if not nodes:
        return []
    agreement = {pair: probability - 0.5 for pair, probability in graph.pairs()}
    rng = random.Random(seed)

    assignment = _pivot(nodes, agreement, rng)
    assignment = _local_search(nodes, agreement, assignment, max_rounds)

    clusters: dict[int, set[str]] = {}
    for node, label in assignment.items():
        clusters.setdefault(label, set()).add(node)
    return list(clusters.values())


def objective(graph: WeightedPairGraph, clusters: list[set[str]]) -> float:
    """Total intra-cluster agreement weight of a partition.

    Higher is better; useful for tests and for comparing clusterings.
    """
    label: dict[str, int] = {}
    for index, cluster in enumerate(clusters):
        for node in cluster:
            label[node] = index
    total = 0.0
    for (left, right), probability in graph.pairs():
        weight = probability - 0.5
        if label.get(left) == label.get(right):
            total += weight
    return total


def _pivot(nodes: list[str], agreement: dict[tuple[str, str], float],
           rng: random.Random) -> dict[str, int]:
    """CC-Pivot: random pivots absorb their positive neighbors."""
    order = list(nodes)
    rng.shuffle(order)
    assignment: dict[str, int] = {}
    next_label = 0
    for pivot_node in order:
        if pivot_node in assignment:
            continue
        assignment[pivot_node] = next_label
        for node in order:
            if node in assignment:
                continue
            weight = agreement.get(pair_key(pivot_node, node), -0.5)
            if weight > 0.0:
                assignment[node] = next_label
        next_label += 1
    return assignment


def _local_search(nodes: list[str], agreement: dict[tuple[str, str], float],
                  assignment: dict[str, int], max_rounds: int) -> dict[str, int]:
    """Best-move local search: move nodes between clusters while it helps."""
    assignment = dict(assignment)
    next_label = max(assignment.values(), default=-1) + 1
    for _ in range(max_rounds):
        improved = False
        for node in nodes:
            # Gain of `node` joining each cluster, relative to being alone.
            gains: dict[int, float] = {}
            for other in nodes:
                if other == node:
                    continue
                weight = agreement.get(pair_key(node, other), -0.5)
                label = assignment[other]
                gains[label] = gains.get(label, 0.0) + weight
            current_label = assignment[node]
            current_gain = gains.get(current_label, 0.0)
            best_label, best_gain = current_label, current_gain
            for label, gain in gains.items():
                if gain > best_gain:
                    best_label, best_gain = label, gain
            if best_gain < 0.0 and current_gain < 0.0:
                # Being alone beats every cluster, including the current one.
                best_label, best_gain = next_label, 0.0
                next_label += 1
            if best_label != current_label and best_gain > current_gain:
                assignment[node] = best_label
                improved = True
        if not improved:
            break
    return assignment
