"""Weighted pair graphs and decision graphs over web pages.

``WeightedPairGraph`` is the paper's complete weighted graph ``G_w^fi``:
every unordered page pair carries the similarity value reported by one
function.  ``DecisionGraph`` is an unweighted graph ``G_Dj`` whose edges
assert "same person" after a decision criterion has been applied.

Both come in two forms.  The **vector form** is what the scoring
backends emit and the decision layers sweep: one value (or one edge
flag) per pair in a :class:`PairLayout`'s fixed order — ascending block
positions ``(i, j)``, ``i < j`` — held as a ``list`` (the ``python``
backend) or a float64 array (``numpy``).  The **mapping form** keys
pairs by canonical :data:`PairKey`; graphs built by hand or edited pair
by pair use it.  ``weights`` / ``pairs()`` / ``edges`` read either form,
so callers that think in pair keys keep working; a vector graph builds
its ``weights`` dict only when asked, and counts it
(:attr:`WeightedPairGraph.dict_views`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from types import MappingProxyType

PairKey = tuple[str, str]


def pair_key(left: str, right: str) -> PairKey:
    """Canonical unordered pair key (lexicographically sorted).

    Raises:
        ValueError: for self-pairs; the entity graph has no self-loops.
    """
    if left == right:
        raise ValueError(f"self-pair not allowed: {left!r}")
    return (left, right) if left < right else (right, left)


def as_list(values: Sequence) -> list:
    """A pair vector as a ``list`` (an array's ``tolist()``)."""
    return values if isinstance(values, list) else values.tolist()


def pair_position(i: int, j: int, n_nodes: int) -> int:
    """Index of block positions ``(i, j)``, ``i < j``, among all
    ``n_nodes`` choose 2 pairs in row-major order."""
    return i * (2 * n_nodes - i - 1) // 2 + j - i - 1


class PairLayout:
    """The pair order of one block's vectors.

    Entries are the pairs of ``nodes`` in ascending block positions
    ``(i, j)``, ``i < j`` — the dense sweep's row-major order.
    ``positions`` is ``None`` when every pair is present, else the sorted
    row-major indices (:func:`pair_position`) of the present ones — a
    candidate mask's pairs.  A layout is immutable; the graphs of one
    ``block_graphs`` call share one, and derived lookups are built once
    on it.
    """

    def __init__(self, nodes: Sequence[str],
                 positions: Sequence[int] | None = None):
        self.nodes = list(nodes)
        self.positions = positions
        self._memo: dict = {}

    def __len__(self) -> int:
        if self.positions is None:
            n_nodes = len(self.nodes)
            return n_nodes * (n_nodes - 1) // 2
        return len(self.positions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairLayout):
            return NotImplemented
        return self is other or (
            self.nodes == other.nodes
            and (self.positions is None) == (other.positions is None)
            and (self.positions is None
                 or as_list(self.positions) == as_list(other.positions)))

    __hash__ = None

    def __getstate__(self) -> dict:
        return {"nodes": self.nodes, "positions": self.positions}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["nodes"], state["positions"])

    def memo(self, key, build):
        """``build()``, computed once per layout and key."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def ends(self) -> tuple[list[int], list[int]]:
        """(earlier, later) block positions of every entry, in order."""
        return self.memo("ends", self._ends)

    def _ends(self) -> tuple[list[int], list[int]]:
        n_nodes = len(self.nodes)
        if self.positions is None:
            earlier = [i for i in range(n_nodes) for _ in range(i + 1, n_nodes)]
            later = [j for i in range(n_nodes) for j in range(i + 1, n_nodes)]
            return earlier, later
        starts = [pair_position(i, i + 1, n_nodes) for i in range(n_nodes)]
        earlier = [bisect_right(starts, p) - 1 for p in as_list(self.positions)]
        later = [p - starts[i] + i + 1
                 for p, i in zip(as_list(self.positions), earlier)]
        return earlier, later

    def keys(self) -> list[PairKey]:
        """Canonical pair key of every entry, in order."""
        return self.memo("keys", lambda: [
            pair_key(self.nodes[i], self.nodes[j])
            for i, j in zip(*self.ends())])

    def index(self) -> dict[str, int]:
        """Block position of every node."""
        return self.memo("index", lambda: {
            node: position for position, node in enumerate(self.nodes)})

    def locate(self, pairs: Iterable[PairKey]) -> list[int]:
        """Entry index of every pair, ``-1`` for pairs the layout does not
        hold (unknown pages, or pairs outside a mask)."""
        index = self.index()
        n_nodes = len(self.nodes)
        positions = (None if self.positions is None
                     else as_list(self.positions))
        found = []
        for left, right in pairs:
            i, j = index.get(left), index.get(right)
            if i is None or j is None or i == j:
                found.append(-1)
                continue
            position = pair_position(min(i, j), max(i, j), n_nodes)
            if positions is not None:
                entry = bisect_left(positions, position)
                position = (entry if entry < len(positions)
                            and positions[entry] == position else -1)
            found.append(position)
        return found

    @classmethod
    def of(cls, nodes: Sequence[str],
           keys: Iterable[PairKey]) -> tuple["PairLayout", list[int]]:
        """The layout holding ``keys`` over ``nodes``, and each key's
        entry index.

        Raises:
            ValueError: for a key naming a page outside ``nodes``.
        """
        nodes = list(nodes)
        index = {node: position for position, node in enumerate(nodes)}
        n_nodes = len(nodes)
        placed = []
        for left, right in keys:
            i, j = index.get(left), index.get(right)
            if i is None or j is None:
                raise ValueError(
                    f"pair ({left!r}, {right!r}) names a page outside the "
                    f"graph's nodes")
            placed.append(pair_position(min(i, j), max(i, j), n_nodes))
        ordered = sorted(placed)
        if len(ordered) == n_nodes * (n_nodes - 1) // 2:
            layout = cls(nodes)
        else:
            layout = cls(nodes, ordered)
        rank = {position: entry for entry, position in enumerate(ordered)}
        return layout, [rank[position] for position in placed]


class WeightedPairGraph:
    """Weighted graph over one block's pages.

    Args:
        nodes: page ids in block order.
        weights: mapping form — similarity value per canonical pair key
            (held by reference).  A *complete* graph stores every pair;
            sparse instances are permitted (e.g. after blocking) and
            missing pairs read as 0.0.
        values: vector form — one value per entry of ``layout`` (default:
            every pair of ``nodes``, held by reference); a vector graph
            is read-only, so its values may be shared.
        layout: the :class:`PairLayout` ``values`` follow.
    """

    #: Mapping views built from vector graphs, process-wide.  The
    #: default fit → predict path builds none.
    dict_views = 0

    def __init__(self, nodes: Iterable[str],
                 weights: dict[PairKey, float] | None = None, *,
                 values: Sequence[float] | None = None,
                 layout: PairLayout | None = None):
        if values is None:
            self.nodes = list(nodes)
            self._weights = {} if weights is None else weights
            self._layout = None
        else:
            self._layout = layout if layout is not None else PairLayout(nodes)
            self.nodes = self._layout.nodes
            self._weights = None
        self._values = values
        self._view = None

    @classmethod
    def from_scores(cls, nodes: Iterable[str],
                    scores: dict[PairKey, float]) -> "WeightedPairGraph":
        """Build from precomputed scores (keys must be canonical)."""
        return cls(nodes=list(nodes), weights=dict(scores))

    def vector(self) -> tuple[PairLayout, Sequence[float]]:
        """The graph as (layout, values).  A mapping-form graph is laid
        out afresh on every call (its dict may have changed).

        Raises:
            ValueError: when a stored pair names a page outside ``nodes``.
        """
        if self._layout is not None:
            return self._layout, self._values
        layout, entries = PairLayout.of(self.nodes, self._weights)
        values = [0.0] * len(entries)
        for entry, value in zip(entries, self._weights.values()):
            values[entry] = value
        return layout, values

    def copy(self) -> "WeightedPairGraph":
        """An independent graph with the same pairs.  A vector graph's
        copy shares its layout and values, which never change."""
        if self._weights is not None:
            return WeightedPairGraph(self.nodes, weights=dict(self._weights))
        return WeightedPairGraph(self.nodes, layout=self._layout,
                                 values=self._values)

    @property
    def weights(self):
        """Similarity value per canonical pair key.  On a vector graph a
        read-only view, built on first read."""
        if self._weights is not None:
            return self._weights
        if self._view is None:
            WeightedPairGraph.dict_views += 1
            self._view = MappingProxyType(dict(self.pairs()))
        return self._view

    def weight(self, left: str, right: str) -> float:
        """Similarity of a pair (0.0 when absent)."""
        if self._weights is not None:
            return self._weights.get(pair_key(left, right), 0.0)
        entry, = self._layout.locate([(left, right)])
        return 0.0 if entry < 0 else float(self._values[entry])

    def set_weight(self, left: str, right: str, value: float) -> None:
        """Record a pair similarity.

        Raises:
            TypeError: on a vector graph, which is read-only — its values
                may be shared with a cache or another layer.  Edit a
                mapping-form graph instead, e.g. ``WeightedPairGraph(
                graph.nodes, weights=dict(graph.pairs()))``.
        """
        if self._weights is None:
            raise TypeError("a vector graph is read-only; edit a "
                            "mapping-form copy instead")
        self._weights[pair_key(left, right)] = value

    def pairs(self) -> Iterator[tuple[PairKey, float]]:
        """All stored (pair, weight) items."""
        if self._weights is not None:
            return iter(self._weights.items())
        return zip(self._layout.keys(), as_list(self._values))

    def n_pairs(self) -> int:
        if self._weights is not None:
            return len(self._weights)
        return len(self._values)

    def values(self) -> list[float]:
        """All similarity values (for region fitting and diagnostics)."""
        if self._weights is not None:
            return list(self._weights.values())
        return list(as_list(self._values))

    def is_complete(self) -> bool:
        """True when every unordered node pair has a stored weight."""
        n_nodes = len(self.nodes)
        return self.n_pairs() == n_nodes * (n_nodes - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedPairGraph):
            return NotImplemented
        return (self.nodes == other.nodes
                and dict(self.pairs()) == dict(other.pairs()))

    __hash__ = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_view": None}

    def __repr__(self) -> str:
        return (f"WeightedPairGraph(nodes={self.nodes!r}, "
                f"pairs={self.n_pairs()})")


class DecisionGraph:
    """Unweighted same-person decision graph ``G_Dj`` over one block.

    Args:
        nodes: page ids in block order.
        edges: set form — canonical pair keys of the edges.
        layout, linked: vector form — the ascending entry indices of
            ``layout`` that are edges.  Reading :attr:`edges` turns the
            graph into its set form, so edits go through the set.
    """

    def __init__(self, nodes: Iterable[str],
                 edges: set[PairKey] | None = None, *,
                 layout: PairLayout | None = None,
                 linked: Sequence[int] | None = None):
        if linked is None:
            self.nodes = list(nodes)
            self._edges = set() if edges is None else edges
            self._layout = None
        else:
            self.nodes = layout.nodes
            self._edges = None
            self._layout = layout
        self._linked = linked

    @classmethod
    def from_pairs(cls, nodes: Iterable[str],
                   pairs: Iterable[PairKey]) -> "DecisionGraph":
        """Build from an iterable of canonical pair keys."""
        return cls(nodes=list(nodes), edges=set(pairs))

    def vector(self) -> tuple[PairLayout, Sequence[int]] | None:
        """(layout, linked entry indices) of a vector graph, else ``None``."""
        if self._edges is not None:
            return None
        return self._layout, self._linked

    def copy(self) -> "DecisionGraph":
        """An independent graph with the same edges."""
        if self._edges is not None:
            return DecisionGraph(self.nodes, set(self._edges))
        return DecisionGraph(self.nodes, layout=self._layout,
                             linked=self._linked)

    @property
    def edges(self) -> set[PairKey]:
        if self._edges is None:
            keys = self._layout.keys()
            self._edges = {keys[entry] for entry in as_list(self._linked)}
            self._layout = self._linked = None
        return self._edges

    @edges.setter
    def edges(self, edges: set[PairKey]) -> None:
        self._edges = edges
        self._layout = self._linked = None

    def has_edge(self, left: str, right: str) -> bool:
        return pair_key(left, right) in self.edges

    def add_edge(self, left: str, right: str) -> None:
        self.edges.add(pair_key(left, right))

    def remove_edge(self, left: str, right: str) -> None:
        self.edges.discard(pair_key(left, right))

    def n_edges(self) -> int:
        if self._edges is None:
            return len(self._linked)
        return len(self._edges)

    def degree(self, node: str) -> int:
        """Number of decision edges incident to ``node``."""
        return sum(1 for pair in self.edges if node in pair)

    def neighbors(self, node: str) -> set[str]:
        """Nodes directly linked to ``node``."""
        found = set()
        for left, right in self.edges:
            if left == node:
                found.add(right)
            elif right == node:
                found.add(left)
        return found

    def adjacency(self) -> dict[str, set[str]]:
        """Full adjacency map (nodes with no edges map to empty sets)."""
        adjacency: dict[str, set[str]] = {node: set() for node in self.nodes}
        for left, right in self.edges:
            adjacency[left].add(right)
            adjacency[right].add(left)
        return adjacency

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionGraph):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    __hash__ = None

    def __repr__(self) -> str:
        return (f"DecisionGraph(nodes={self.nodes!r}, "
                f"edges={self.n_edges()})")
