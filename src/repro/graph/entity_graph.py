"""Weighted pair graphs and decision graphs over web pages.

``WeightedPairGraph`` is the paper's complete weighted graph ``G_w^fi``:
every unordered page pair carries the similarity value reported by one
function.  ``DecisionGraph`` is an unweighted graph ``G_Dj`` whose edges
assert "same person" after a decision criterion has been applied.

Both store one thing: a :class:`PairLayout` — the block's pairs in a
fixed order, ascending block positions ``(i, j)``, ``i < j`` — and one
vector over it: a value per pair (a ``list`` from the ``python``
backend, a float64 array from ``numpy``), or the entry indices that are
edges.  The scoring backends emit them and the decision layers sweep
them.  Graphs are immutable, so their vectors may be shared; a graph
built by hand goes through :meth:`WeightedPairGraph.from_scores` or
:meth:`DecisionGraph.from_pairs`.  ``weights`` / ``pairs()`` / ``edges``
read a graph by canonical :data:`PairKey`; ``weights`` builds its dict
only when asked, and counts it (:attr:`WeightedPairGraph.dict_views`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
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
        """The layout holding ``keys`` (either order) over ``nodes``, and
        each key's entry index; repeated pairs share an entry.

        Raises:
            ValueError: for a key naming a page outside ``nodes``, or a
                self-pair.
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
            if i == j:
                raise ValueError(f"self-pair not allowed: {left!r}")
            placed.append(pair_position(min(i, j), max(i, j), n_nodes))
        ordered = sorted(set(placed))
        if len(ordered) == n_nodes * (n_nodes - 1) // 2:
            layout = cls(nodes)
        else:
            layout = cls(nodes, ordered)
        rank = {position: entry for entry, position in enumerate(ordered)}
        return layout, [rank[position] for position in placed]


class WeightedPairGraph:
    """Weighted graph over one block's pages: one similarity value per
    entry of a :class:`PairLayout`.

    Args:
        nodes: page ids in block order (the layout's, when one is given).
        values: one value per entry of ``layout``, held by reference and
            never written — so a cache, a layer and a combination result
            may share them.  Default: no pairs.
        layout: the :class:`PairLayout` ``values`` follow (default:
            every pair of ``nodes``).  A pair the layout does not hold
            is *absent* and reads as 0.0; a stored 0.0 is a stored pair.
    """

    #: Mapping views built by :attr:`weights`, process-wide.  The
    #: default fit → predict path builds none.
    dict_views = 0

    def __init__(self, nodes: Iterable[str], *,
                 values: Sequence[float] | None = None,
                 layout: PairLayout | None = None):
        if values is None:
            layout, values = PairLayout(nodes, []), []
        self._layout = layout if layout is not None else PairLayout(nodes)
        self.nodes = self._layout.nodes
        self._values = values
        self._view = None

    @classmethod
    def from_scores(cls, nodes: Iterable[str],
                    scores: Mapping[PairKey, float]) -> "WeightedPairGraph":
        """The graph holding exactly the pairs of ``scores`` (either key
        order), laid out in block order.

        Raises:
            ValueError: for a pair naming a page outside ``nodes``, or a
                self-pair.
        """
        layout, entries = PairLayout.of(nodes, scores)
        values = [0.0] * len(layout)
        for entry, value in zip(entries, scores.values()):
            values[entry] = value
        return cls(layout.nodes, layout=layout, values=values)

    def vector(self) -> tuple[PairLayout, Sequence[float]]:
        """The graph as (layout, values)."""
        return self._layout, self._values

    @property
    def weights(self) -> Mapping[PairKey, float]:
        """Similarity value per canonical pair key: a read-only view,
        built on first read and counted in :attr:`dict_views`."""
        if self._view is None:
            WeightedPairGraph.dict_views += 1
            self._view = MappingProxyType(dict(self.pairs()))
        return self._view

    def weight(self, left: str, right: str) -> float:
        """Similarity of a pair (0.0 when absent)."""
        entry, = self._layout.locate([(left, right)])
        return 0.0 if entry < 0 else float(self._values[entry])

    def pairs(self) -> Iterator[tuple[PairKey, float]]:
        """All stored (pair, weight) items, in layout order."""
        return zip(self._layout.keys(), as_list(self._values))

    def n_pairs(self) -> int:
        return len(self._values)

    def values(self) -> list[float]:
        """All similarity values (for region fitting and diagnostics)."""
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
    """Unweighted same-person decision graph ``G_Dj`` over one block: the
    entries of a :class:`PairLayout` that are edges.

    Args:
        nodes: page ids in block order (the layout's, when one is given).
        layout: the pairs ``linked`` indexes (default: every pair of
            ``nodes``).
        linked: the ascending entry indices of ``layout`` that are
            edges, held by reference and never written.  Default: none.
    """

    def __init__(self, nodes: Iterable[str], *,
                 layout: PairLayout | None = None,
                 linked: Sequence[int] | None = None):
        if linked is None:
            layout, linked = PairLayout(nodes, []), []
        self._layout = layout if layout is not None else PairLayout(nodes)
        self.nodes = self._layout.nodes
        self._linked = linked
        self._edges = None

    @classmethod
    def from_pairs(cls, nodes: Iterable[str],
                   pairs: Iterable[PairKey]) -> "DecisionGraph":
        """The graph whose edges are ``pairs`` (either key order).

        Raises:
            ValueError: for a pair naming a page outside ``nodes``, or a
                self-pair.
        """
        layout, _ = PairLayout.of(nodes, pairs)
        return cls(layout.nodes, layout=layout,
                   linked=list(range(len(layout))))

    def vector(self) -> tuple[PairLayout, Sequence[int]]:
        """The graph as (layout, linked entry indices)."""
        return self._layout, self._linked

    @property
    def edges(self) -> frozenset[PairKey]:
        """Canonical pair keys of the edges, built on first read."""
        if self._edges is None:
            keys = self._layout.keys()
            self._edges = frozenset(
                keys[entry] for entry in as_list(self._linked))
        return self._edges

    def has_edge(self, left: str, right: str) -> bool:
        return pair_key(left, right) in self.edges

    def n_edges(self) -> int:
        return len(self._linked)

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
