"""Union-find and connected components.

:func:`integer_roots` is the list route's union-find over node numbers
``0 … n - 1`` (decision graphs on layout positions, the ``python``
sweep's acc(G_Dj)); its batched counterpart is ``NumpyRoute``'s
parent-array closure in :mod:`repro.core.sweeps`, which closes every
layer at once.  :class:`UnionFind` serves callers whose items are
hashable ids.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, items: Iterable[Hashable] = ()):
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Register ``item`` as a singleton if unseen."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        """Representative of ``item``'s set (registers unseen items)."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, left: Hashable, right: Hashable) -> bool:
        """Merge the two sets; returns True if a merge happened."""
        root_left = self.find(left)
        root_right = self.find(right)
        if root_left == root_right:
            return False
        if self._size[root_left] < self._size[root_right]:
            root_left, root_right = root_right, root_left
        self._parent[root_right] = root_left
        self._size[root_left] += self._size[root_right]
        return True

    def connected(self, left: Hashable, right: Hashable) -> bool:
        return self.find(left) == self.find(right)

    def groups(self) -> list[set[Hashable]]:
        """All disjoint sets, as a list of item sets."""
        by_root: dict[Hashable, set[Hashable]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return list(by_root.values())

    def __len__(self) -> int:
        return len(self._parent)


def connected_components(nodes: Iterable[Hashable],
                         edges: Iterable[tuple[Hashable, Hashable]]) -> list[set[Hashable]]:
    """Connected components of an undirected graph.

    Isolated nodes become singleton components.
    """
    forest = UnionFind(nodes)
    for left, right in edges:
        forest.union(left, right)
    return forest.groups()


def integer_roots(n: int, left: Iterable[int],
                  right: Iterable[int]) -> list[int]:
    """Per node ``0 … n - 1``, the smallest node of its component once
    every ``(left[k], right[k])`` is joined.

    A union hooks the larger root under the smaller, so a parent is
    never larger than its child: one ascending pass then reads every
    node's root off its parent's, which is already final.
    """
    parent = list(range(n))
    for a, b in zip(left, right):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        else:
            parent[a] = b
    for node in range(n):
        parent[node] = parent[parent[node]]
    return parent
