"""Union-find over integer keys, with a parity bit per element.

The parity of an element is defined relative to its set root, so two elements
x, y in one set stand in relation parity(x) ^ parity(y).  Used to check
balance of graphs whose edges demand equal (0) or unequal (1) colors.
"""

from __future__ import annotations


class ParityUnionFind:
    def __init__(self):
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}
        self._parity: dict[int, int] = {}

    def add(self, x: int) -> None:
        if x not in self._parent:
            self._parent[x] = x
            self._rank[x] = 0
            self._parity[x] = 0

    def find(self, x: int) -> tuple[int, int]:
        """Root of x's set and x's parity relative to that root."""
        self.add(x)
        path = []
        root = x
        while self._parent[root] != root:
            path.append(root)
            root = self._parent[root]
        # second pass: compress and fold parities down the path
        parity = 0
        for node in reversed(path):
            parity ^= self._parity[node]
            self._parent[node] = root
            self._parity[node] = parity
        return root, self._parity[x]

    def union(self, x: int, y: int, relation: int) -> bool:
        """Impose parity(x) ^ parity(y) == relation.

        Returns False when x and y are already connected and the existing
        relation contradicts the requested one; True otherwise.
        """
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            return (px ^ py) == relation
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
            px, py = py, px
        self._parent[ry] = rx
        self._parity[ry] = px ^ py ^ relation
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        return True
