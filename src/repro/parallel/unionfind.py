"""Sequential union-find (disjoint set) structure.

:class:`UnionFind` is the classic sequential structure with union by size
and path halving, used by Kruskal's MST, SLINK and
``Dendrogram.to_linkage`` (the *bottom-up baseline*, Algorithm 2 of the
paper, inlines the same loop).  Its sequential edge loop is precisely the
parallelization obstacle PANDORA removes.  The bulk, data-parallel
counterpart (min-hooking plus pointer jumping, the ECL-CC schedule the
paper uses for tree contraction) is
:func:`repro.parallel.connected.connected_components`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnionFind"]


class UnionFind:
    """Sequential disjoint-set with union by size and path halving.

    ``find``/``union`` are amortized O(alpha(n)).  ``parent`` is kept in a
    NumPy array so snapshots are cheap, but the operations themselves are
    scalar Python -- intentionally so: this is the sequential baseline.
    """

    __slots__ = ("parent", "size", "n_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_components = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]  # path halving
            x = p[x]
        return int(x)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the new root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return ra

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def component_sizes(self) -> dict[int, int]:
        roots = [self.find(i) for i in range(len(self.parent))]
        out: dict[int, int] = {}
        for r in roots:
            out[r] = out.get(r, 0) + 1
        return out

    def labels(self) -> np.ndarray:
        """Root label of every element (fully compressed)."""
        return np.fromiter(
            (self.find(i) for i in range(len(self.parent))),
            count=len(self.parent),
            dtype=np.int64,
        )
