"""Array-based kd-tree, built from scratch (the spatial-search substrate).

The paper's HDBSCAN* pipeline leans on spatial trees (ArborX BVH) for
core-distance kNN and for the EMST's dual-tree Boruvka [39].  This module
provides the equivalent: a median-split kd-tree stored in flat arrays
(structure-of-arrays) so that both construction and queries run as bulk
backend kernels rather than per-point Python.

Construction
------------
``build`` first checks the cloud with :func:`validate_points` (always on:
``d = 0``, non-finite or overflowing coordinates raise
``InvalidGraphError``).  It is iterative and level-synchronous: one
preallocated flat-array arena (no Python recursion, no list appends), one
bulk segmented partition kernel per tree level
(:meth:`repro.parallel.backend.Backend.spatial_partition` -- every node of
the level sorts its slice by the split coordinate in a single stable sort,
so the resulting permutation is deterministic even under coordinate ties),
and one ``reduceat`` box pass per level.  Index arrays follow
:func:`repro.parallel.workspace.index_dtype` (the PR-1 dtype-adaptivity
contract).

Layout
------
* ``indices``  -- permutation of point ids; every node owns the contiguous
  slice ``indices[start[i]:end[i]]``.
* ``left/right`` -- child node ids (-1 for leaves); children are created
  after their parent (level order), so ``child id > parent id`` and a
  reversed id scan is a valid bottom-up traversal (used by the fused
  per-node aggregation kernels in the EMST).
* ``box_lo/box_hi`` -- tight bounding boxes per node.

Queries
-------
``query_knn`` dispatches to the active backend's batched kNN kernel
(:meth:`~repro.parallel.backend.Backend.spatial_knn`).  The answer is
defined as the ``k`` smallest ``(squared distance, point id)`` pairs per
query -- a unique set, so the numpy block formulation and the fused
``nogil``/``prange`` traversals agree bit for bit.  Entry points poke the
``knn`` fault seam (:mod:`repro.engine.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.machine import emit
from ..parallel.primitives import spatial_knn, spatial_partition
from ..parallel.workspace import index_dtype
from ..structures.edgelist import InvalidGraphError
from .distances import box_gap2

__all__ = ["KDTree", "validate_points"]

#: Fault-injection seam (site ``knn``): ``repro.engine.faults`` installs a
#: hook here; the cost while uninstalled is one ``is not None`` check.
_FAULT_HOOK = None


def _poke() -> None:
    hook = _FAULT_HOOK
    if hook is not None:
        hook("knn")


def validate_points(points, what: str = "points") -> np.ndarray:
    """Return ``points`` as a contiguous float64 ``(n, d)`` array, or raise.

    Always on, whatever :func:`~repro.parallel.machine.debug_checks` says:
    a cloud with ``d = 0``, a non-finite coordinate, or a coordinate so
    large that a squared distance (at most ``4 * d * max|x|**2``) overflows
    float64 would turn the kNN and EMST kernels' arithmetic into garbage
    rather than a slower failure.  ``n = 0`` passes (an empty tree).  Costs
    two O(n * d) reductions.

    Raises
    ------
    InvalidGraphError
        For any of the above, or an array that is not 2-d.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InvalidGraphError(f"{what} must be (n, d), got {points.shape}")
    n, d = points.shape
    if d == 0:
        raise InvalidGraphError(f"{what} need at least one coordinate")
    if n:
        lo, hi = points.min(), points.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidGraphError(f"{what} must be finite")
        if max(hi, -lo) > np.sqrt(np.finfo(np.float64).max / (4 * d)):
            raise InvalidGraphError(
                f"{what} too large: squared distances overflow float64"
            )
    return points


@dataclass
class KDTree:
    """Immutable kd-tree over an ``(n, d)`` float64 point set."""

    points: np.ndarray       # (n, d), the caller's points (not copied)
    indices: np.ndarray      # (n,) permutation; leaves own slices
    split_dim: np.ndarray    # (n_nodes,)
    split_val: np.ndarray    # (n_nodes,)
    left: np.ndarray         # (n_nodes,) child id or -1
    right: np.ndarray        # (n_nodes,)
    start: np.ndarray        # (n_nodes,) slice into indices
    end: np.ndarray          # (n_nodes,)
    box_lo: np.ndarray       # (n_nodes, d)
    box_hi: np.ndarray       # (n_nodes, d)
    leaf_size: int

    # ------------------------------------------------------------------ build
    @classmethod
    def build(cls, points: np.ndarray, leaf_size: int = 32) -> "KDTree":
        """Construct by level-synchronous median split on the widest box
        dimension: every level partitions all its splittable nodes in one
        bulk segmented-sort kernel over preallocated arrays."""
        points = validate_points(points)
        if leaf_size < 1:
            raise InvalidGraphError("leaf_size must be >= 1")
        _poke()
        n, d = points.shape

        # Node capacity: every split child holds >= ceil((leaf_size+1)/2)
        # points (median split fires only above leaf_size), so leaf count
        # <= n / that floor and nodes <= 2*leaves - 1.
        min_leaf = max(1, (leaf_size + 1) // 2)
        cap = 2 * ((n + min_leaf - 1) // min_leaf) + 1
        idt = index_dtype(max(n, cap) + 1)

        indices = np.arange(n, dtype=idt)
        split_dim = np.full(cap, -1, dtype=idt)
        split_val = np.zeros(cap, dtype=np.float64)
        left = np.full(cap, -1, dtype=idt)
        right = np.full(cap, -1, dtype=idt)
        start = np.zeros(cap, dtype=idt)
        end = np.zeros(cap, dtype=idt)
        box_lo = np.zeros((cap, d), dtype=np.float64)
        box_hi = np.zeros((cap, d), dtype=np.float64)

        n_nodes = 0
        if n:
            n_nodes = 1
            end[0] = n
            box_lo[0] = points.min(axis=0)
            box_hi[0] = points.max(axis=0)
            emit("kdtree.boxes", "reduce", n)

        level = np.arange(min(n_nodes, 1), dtype=np.int64)
        while level.size:
            sizes = (end[level] - start[level]).astype(np.int64)
            ext = box_hi[level] - box_lo[level]
            dims = np.argmax(ext, axis=1)
            splittable = (sizes > leaf_size) & (
                ext[np.arange(level.size), dims] > 0
            )
            nodes = level[splittable]
            if nodes.size == 0:
                break
            dims = dims[splittable]
            s = start[nodes].astype(np.int64)
            e = end[nodes].astype(np.int64)
            seg_sizes = e - s

            # Concatenated level slices: global position of every element
            # plus its segment (node) id, in node order.
            seg_of = np.repeat(np.arange(nodes.size, dtype=np.int64),
                               seg_sizes)
            pos = (np.arange(int(seg_sizes.sum()), dtype=np.int64)
                   - np.repeat(np.cumsum(seg_sizes) - seg_sizes, seg_sizes)
                   + np.repeat(s, seg_sizes))
            ids_lvl = indices[pos]
            coords = points[ids_lvl, np.repeat(dims, seg_sizes)]
            perm = spatial_partition(seg_of, coords, int(nodes.size))
            indices[pos] = ids_lvl[perm]

            mids = seg_sizes // 2
            split_pos = s + mids
            split_dim[nodes] = dims
            split_val[nodes] = points[indices[split_pos], dims]

            child_ids = n_nodes + np.arange(2 * nodes.size, dtype=np.int64)
            lchild, rchild = child_ids[0::2], child_ids[1::2]
            left[nodes] = lchild
            right[nodes] = rchild
            start[lchild] = s
            end[lchild] = split_pos
            start[rchild] = split_pos
            end[rchild] = e

            # Child boxes: one reduceat pair over the level's (partitioned)
            # points.  Child slices are never empty (median split), so the
            # reduceat segments are well-formed.
            pts_lvl = points[indices[pos]]
            local = np.empty(2 * nodes.size, dtype=np.int64)
            bases = np.cumsum(seg_sizes) - seg_sizes
            local[0::2] = bases
            local[1::2] = bases + mids
            box_lo[child_ids] = np.minimum.reduceat(pts_lvl, local, axis=0)
            box_hi[child_ids] = np.maximum.reduceat(pts_lvl, local, axis=0)
            emit("kdtree.boxes", "reduce", int(pts_lvl.shape[0]))

            n_nodes += int(child_ids.size)
            level = child_ids

        return cls(
            points=points,
            indices=indices,
            split_dim=split_dim[:n_nodes].copy(),
            split_val=split_val[:n_nodes].copy(),
            left=left[:n_nodes].copy(),
            right=right[:n_nodes].copy(),
            start=start[:n_nodes].copy(),
            end=end[:n_nodes].copy(),
            box_lo=box_lo[:n_nodes].copy(),
            box_hi=box_hi[:n_nodes].copy(),
            leaf_size=leaf_size,
        )

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def points_perm(self) -> np.ndarray:
        """Points permuted into tree order: every node's points are the
        contiguous slice ``points_perm[start[i]:end[i]]`` (a view, no copy
        per access).  Computed lazily and cached."""
        cached = getattr(self, "_points_perm", None)
        if cached is None:
            cached = self.points[self.indices]
            object.__setattr__(self, "_points_perm", cached)
        return cached

    def leaves_by_start(self) -> np.ndarray:
        """Leaf node ids ordered by slice start; slices partition [0, n)."""
        cached = getattr(self, "_leaves_by_start", None)
        if cached is None:
            leaves = self.leaf_ids()
            cached = leaves[np.argsort(self.start[leaves], kind="stable")]
            object.__setattr__(self, "_leaves_by_start", cached)
        return cached

    def internal_levels(self) -> list[np.ndarray]:
        """Internal node ids per level, root level first (cached).

        The per-level grouping drives the reference node-aggregation
        kernel: every level combines both children of all its internal
        nodes in one vectorized pass.
        """
        cached = getattr(self, "_internal_levels", None)
        if cached is None:
            cached = []
            cur = np.arange(min(self.n_nodes, 1), dtype=np.int64)
            while cur.size:
                internal = cur[self.left[cur] >= 0]
                if internal.size:
                    cached.append(internal)
                cur = np.concatenate(
                    [self.left[internal], self.right[internal]]
                ).astype(np.int64) if internal.size else cur[:0]
            object.__setattr__(self, "_internal_levels", cached)
        return cached

    @property
    def n_nodes(self) -> int:
        return int(self.start.size)

    def is_leaf(self, node: int | np.ndarray):
        return self.left[node] == -1

    def leaf_ids(self) -> np.ndarray:
        return np.nonzero(self.left == -1)[0]

    def leaf_points(self, node: int) -> np.ndarray:
        """Point ids owned by a leaf node."""
        return self.indices[self.start[node]: self.end[node]]

    # ----------------------------------------------------------------- boxes
    def min_sq_dist_point_box(
        self, q: np.ndarray, node_ids: np.ndarray
    ) -> np.ndarray:
        """Min squared distance from each query row to each node's box.

        ``q`` is (m, d), ``node_ids`` (m,): elementwise pairing.
        """
        emit("kdtree.point_box_dist", "map", int(np.size(node_ids)))
        return box_gap2(q, q, self.box_lo[node_ids], self.box_hi[node_ids])

    def min_sq_dist_box_box(self, a: int, b: int) -> float:
        """Min squared distance between two nodes' boxes."""
        lo, hi = self.box_lo, self.box_hi
        return float(box_gap2(lo[[a]], hi[[a]], lo[[b]], hi[[b]])[0])

    # ------------------------------------------------------------------- kNN
    def query_knn(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact k nearest neighbors of each query row.

        Returns ``(dists, ids)`` of shape (m, k), rows sorted ascending by
        ``(distance, id)``.  ``k`` is clamped to the point count.
        Distances are Euclidean; ids carry the tree's index dtype.  One
        logical ``kdtree.knn`` record of ``m * k``, whatever the backend.
        """
        queries = validate_points(queries, "queries")
        if queries.shape[1] != self.points.shape[1]:
            raise InvalidGraphError("queries must be (m, d) with matching d")
        n = self.n_points
        if n == 0:
            raise InvalidGraphError("cannot query an empty tree")
        _poke()
        k = min(k, n)
        d2, ids = spatial_knn(self, queries, k)
        return np.sqrt(d2), ids
