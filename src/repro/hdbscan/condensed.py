"""Condensed cluster tree (the HDBSCAN* hierarchy simplification).

The single-linkage dendrogram has one internal node per MST edge; HDBSCAN*
[9] *condenses* it with a minimum cluster size ``m``: a split is **real**
only when both sides keep at least ``m`` points.  Otherwise the points of
the small side "fall out" of the current cluster at that split's density
``lambda = 1 / distance``, and the cluster continues through the big side.
The result is a much smaller tree whose nodes are clusters and whose leaf
records are (point, lambda) fall-outs -- the input to stability computation
and flat-cluster extraction.

Once subtree sizes are known, every condensed-tree fact is a local rule on
the parent array plus a nearest-ancestor query.  Call a node *big* when its
subtree holds at least ``m`` points:

* a cluster is born at node 0 and at both children of every node whose two
  children are both big;
* a node belongs to its nearest cluster-birth ancestor-or-self;
* a point falls out at its lowest big proper ancestor, at that node's
  lambda (node 0 when even node 0 is small);
* a cluster dies at its one owned node whose two children are both big or
  both small.

Both nearest-ancestor queries are answered by the pointer doubling that
contraction uses (:func:`~repro.parallel.resolve_pointer_forest`), so the
work is O(n log h) bulk gathers for a dendrogram of height h.  Two steps
stay sequential: the subtree sizes (one pass over the edge nodes, in
:meth:`~repro.structures.dendrogram.Dendrogram.subtree_sizes`) and the
cluster numbering (one loop over clusters, not nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel import resolve_pointer_forest
from ..structures.dendrogram import Dendrogram

__all__ = ["CondensedTree", "condense_tree"]


@dataclass
class CondensedTree:
    """Cluster hierarchy with per-point fall-out records.

    Clusters are numbered as a depth-first top-down walk creates them:
    cluster 0 is the root (all points), every real split takes the next
    two ids (smaller dendrogram node first), and the walk explores the
    second of the newest pair first.  Parents precede children.
    ``point_cluster/point_lambda`` record, for every data point, the
    cluster it fell out of and at which lambda.
    """

    n_points: int
    min_cluster_size: int
    # per cluster:
    cluster_parent: np.ndarray   # (n_clusters,), -1 for root
    birth_lambda: np.ndarray     # (n_clusters,)
    death_lambda: np.ndarray     # (n_clusters,) lambda at split/termination
    cluster_size: np.ndarray     # (n_clusters,) points at birth
    # per point:
    point_cluster: np.ndarray    # (n_points,)
    point_lambda: np.ndarray     # (n_points,)

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_parent.size)

    def stabilities(self) -> np.ndarray:
        """Excess-of-mass stability per cluster.

        stability(c) = sum over points falling out of c of
        (lambda_p - birth(c)), plus for each child cluster
        size * (birth(child) - birth(c)).  Infinite lambdas (duplicate
        points, distance 0) are clipped to the largest finite value.
        """
        lam_pts = self.point_lambda
        finite = lam_pts[np.isfinite(lam_pts)]
        cap = finite.max() if finite.size else 1.0
        lam_pts = np.minimum(lam_pts, cap)
        birth = np.minimum(self.birth_lambda, cap)

        stab = np.zeros(self.n_clusters)
        np.add.at(stab, self.point_cluster, lam_pts - birth[self.point_cluster])
        child = np.nonzero(self.cluster_parent >= 0)[0]
        if child.size:
            pc = self.cluster_parent[child]
            contrib = self.cluster_size[child] * (
                np.minimum(self.birth_lambda[child], cap) - birth[pc]
            )
            np.add.at(stab, pc, contrib)
        return stab


def condense_tree(dendrogram: Dendrogram, min_cluster_size: int) -> CondensedTree:
    """Condense a single-linkage dendrogram (see module docstring)."""
    if min_cluster_size < 2:
        raise ValueError(
            f"min_cluster_size must be >= 2, got {min_cluster_size}"
        )
    n = dendrogram.n_edges
    nv = dendrogram.n_vertices
    m = min_cluster_size

    if n == 0:
        return CondensedTree(
            n_points=nv,
            min_cluster_size=m,
            cluster_parent=np.array([-1], dtype=np.int64),
            birth_lambda=np.zeros(1),
            death_lambda=np.zeros(1),
            cluster_size=np.array([nv], dtype=np.int64),
            point_cluster=np.zeros(nv, dtype=np.int64),
            point_lambda=np.zeros(nv),
        )

    w = dendrogram.edges.w
    with np.errstate(divide="ignore"):
        lam = np.where(w > 0, 1.0 / w, np.inf)

    # Edge nodes only: a big node's children are edge nodes (vertex nodes
    # hold one point < m), and parent[k] < k keeps every pointer in range.
    parent = dendrogram.edge_parents()
    node = np.arange(n)
    sizes = dendrogram.subtree_sizes()
    big = sizes >= m
    n_big = np.bincount(parent[1:][big[1:]], minlength=n)  # big children
    walked = big | (node == 0)  # the nodes some cluster passes through
    dies = np.flatnonzero(walked & (n_big != 1))
    birth = np.ones(n, dtype=bool)
    birth[1:] = n_big[parent[1:]] == 2

    owner = resolve_pointer_forest(
        np.where(birth, node, parent), name="condense.owner"
    ).copy()  # the next call may reuse the buffer this one returned
    fall = resolve_pointer_forest(
        np.where(walked, node, parent), name="condense.fall"
    )[dendrogram.vertex_parents()]

    # Number clusters as a top-down walk creates them: a pair of ids per
    # split, smaller node first, the last-created cluster explored first.
    heads = np.flatnonzero(birth)  # birth node per cluster rank
    kids = heads[1:]
    rank = np.cumsum(birth) - 1
    up = rank[owner[parent[kids]]]  # parent rank of each non-root rank
    pairs = np.argsort(up, kind="stable") + 1  # siblings adjacent, in order
    at = np.full(heads.size, -1, dtype=np.int64)  # a rank's pair in pairs
    at[up[pairs[0::2] - 1]] = np.arange(0, pairs.size, 2)
    pairs, at = pairs.tolist(), at.tolist()
    order, stack = [0], [0]
    while stack:
        j = at[stack.pop()]
        if j >= 0:
            order += pairs[j:j + 2]
            stack += pairs[j:j + 2]
    cid = np.empty(heads.size, dtype=np.int64)
    cid[order] = np.arange(heads.size)
    cluster_of = cid[rank[owner]]  # per node, its owning cluster's id

    cluster_parent = np.full(heads.size, -1, dtype=np.int64)
    cluster_parent[cluster_of[kids]] = cluster_of[parent[kids]]
    birth_lambda = np.zeros(heads.size)
    birth_lambda[cluster_of[kids]] = lam[parent[kids]]
    death_lambda = np.zeros(heads.size)
    death_lambda[cluster_of[dies]] = lam[dies]
    cluster_size = np.full(heads.size, nv, dtype=np.int64)
    cluster_size[cluster_of[kids]] = sizes[kids]

    return CondensedTree(
        n_points=nv,
        min_cluster_size=m,
        cluster_parent=cluster_parent,
        birth_lambda=birth_lambda,
        death_lambda=death_lambda,
        cluster_size=cluster_size,
        point_cluster=cluster_of[fall],
        point_lambda=lam[fall],
    )
