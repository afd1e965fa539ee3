"""Cluster selection by excess of mass (HDBSCAN* flat extraction).

Given the condensed tree and per-cluster stabilities, select the
non-overlapping set of clusters maximizing total stability: process clusters
bottom-up, keeping a cluster if its own stability beats the combined
stability of its selected descendants, otherwise propagating the
descendants' total upward.  The root is excluded unless
``allow_single_cluster`` (matching the reference implementation's default).
A kept cluster below another kept one is then dropped; each cluster's
nearest selected ancestor comes from pointer doubling over the cluster
tree.
"""

from __future__ import annotations

import numpy as np

from ..parallel import resolve_pointer_forest
from .condensed import CondensedTree

__all__ = ["select_clusters"]


def select_clusters(
    tree: CondensedTree, allow_single_cluster: bool = False
) -> np.ndarray:
    """Boolean selection mask over the condensed tree's clusters."""
    ncl = tree.n_clusters
    parent = tree.cluster_parent
    valid = parent >= 0
    is_leaf = np.ones(ncl, dtype=bool)
    is_leaf[parent[valid]] = False

    # Children are always created after parents, so reverse id order is
    # bottom-up.  One pass over clusters, on Python lists.
    stab, up = tree.stabilities().tolist(), parent.tolist()
    leaf = is_leaf.tolist()
    keep = [False] * ncl
    child_sum = [0.0] * ncl
    for c in range(ncl - 1, -1, -1):
        keep[c] = leaf[c] or stab[c] >= child_sum[c]
        if up[c] >= 0:
            child_sum[up[c]] += stab[c] if keep[c] else child_sum[c]
    selected = np.array(keep, dtype=bool)

    if not allow_single_cluster:
        selected[0] = False

    # Drop any cluster with a selected proper ancestor: pointer-double to
    # each cluster's nearest selected ancestor-or-self (or the root).
    nearest = resolve_pointer_forest(
        np.where(selected | ~valid, np.arange(ncl), parent),
        name="select.ancestor",
    )
    has_selected_ancestor = valid & selected[nearest[parent]]
    selected &= ~has_selected_ancestor
    return selected
