"""Flat labels and membership probabilities from a condensed tree selection.

A point belongs to the selected cluster nearest above its fall-out position
in the condensed tree (noise, label -1, if there is none).  Membership
probability follows the reference implementation: the point's fall-out
lambda normalized by the largest lambda inside its cluster's condensed
subtree, so core points score 1.0 and points lost at the cluster's birth
score near 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel import resolve_pointer_forest
from .condensed import CondensedTree

__all__ = ["FlatClustering", "extract_labels"]


@dataclass
class FlatClustering:
    """Cluster labels in ``-1 (noise), 0..k-1`` plus probabilities."""

    labels: np.ndarray
    probabilities: np.ndarray
    selected_clusters: np.ndarray  # condensed-tree cluster ids per label

    @property
    def n_clusters(self) -> int:
        return int(self.selected_clusters.size)

    def cluster_sizes(self) -> np.ndarray:
        if self.n_clusters == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(
            self.labels[self.labels >= 0], minlength=self.n_clusters
        )

    @property
    def noise_fraction(self) -> float:
        if self.labels.size == 0:
            return 0.0
        return float((self.labels == -1).mean())


def extract_labels(
    tree: CondensedTree, selected: np.ndarray
) -> FlatClustering:
    """Materialize flat labels for a selection mask (see module docstring)."""
    ncl = tree.n_clusters
    parent = tree.cluster_parent

    # For every cluster, its lowest selected ancestor-or-self (-1 if none),
    # by pointer doubling over the cluster tree.
    nearest = resolve_pointer_forest(
        np.where(selected | (parent < 0), np.arange(ncl), parent),
        name="labels.owner",
    )
    owner = np.where(selected[nearest], nearest, -1)

    sel_ids = np.nonzero(selected)[0]
    label_of_cluster = np.full(ncl, -1, dtype=np.int64)
    label_of_cluster[sel_ids] = np.arange(sel_ids.size)

    point_owner = owner[tree.point_cluster]
    labels = np.where(point_owner >= 0, label_of_cluster[point_owner], -1)

    # Probabilities: lambda_p / max lambda within the owning cluster.
    lam = tree.point_lambda.copy()
    finite = lam[np.isfinite(lam)]
    cap = finite.max() if finite.size else 1.0
    np.minimum(lam, cap, out=lam)
    probabilities = np.zeros(tree.n_points)
    member = point_owner >= 0
    if member.any():
        max_lam = np.zeros(ncl)
        np.maximum.at(max_lam, point_owner[member], lam[member])
        denom = max_lam[point_owner[member]]
        probabilities[member] = np.where(
            denom > 0, lam[member] / denom, 1.0
        )
    return FlatClustering(
        labels=labels,
        probabilities=probabilities,
        selected_clusters=sel_ids,
    )
