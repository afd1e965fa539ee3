"""DBSCAN* extraction from an HDBSCAN* hierarchy.

Campello et al. define DBSCAN* as DBSCAN without border points: clusters are
the connected components of core points at mutual-reachability distance
``epsilon``.  Given the hierarchy HDBSCAN* already built, every epsilon cut
is O(n) -- no re-clustering -- which is the classic practical payoff of
computing the dendrogram once.  (This is the "optional flat clustering"
step of the paper's Section 6.5, generalized to a parameter sweep.)
"""

from __future__ import annotations

import numpy as np

from ..structures.dendrogram import Dendrogram

__all__ = ["dbscan_star_labels"]


def dbscan_star_labels(
    dendrogram: Dendrogram,
    core_distances: np.ndarray,
    epsilon: float,
    min_cluster_size: int = 2,
) -> np.ndarray:
    """Flat DBSCAN* labels at radius ``epsilon``.

    Parameters
    ----------
    dendrogram:
        Single-linkage dendrogram over the *mutual reachability* MST.
    core_distances:
        Core distance of each point (from
        :func:`repro.spatial.emst.core_distances` or ``EMSTResult.core``).
    epsilon:
        Density radius.  Points with ``core > epsilon`` are noise; remaining
        points cluster by mutual-reachability components at ``epsilon``.
    min_cluster_size:
        Components smaller than this also become noise.

    Returns
    -------
    ``(n,)`` labels: ``-1`` noise, else ``0..k-1`` ordered by first member.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if min_cluster_size < 1:
        raise ValueError("min_cluster_size must be >= 1")
    core_distances = np.asarray(core_distances, dtype=np.float64)
    n = dendrogram.n_vertices
    if core_distances.shape != (n,):
        raise ValueError(
            f"core_distances must have shape ({n},), got "
            f"{core_distances.shape}"
        )

    components = dendrogram.cut(epsilon)
    labels = np.full(n, -1, dtype=np.int64)
    is_core = core_distances <= epsilon
    if not is_core.any():
        return labels

    # component sizes counted over core points only
    comp_ids, comp_inverse = np.unique(components[is_core],
                                       return_inverse=True)
    sizes = np.bincount(comp_inverse)
    keep = sizes >= min_cluster_size
    lookup = np.where(keep, np.cumsum(keep) - 1, -1)  # kept -> 0..k-1
    labels[is_core] = lookup[comp_inverse]
    return labels
