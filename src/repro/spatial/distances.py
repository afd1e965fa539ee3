"""Distance kernels: Euclidean blocks, core distance, mutual reachability.

HDBSCAN* (Section 6.5) runs single-linkage under the *mutual reachability*
metric

    d_mreach(p, q) = max(core(p), core(q), d(p, q))

where ``core(p)`` is the distance from p to its ``mpts``-th nearest neighbor
(p itself counted, so ``mpts = 1`` gives core 0 and plain Euclidean
single linkage).  All kernels are block-vectorized; the squared-distance
block uses the |a|^2 + |b|^2 - 2ab expansion so leaf-pair interactions in the
tree traversals are single GEMM-shaped operations.
"""

from __future__ import annotations

import numpy as np

from ..parallel.machine import emit

__all__ = [
    "box_gap2",
    "pair_sq_dists",
    "sq_dist_block",
    "dist_block",
    "mutual_reachability_block",
    "pairwise_mutual_reachability",
]


def sq_dist_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between row blocks: ``(|a|, |b|)``.

    Dispatches to SciPy's C ``cdist`` kernel, which computes the explicit
    difference form: exact zeros for coincident points (a GEMM-style
    |a|^2+|b|^2-2ab expansion leaks ~1e-16 noise that surfaces as 1e-8
    distances) and no Python-level temporaries on the hot leaf-block path.
    """
    from scipy.spatial.distance import cdist

    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    d2 = cdist(a, b, "sqeuclidean")
    emit("dist.block", "map", a.shape[0] * b.shape[0])
    return d2


def dist_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between row blocks."""
    return np.sqrt(sq_dist_block(a, b))


def mutual_reachability_block(
    d: np.ndarray, core_a: np.ndarray, core_b: np.ndarray
) -> np.ndarray:
    """Lift a Euclidean distance block to mutual reachability in place-free
    form: ``max(d, core_a[:, None], core_b[None, :])``."""
    out = np.maximum(d, core_a[:, None])
    np.maximum(out, core_b[None, :], out=out)
    emit("dist.mreach_block", "map", d.size)
    return out


def pairwise_mutual_reachability(
    points: np.ndarray, core: np.ndarray
) -> np.ndarray:
    """Dense mutual reachability matrix (small inputs / tests only)."""
    d = dist_block(points, points)
    np.fill_diagonal(d, 0.0)
    out = mutual_reachability_block(d, core, core)
    np.fill_diagonal(out, 0.0)
    return out


def box_gap2(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Squared gap between paired axis-aligned boxes, row by row.

    ``(lo_a[i], hi_a[i])`` against ``(lo_b[i], hi_b[i])``; zero where the
    boxes touch or overlap.  A point is the degenerate box ``(q, q)``.  The
    one box-distance formula of the spatial front-end: kNN pruning and the
    Boruvka pair bounds both call it.

    Squares are summed in coordinate order, as SciPy's ``sqeuclidean``
    ``cdist`` and the fused kernels sum a point distance.  Each gap term is
    at most the matching coordinate difference, so with the same order the
    rounded bound never exceeds the rounded ``d2`` of any point pair it
    bounds; ``einsum``'s blocked sum (d >= 3) can, by one ulp, and then
    prunes an exact neighbor.
    """
    delta = np.maximum(lo_a - hi_b, 0.0)
    delta += np.maximum(lo_b - hi_a, 0.0)
    delta *= delta
    out = delta[:, 0].copy()
    for c in range(1, delta.shape[1]):
        out += delta[:, c]
    return out


def pair_sq_dists(points: np.ndarray, i, j) -> np.ndarray:
    """``out[...] = |points[i] - points[j]|^2`` over broadcast index arrays.

    Summed in coordinate order like :func:`box_gap2`, so each entry is
    bit-identical to the ``d2`` SciPy's ``sqeuclidean`` ``cdist`` and the
    fused leaf kernels compute for the same pair -- unlike the square of a
    stored distance, which is rounded twice.
    """
    out = np.zeros(np.broadcast_shapes(np.shape(i), np.shape(j)))
    for c in range(points.shape[1]):
        x = points[:, c]
        diff = x.take(i) - x.take(j)
        diff *= diff
        out += diff
    return out
