"""Data-parallel primitives: the Kokkos-construct substitute layer.

The PANDORA paper expresses every kernel as one of a handful of parallel
constructs -- parallel loops (maps), reductions, prefix sums (scans), sorts,
gathers and scatters.  This module holds the free-function form of the
constructs the algorithms import by name -- scans, sorts, scatters,
segment heads and the spatial kernels -- as thin dispatchers onto the
active :class:`~repro.parallel.backend.Backend` (see
:func:`~repro.parallel.backend.get_backend`).  Each call:

* performs the operation as a single pass over the arrays on whichever
  execution backend is active (bulk NumPy kernels by default, JIT-fused
  loops on the numba backend);
* emits one :class:`~repro.parallel.machine.KernelRecord` into the active
  cost model so the run can be re-priced on any
  :class:`~repro.parallel.machine.DeviceSpec` -- the record sequence is
  backend-invariant by contract.

Algorithms in :mod:`repro.core`, :mod:`repro.mst` and :mod:`repro.spatial`
call either these wrappers or the backend vocabulary directly (maps,
gathers, compaction and the fused hot-path kernels), which is what makes
the claim "every step is a map, scan or sort" checkable: the recorded
kernel trace *is* the algorithm's parallel schedule.  The vocabulary is
exactly what those algorithms call; ``tests/test_backends.py`` fails on an
operation or wrapper without a library caller.
"""

from __future__ import annotations

import numpy as np

from .backend import get_backend

__all__ = [
    "exclusive_scan",
    "sort",
    "argsort",
    "argsort_bounded",
    "lexsort",
    "scatter",
    "scatter_min_at",
    "segmented_first",
    "spatial_partition",
    "spatial_knn",
    "spatial_node_reduce",
    "spatial_seed_scan",
    "spatial_leaf_pairs",
]


def exclusive_scan(
    a: np.ndarray, name: str = "scan", dtype: np.dtype | None = None
) -> np.ndarray:
    """Exclusive prefix sum; returns array of the same length as ``a``.

    Integer inputs accumulate in int64 by default (overflow safety for
    arbitrary callers); hot-path callers that know their sums fit pass an
    explicit narrower ``dtype`` to halve the traffic.
    """
    return get_backend().exclusive_scan(a, name=name, dtype=dtype)


def sort(a: np.ndarray, name: str = "sort") -> np.ndarray:
    return get_backend().sort(a, name=name)


def argsort(a: np.ndarray, name: str = "argsort") -> np.ndarray:
    return get_backend().argsort(a, name=name)


def argsort_bounded(
    keys: np.ndarray, min_key: int, max_key: int, name: str = "argsort"
) -> np.ndarray:
    """Stable argsort of integer keys provably in ``[min_key, max_key]``.

    Same order as :func:`argsort`; the bound is a narrowing hint that lets
    the backend run an O(n + k) counting/radix sort through the shared
    :mod:`repro.parallel.sortlib` engine (the chain-stitch sort's keys are
    bounded by ``2 * n_edges + 1``, so this replaces its full-array
    lexsort).
    """
    return get_backend().argsort_bounded(keys, min_key, max_key, name=name)


def lexsort(keys: tuple[np.ndarray, ...], name: str = "lexsort") -> np.ndarray:
    """Stable multi-key sort; last key is the primary key (NumPy order)."""
    return get_backend().lexsort(keys, name=name)


def scatter(
    target: np.ndarray, idx: np.ndarray, values, name: str = "scatter"
) -> np.ndarray:
    """Indexed write ``target[idx] = values`` (duplicate behaviour unspecified)."""
    return get_backend().scatter(target, idx, values, name=name)


def scatter_min_at(
    target: np.ndarray, idx: np.ndarray, values: np.ndarray,
    name: str = "scatter_min",
) -> np.ndarray:
    """Atomic-min scatter, the GPU atomicMin analogue."""
    return get_backend().scatter_min_at(target, idx, values, name=name)


def segmented_first(
    sorted_keys: np.ndarray, name: str = "segmented_first"
) -> np.ndarray:
    """Boolean mask of the first element of each run in a sorted key array."""
    return get_backend().segmented_first(sorted_keys, name=name)


# --------------------------------------------------------------------------
# Spatial kernel vocabulary (kd-tree / dual-tree Boruvka front-end)
# --------------------------------------------------------------------------


def spatial_partition(
    seg: np.ndarray, coords: np.ndarray, n_segs: int,
    name: str = "kdtree.partition",
) -> np.ndarray:
    """Segmented stable argsort by coordinate: one kd-tree build level."""
    return get_backend().spatial_partition(seg, coords, n_segs, name=name)


def spatial_knn(
    tree, queries: np.ndarray, k: int, name: str = "kdtree.knn"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact batched kNN over a kd-tree; returns ``(d2, ids)``."""
    return get_backend().spatial_knn(tree, queries, k, name=name)


def spatial_node_reduce(
    tree, values_perm: np.ndarray, kind: str,
    name: str = "emst.node_aggregate",
) -> np.ndarray:
    """Bottom-up per-node min/max of a tree-order per-point array."""
    return get_backend().spatial_node_reduce(tree, values_perm, kind, name=name)


def spatial_seed_scan(
    labels, knn_i, knn_d2, core2, mutual, out_d2, out_q,
    name: str = "emst.seed",
) -> None:
    """Per-point best foreign kNN entry (Boruvka candidate seeding)."""
    get_backend().spatial_seed_scan(
        labels, knn_i, knn_d2, core2, mutual, out_d2, out_q, name=name
    )


def spatial_leaf_pairs(
    tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm, mutual,
    bound_d2, offsets, out_comp, out_d2, out_p, out_q,
    name: str = "emst.leaf_pairs",
) -> None:
    """Batched leaf-leaf candidate updates for one traversal level."""
    get_backend().spatial_leaf_pairs(
        tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm, mutual,
        bound_d2, offsets, out_comp, out_d2, out_p, out_q, name=name
    )
