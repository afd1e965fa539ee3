"""Connected components on edge lists, vectorized.

Used by PANDORA's tree-contraction step (collapsing the forest of non-alpha
edges into supervertices) and by Boruvka's MST (collapsing chosen edges).

Two schedules are provided:

* :func:`connected_components` -- the classic hook-and-shortcut
  (Shiloach-Vishkin) loop, the same family as the GPU union-find the paper
  uses: min-label hooking with ``np.minimum.at`` (an atomic-min) followed by
  pointer jumping to a fixed point.  Labels only decrease, so the loop
  terminates; on a forest the number of hook rounds is O(log n).  Correct
  for any graph; the tests use it as the oracle for the contraction's
  labeling.

* :func:`resolve_pointer_forest` -- for callers that already hold a *rooted
  pointer forest* (``pointer[x]`` is one step toward x's root, roots point
  to themselves).  PANDORA's contraction is such a caller: in the non-alpha
  forest every vertex's ``maxIncident`` edge either leaves its component (a
  root) or points strictly up the edge index order (see
  :func:`repro.core.contraction._maxinc_pointers`), so pointer doubling
  alone labels the supervertices -- no atomic hooks, no repeated
  convergence gathers over the edge list.
"""

from __future__ import annotations

import numpy as np

from .backend import get_backend
from .machine import debug_checks, emit
from .workspace import index_dtype

__all__ = [
    "connected_components",
    "compress_labels",
    "components_of_forest",
    "resolve_pointer_forest",
]


def connected_components(n: int, edges: np.ndarray) -> np.ndarray:
    """Label vertices of an ``n``-vertex graph by connected component.

    Parameters
    ----------
    n:
        Number of vertices (ids ``0..n-1``).
    edges:
        ``(m, 2)`` integer array; self-loops and duplicates are allowed.

    Returns
    -------
    labels:
        ``(n,)`` array where ``labels[i]`` is the minimum vertex id of i's
        component (a canonical representative).

    Notes
    -----
    Endpoint range validation runs only while
    :func:`~repro.parallel.machine.debug_checks` is on; benchmark runs
    disable it so the check costs nothing on the hot path.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    parent = np.arange(n, dtype=index_dtype(n))
    edges = np.asarray(edges)
    if not np.issubdtype(edges.dtype, np.integer):
        edges = edges.astype(np.int64)
    if edges.size == 0:
        return parent
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    if debug_checks() and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")

    u = edges[:, 0]
    v = edges[:, 1]
    # Only edge endpoints can ever change labels (hooks write to endpoint
    # roots, which start as endpoints and only decrease toward other
    # endpoint labels), so pointer jumping runs on this active set -- the
    # whole contraction then costs O(edges) per level rather than
    # O(vertices), matching the paper's linear contraction bound.  The raw
    # endpoint list (duplicates included) is used directly: duplicate jump
    # writes store identical values, so no dedup sort is needed.
    touched = edges.reshape(-1)
    while True:
        pu = parent[u]
        pv = parent[v]
        emit("cc.gather_labels", "gather", 2 * u.size)
        active = pu != pv
        if not active.any():
            break
        lo = np.minimum(pu[active], pv[active])
        hi = np.maximum(pu[active], pv[active])
        get_backend().scatter_min_at(parent, hi, lo, name="cc.hook")
        # Shortcut: pointer jumping to full compression of the active set.
        while True:
            grand = parent[parent[touched]]
            emit("cc.jump", "jump", int(touched.size))
            if np.array_equal(grand, parent[touched]):
                break
            parent[touched] = grand
    return parent


def resolve_pointer_forest(pointer: np.ndarray, name: str = "cc.jump") -> np.ndarray:
    """Resolve a rooted pointer forest to per-vertex root labels, in place.

    ``pointer[x]`` must be one step toward x's root (roots point to
    themselves) and the pointer graph must be acyclic apart from those
    self-loops.  Pointer doubling converges in ceil(log2(depth)) rounds.

    Dispatches to the active backend's fused jump kernel (the numba
    backend folds the convergence test into the jump pass).  Returns the
    resolved array -- which may be ``pointer`` itself or a workspace buffer
    of the same size; callers must treat it as scratch with the usual
    workspace lifetime rules.
    """
    return get_backend().resolve_pointer_forest(pointer, name=name)


def compress_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Map CC root labels to contiguous ids ``0..k-1``.

    Requires the :func:`connected_components` representative property
    (``labels[i]`` is a vertex id with ``labels[labels[i]] == labels[i]``),
    which allows the O(n) mark-roots + prefix-sum + gather relabeling a GPU
    implementation uses -- no sort.  Order-preserving: the component with the
    smallest representative becomes id 0, keeping supervertex numbering
    deterministic.  The output keeps the input's index dtype.
    """
    n = labels.size
    is_root = labels == np.arange(n, dtype=labels.dtype)
    emit("cc.mark_roots", "map", n)
    from .primitives import exclusive_scan

    dtype = labels.dtype if np.issubdtype(labels.dtype, np.integer) else np.int64
    new_id = exclusive_scan(
        is_root.astype(dtype), name="cc.relabel_scan", dtype=dtype
    )
    k = int(new_id[-1] + is_root[-1]) if n else 0
    out = new_id[labels]
    emit("cc.relabel_gather", "gather", n)
    return out, k


def components_of_forest(n: int, edges: np.ndarray) -> tuple[np.ndarray, int]:
    """Convenience: connected components + compact relabeling.

    Returns ``(labels, k)`` with labels in ``0..k-1``.  Correct for any
    graph, not only forests.
    """
    return compress_labels(connected_components(n, edges))
