"""Weighted edge lists and the canonical edge order.

Everything downstream of MST construction operates on a
:class:`SortedEdgeList`: the MST's edges sorted by weight *descending*, ties
broken by original edge id ascending.  Under this total order the single-
linkage dendrogram is unique (Section 3.1.1 of the paper), which is what lets
us require exact parent-array equality between PANDORA and the bottom-up
oracle.  Edge index 0 is the heaviest edge and is always the dendrogram root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..parallel.backend import get_backend
from ..parallel.machine import debug_checks
from ..parallel.workspace import index_dtype

__all__ = [
    "InvalidGraphError",
    "SortedEdgeList",
    "sort_edges_descending",
    "as_edge_arrays",
]

#: Fault-injection / cooperative-deadline hook (``repro.engine.faults``
#: installs it on import); ``None`` keeps the seam at one identity check.
_FAULT_HOOK = None


class InvalidGraphError(ValueError):
    """The input edge set is not a valid tree in canonical form.

    The single normalized failure type for malformed graph inputs (NaN
    weights, self-loops, negative ids, cycles, forests, parallel edges):
    every layer of the pipeline raises or re-raises it, so callers -- and
    the resilience layer, which classifies it *permanent* and never retries
    it -- see one exception type instead of a mix of ``ValueError`` /
    ``AssertionError`` / ``IndexError`` depending on where the malformation
    happened to surface.  Subclasses ``ValueError`` for backwards
    compatibility.
    """

    transient = False


def as_edge_arrays(
    u, v, w
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize edge inputs to (int64, int64, float64) 1-D arrays.

    Shape/length checks are always on (O(1)); the content-sanity passes
    (NaN weights, negative ids, self-loops -- each a full array scan) are
    debug-gated like every other input-validation pass, so benchmarks with
    ``REPRO_DEBUG_CHECKS=0`` do not pay them inside the sort phase.
    Violations raise :class:`InvalidGraphError`.
    """
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if not (u.ndim == v.ndim == w.ndim == 1):
        raise InvalidGraphError("edge arrays must be 1-D")
    if not (u.size == v.size == w.size):
        raise InvalidGraphError(
            f"edge arrays must have equal length, got {u.size}/{v.size}/{w.size}"
        )
    if debug_checks():
        if np.isnan(w).any():
            raise InvalidGraphError("edge weights must not contain NaN")
        if u.size and (min(u.min(), v.min()) < 0):
            raise InvalidGraphError("vertex ids must be non-negative")
        if np.any(u == v):
            raise InvalidGraphError(
                "self-loop edge found; a tree has no self-loops"
            )
    return u, v, w


@dataclass(frozen=True)
class SortedEdgeList:
    """Edges of a tree in canonical descending-weight order.

    Attributes
    ----------
    u, v:
        ``(n,)`` endpoint arrays in sorted order.
    w:
        ``(n,)`` weights, non-increasing.
    order:
        Permutation such that ``u[i] == u_input[order[i]]``: maps sorted edge
        index -> original input edge id.
    n_vertices:
        Number of tree vertices (``n + 1`` for a tree with n edges, but
        callers may pass a larger ambient vertex count).
    """

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    order: np.ndarray
    n_vertices: int

    @property
    def n_edges(self) -> int:
        return int(self.u.size)

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of the endpoint arrays (int32 on the adaptive hot path)."""
        return self.u.dtype

    def endpoints(self) -> np.ndarray:
        """``(n, 2)`` endpoint array (a copy)."""
        return np.stack([self.u, self.v], axis=1)

    def rank_of_input_edge(self) -> np.ndarray:
        """Inverse permutation: original input edge id -> sorted index."""
        inv = np.empty_like(self.order)
        inv[self.order] = np.arange(self.order.size, dtype=self.order.dtype)
        return inv

    def __post_init__(self) -> None:
        if debug_checks() and self.n_edges and np.any(np.diff(self.w) > 0):
            raise InvalidGraphError(
                "weights must be non-increasing in a SortedEdgeList"
            )


def sort_edges_descending(u, v, w, n_vertices: int | None = None) -> SortedEdgeList:
    """Sort tree edges by (weight desc, input id asc) -- the canonical order.

    This is the O(n log n) sort that Theorem 4 shows is unavoidable; it is
    accounted as a sort kernel in the cost model.

    The sorted endpoint arrays are stored in the adaptive index dtype
    (int32 below the 2**31 threshold) so every downstream kernel reads half
    the index bytes; ``as_edge_arrays`` -- the public input boundary --
    stays int64.
    """
    if _FAULT_HOOK is not None:
        _FAULT_HOOK("sort")
    u, v, w = as_edge_arrays(u, v, w)
    backend = get_backend()
    if n_vertices is None:
        n_vertices = int(max(u.max(initial=-1), v.max(initial=-1)) + 1)
    dt = index_dtype(u.size + n_vertices)
    ids = backend.arange(u.size, dt)
    # Canonical order through the backend's sort kernel: weight descending,
    # ties by input id ascending.  Every backend routes this through the
    # shared ``repro.parallel.sortlib`` engine -- one monotone u64 weight
    # key (NumPy bit-twiddle or numba JIT build) plus sortlib's strategy
    # (comparison sort when small, else a mask-narrowed LSD radix); the
    # order equals the two-key ``lexsort((ids, -w))``, which the tests
    # keep as the oracle.
    order = backend.canonical_sort_order(w, ids, name="edges.sort_desc")
    # Cast endpoints to the adaptive dtype *before* the permutation gather:
    # the cast is a cheap sequential pass, the gather is random-access
    # bound, so gathering the narrow representation halves its traffic.
    u = u.astype(dt, copy=False)
    v = v.astype(dt, copy=False)
    return SortedEdgeList(
        u=u[order],
        v=v[order],
        w=w[order],
        order=order,
        n_vertices=n_vertices,
    )
