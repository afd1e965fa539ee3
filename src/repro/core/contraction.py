"""Recursive tree contraction (Section 3.2).

Each level takes the current tree, classifies its edges with Eq. 2, and
contracts the non-alpha edges: the forest they form collapses into
supervertices (connected components), and the alpha-edges -- with endpoints
relabeled to supervertex ids -- become the next, at-least-halved tree
(``n_alpha <= (n-1)/2``, Section 4.2).  Contraction stops when no alpha-edge
remains; that final tree's dendrogram is a single sorted chain.

What is kept per level is exactly what the expansion pass (Section 3.3)
needs:

* ``idx``          -- global sorted indices of this level's edges (ascending);
* ``u, v``         -- endpoints in this level's vertex labels;
* ``max_inc``      -- ``maxIncident`` of this level's tree (global indices);
* ``alpha``        -- the alpha mask;
* ``row_lookup``   -- global edge index -> row in this level's arrays, so
                      ``row_of`` is a single gather;
* ``vmap``         -- this level's vertex -> next level's supervertex
                      (``None`` on the last level).

The endpoint pair order (u, v) is preserved across levels so that the
"side" of an anchor edge has a consistent meaning at every level.

All index arrays run in the adaptive dtype of
:func:`repro.parallel.workspace.index_dtype` (int32 below the 2**31
threshold), and the supervertex labeling uses the structure of the
non-alpha forest instead of generic hook-and-shortcut CC.  In the non-alpha
forest, every non-alpha edge ``e_k = {u, v}`` satisfies
``k == maxIncident(u)`` or ``k == maxIncident(v)`` (Eq. 2), so directing
each vertex across its maxIncident edge (when that edge is non-alpha) yields
pointers that strictly increase the edge index -- except at the component's
maximum edge, where both endpoints may point at each other (broken toward
the smaller vertex id).  The result is a rooted pointer forest with exactly
one root per component, resolved by pointer doubling alone: one "hook" map
replaces the whole atomic-min hook loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..parallel.backend import get_backend
from ..parallel.connected import compress_labels, resolve_pointer_forest
from ..parallel.machine import debug_checks, emit
from ..parallel.workspace import index_dtype
from ..structures.edgelist import InvalidGraphError
from .alpha import alpha_mask, max_incident

__all__ = ["ContractionLevel", "contract_multilevel", "max_contraction_levels"]


@dataclass
class ContractionLevel:
    """One tree in the contraction hierarchy (T_0 is the input MST)."""

    idx: np.ndarray        # (m,) global edge indices, strictly ascending
    u: np.ndarray          # (m,) endpoints in this level's labels
    v: np.ndarray
    n_vertices: int
    max_inc: np.ndarray    # (n_vertices,) maxIncident as *global* edge index
    alpha: np.ndarray      # (m,) bool
    row_lookup: np.ndarray  # (idx[-1]+1,) global index -> row
    vmap: np.ndarray | None = None  # (n_vertices,) -> next level supervertex

    @property
    def n_edges(self) -> int:
        return int(self.idx.size)

    @property
    def n_alpha(self) -> int:
        return int(self.alpha.sum())

    def row_of(self, global_idx: np.ndarray) -> np.ndarray:
        """Rows of the given global edge indices in this level's arrays.

        A single gather from ``row_lookup``.  Caller must pass indices that
        exist at this level.
        """
        emit("contract.row_of", "gather", int(np.size(global_idx)))
        rows = self.row_lookup[global_idx]
        if debug_checks() and rows.size and bool((rows < 0).any()):
            raise ValueError("row_of: index not present at this level")
        return rows


def _classify(
    idx: np.ndarray, u: np.ndarray, v: np.ndarray, n_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """(max_inc in global indices, alpha mask) for one level's tree."""
    max_inc = max_incident(n_vertices, u, v, idx)
    mask = alpha_mask(max_inc, u, v, idx)
    return max_inc, mask


def _build_row_lookup(idx: np.ndarray) -> np.ndarray:
    """Scatter rows into a global-index-domain lookup table.

    Off-level entries are uninitialized (``np.empty``): ``row_of``'s
    contract already requires queried indices to exist at the level.  Under
    debug checks they are ``-1`` instead so ``row_of`` can diagnose misuse.
    """
    backend = get_backend()
    m = int(idx.size)
    domain = int(idx[-1]) + 1 if m else 0
    if debug_checks():
        lookup = backend.full(domain, -1, idx.dtype)
    else:
        lookup = backend.empty(domain, idx.dtype)
    backend.scatter(
        lookup, idx, backend.arange(m, idx.dtype), name="contract.row_lookup"
    )
    return lookup


def _maxinc_pointers(
    u: np.ndarray,
    v: np.ndarray,
    n_vertices: int,
    max_inc: np.ndarray,
    alpha: np.ndarray,
    row_lookup: np.ndarray,
) -> np.ndarray:
    """Rooted pointer forest over the non-alpha forest (module docstring).

    Returns a workspace-backed scratch array: ``ptr[x]`` is the other
    endpoint of x's maxIncident edge when that edge is non-alpha, else x.
    The single 2-cycle per component (both endpoints of the component's
    maximum edge pointing at each other) is broken toward the smaller id.
    """
    backend = get_backend()
    n = n_vertices
    dt = max_inc.dtype
    rows = backend.take("cc.maxinc_rows", n, dt)
    # max_inc == -1 (isolated vertex) gathers a garbage row; masked below.
    backend.gather_into(row_lookup, max_inc, out=rows, mode="wrap", name=None)
    eu = backend.take("cc.maxinc_eu", n, dt)
    ev = backend.take("cc.maxinc_ev", n, dt)
    backend.gather_into(u, rows, out=eu, mode="clip", name=None)
    backend.gather_into(v, rows, out=ev, mode="clip", name=None)
    emit("cc.maxinc_hook", "gather", 3 * n)

    ids = backend.arange(n, dt)
    ptr = backend.take("cc.maxinc_ptr", n, dt)
    # Other endpoint of the maxIncident edge ...
    ptr[:] = eu
    backend.masked_fill(ptr, eu == ids, ev, name=None)
    # ... except roots: no incident edge, or the maxIncident edge is alpha
    # (it leaves the non-alpha component).
    root = backend.take("cc.maxinc_root", n, np.bool_)
    backend.gather_into(alpha, rows, out=root, mode="clip", name=None)
    root |= max_inc < 0
    backend.masked_fill(ptr, root, ids, name=None)
    emit("cc.maxinc_hook.select", "map", n)

    # Break the per-component 2-cycle at the maximum edge toward min(u, v).
    p2 = backend.take("cc.maxinc_p2", n, dt)
    backend.gather_into(ptr, ptr, out=p2, name=None)
    cycle = p2 == ids
    cycle &= ptr != ids
    cycle &= ids < ptr
    backend.masked_fill(ptr, cycle, ids, name=None)
    emit("cc.maxinc_cycle", "jump", n)
    return ptr


def contract_multilevel(
    u: np.ndarray, v: np.ndarray, n_vertices: int, max_levels: int | None = None
) -> list[ContractionLevel]:
    """Build the full contraction hierarchy for a canonically-sorted tree.

    Parameters
    ----------
    u, v:
        Tree edges in canonical (descending weight) order; row k is global
        edge index k.
    n_vertices:
        Vertex count of the input tree.
    max_levels:
        Optional cap on the number of *contractions* performed (used by the
        single-level ablation).  ``None`` contracts until no alpha-edges
        remain.

    Returns
    -------
    Levels ``[T_0, T_1, ..., T_L]``; every level except the last has a
    ``vmap``.  The last level either has no alpha-edges or the level cap was
    reached.
    """
    backend = get_backend()
    m = int(np.size(u))
    if m and m >= n_vertices:
        raise InvalidGraphError(
            f"{m} edges on {n_vertices} vertices: a tree has at most "
            f"{n_vertices - 1}, so the input has a cycle"
        )
    dt = index_dtype(m + n_vertices)
    idx = backend.arange(m, dt)
    u = np.ascontiguousarray(u).astype(dt, copy=False)
    v = np.ascontiguousarray(v).astype(dt, copy=False)

    levels: list[ContractionLevel] = []
    while True:
        max_inc, mask = _classify(idx, u, v, n_vertices)
        lookup = _build_row_lookup(idx)
        level = ContractionLevel(
            idx=idx, u=u, v=v, n_vertices=n_vertices, max_inc=max_inc,
            alpha=mask, row_lookup=lookup,
        )
        levels.append(level)
        n_alpha = level.n_alpha
        if n_alpha == 0:
            break
        if max_levels is not None and len(levels) > max_levels:
            break
        # Work-optimality guard (Section 4.2): the contracted tree must be at
        # most half the size, or the recursion depth bound would break.
        if n_alpha > (level.n_edges - 1) / 2:
            raise InvalidGraphError(
                f"alpha-edge bound violated: {n_alpha} > ({level.n_edges}-1)/2; "
                "the input is not a tree in canonical order"
            )
        ptr = _maxinc_pointers(u, v, n_vertices, max_inc, mask, lookup)
        vmap, k = compress_labels(resolve_pointer_forest(ptr))
        level.vmap = vmap
        emit("contract.relabel_edges", "gather", 2 * n_alpha)
        idx = idx[mask]
        u = vmap[u[mask]]
        v = vmap[v[mask]]
        # A contracted alpha-edge joining a supervertex to itself closes a
        # cycle that the edge-count check above cannot see (a cycle plus an
        # isolated vertex).
        if debug_checks() and bool((u == v).any()):
            raise InvalidGraphError(
                "an alpha-edge joins a supervertex to itself; "
                "the input has a cycle"
            )
        n_vertices = k
    return levels


def max_contraction_levels(n_edges: int) -> int:
    """Upper bound on contraction levels: ceil(log2(n+1)) (Section 4.2)."""
    if n_edges <= 0:
        return 0
    return math.ceil(math.log2(n_edges + 1))
