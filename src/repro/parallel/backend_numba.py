"""Numba-JIT backend: fused kernels for the scatter/jump-heavy inner loops.

The NumPy backend pays one full array pass (and often a temporary) per
logical step of the scatter-heavy kernels: pointer doubling materializes a
gathered copy *and* an equality scan per round, the expansion pool
partition is four ``compress``/``take`` passes, and the canonical edge sort
is a two-key comparison lexsort over float64.  On a CPU those are exactly
the places a JIT wins, mirroring how cuSLINK retargets the same kernel
vocabulary: this backend fuses each of them into a single compiled loop.

Overrides (everything else inherits the NumPy realization):

* :meth:`NumbaBackend.resolve_pointer_forest` -- round-synchronous pointer
  doubling with the convergence count fused into the jump pass; drives the
  supervertex labeling in the contraction.
* :meth:`NumbaBackend.scatter_max_pairs` -- the maxIncident scatter as a
  single loop, skipping the interleave staging buffers entirely.
* :meth:`NumbaBackend.expand_pool_partition` -- the ``assign_chains`` pool
  compaction + relabel + append as one fused pass.
* ``_weight_keys`` -- the canonical descending weight sort's u64 key
  narrowing as one fused JIT pass (the kernel-level twin of
  ``sortlib.encode_weights_descending``, identical special-value policy);
  the inherited ``canonical_sort_order`` hands it to the shared
  :mod:`repro.parallel.sortlib` LSD-radix engine.

**One definition per kernel.**  Every kernel here is written once, with a
``prange`` outer loop wherever its iterations are independent.  This
backend compiles the table with ``numba.njit(cache=True)``, where a
``prange`` is a plain ``range``; ``numba-parallel``
(:mod:`repro.parallel.backend_numba_parallel`) compiles the *same*
function objects ``nogil=True`` (plus ``parallel=True`` for the ``prange``
kernels) through the same :func:`_jit` helper.  Each ``prange`` kernel's
docstring states why its iterations are race-free.

Every override emits the same kernel records as the NumPy backend (fusion
is backend-internal; the trace records the logical schedule) and produces
bit-identical arrays -- ``tests/test_backends.py`` enforces both.

numba is an *optional* dependency: the ``numba`` registry entry reports
unavailable when it cannot be imported.  ``NumbaBackend(jit=False)``
(registered as ``numba-python``) runs the identical kernel definitions
through the plain interpreter (``prange`` falls back to ``range``) so the
parity suite exercises them everywhere; it is a correctness tool, not a
performance backend.
"""

from __future__ import annotations

import importlib.util
import types

import numpy as np

from .backend import NumpyBackend
from .machine import emit

try:  # pragma: no cover - exercised via both registry entries
    from numba import prange
except ImportError:  # interpreted parity mode: a prange loop is a range loop
    prange = range

__all__ = ["NumbaBackend", "numba_available"]


def numba_available() -> bool:
    return importlib.util.find_spec("numba") is not None


# ---------------------------------------------------------------------------
# Kernel definitions.  Plain nopython-compatible functions: wrapped with
# numba.njit when jitting, executed directly by the interpreter otherwise
# (the ``-python`` parity backends).  Keep them free of Python-object
# operations.
# ---------------------------------------------------------------------------

#: Sign bit / all-ones / exponent masks for the monotone float64 -> u64 key
#: transform (the JIT realization of ``sortlib.encode_weights_descending``).
_SIGN = np.uint64(0x8000000000000000)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO = np.uint64(0)
_NOSIGN = np.uint64(0x7FFFFFFFFFFFFFFF)
_EXP = np.uint64(0x7FF0000000000000)


def _k_pointer_double(ptr, buf):
    """Round-synchronous pointer doubling to the fixed point; returns the
    round count.

    One round = one jump pass; the terminal round (no change) is counted,
    matching the NumPy realization's emitted record sequence.  Each round
    gathers grandparents into ``buf`` (reads only ``ptr``) with the change
    count as a ``prange`` scalar reduction, then copies back, so both
    ``prange`` loops are race-free and the rounds and fixed point depend
    only on the previous round's array.
    """
    n = ptr.size
    rounds = 0
    while True:
        rounds += 1
        changed = 0
        for i in prange(n):
            g = ptr[ptr[i]]
            if g != ptr[i]:
                changed += 1
            buf[i] = g
        if changed == 0:
            return rounds
        for i in prange(n):
            ptr[i] = buf[i]


def _k_scatter_max_pairs(out, u, v, idx):
    """maxIncident: both endpoint writes per edge, in edge order."""
    for i in range(u.size):
        k = idx[i]
        out[u[i]] = k
        out[v[i]] = k


def _k_pool_partition(
    pool_idx, pool_vert, keep, use_keep, vmap,
    level_idx, level_u, non_alpha, nxt_idx, nxt_vert,
):
    """Survivor compaction + vmap relabel + contracted-edge append, fused."""
    k = 0
    for i in range(pool_idx.size):
        if use_keep and not keep[i]:
            continue
        nxt_idx[k] = pool_idx[i]
        nxt_vert[k] = vmap[pool_vert[i]]
        k += 1
    for e in range(level_idx.size):
        if non_alpha[e]:
            nxt_idx[k] = level_idx[e]
            nxt_vert[k] = vmap[level_u[e]]
            k += 1
    return k


def _k_chain_keys(anchor, side, out):
    """Chain-sort key build in one pass (root chain -> -1).

    Elementwise: iteration ``i`` writes only ``out[i]``, so the ``prange``
    is race-free.
    """
    for i in prange(anchor.size):
        a = anchor[i]
        if a < 0:
            out[i] = -1
        else:
            out[i] = 2 * a + side[i]


def _k_weight_keys(bits, out):
    """Order-preserving float64-bits -> u64 key, *descending* weight order.

    The classic radix-sort float transform: flip all bits of negatives,
    set the sign bit of non-negatives -- that key is ascending in the
    float order -- then complement for descending.  ``-0.0`` is normalized
    to ``+0.0`` first so float-equal weights map to equal keys (ties must
    fall through to the stable positional order exactly like the lexsort).
    Special-value policy matches ``sortlib.encode_weights_descending``
    byte for byte: every NaN (any sign/payload) maps to the all-ones key,
    sorting last even after ``-inf``.  Elementwise (iteration ``i`` writes
    only ``out[i]``), so the ``prange`` is race-free.
    """
    for i in prange(bits.size):
        b = bits[i]
        if (b & _NOSIGN) > _EXP:  # NaN: one shared maximal key
            out[i] = _FULL
        else:
            if b == _SIGN:  # -0.0 compares equal to +0.0: same key
                b = _ZERO
            if b & _SIGN:
                m = b ^ _FULL
            else:
                m = b | _SIGN
            out[i] = m ^ _FULL


def _k_coord_keys(bits, out):
    """Order-preserving float64-bits -> u64 key, *ascending* order.

    The ascending sibling of ``_k_weight_keys`` (no final complement), the
    JIT realization of ``Backend.encode_floats_ascending``: flip all bits
    of negatives, set the sign bit of non-negatives.  ``-0.0`` keys equal
    to ``+0.0``; every NaN maps to the all-ones key (sorts last).
    Elementwise, so the ``prange`` is race-free.
    """
    for i in prange(bits.size):
        b = bits[i]
        if (b & _NOSIGN) > _EXP:  # NaN: one shared maximal key
            out[i] = _FULL
        else:
            if b == _SIGN:  # -0.0 compares equal to +0.0: same key
                b = _ZERO
            if b & _SIGN:
                out[i] = b ^ _FULL
            else:
                out[i] = b | _SIGN


def _k_knn_query(points, indices, split_dim, split_val, left, right,
                 start, end, box_lo, box_hi, queries, k, out_d2, out_id):
    """Batched exact kNN: per-query depth-first descend/refine, fused.

    Each query keeps an insertion-sorted ``(d2, id)`` k-list in its output
    rows (sentinel ``(inf, n)`` pads short answers) and prunes a subtree
    only when its box lower bound *strictly* exceeds the current k-th pair
    -- the same conservative rule as the NumPy block realization, so both
    produce the unique k-smallest-(d2, id) answer.  Distance accumulation
    is in coordinate order, bit-matching ``cdist(..., "sqeuclidean")``.
    Queries are fully independent (each owns its output rows and a private
    traversal stack), so the ``prange`` is race-free and the answer is
    scheduling-invariant.
    """
    n = indices.size
    m = queries.shape[0]
    dims = points.shape[1]
    for q in prange(m):
        for j in range(k):
            out_d2[q, j] = np.inf
            out_id[q, j] = n
        stack = np.empty(128, dtype=np.int64)
        stack[0] = 0
        top = 1
        while top > 0:
            top -= 1
            node = stack[top]
            lb = 0.0
            for c in range(dims):
                x = queries[q, c]
                lo = box_lo[node, c]
                hi = box_hi[node, c]
                if x < lo:
                    t = lo - x
                    lb += t * t
                elif x > hi:
                    t = x - hi
                    lb += t * t
            if lb > out_d2[q, k - 1]:
                continue
            lc = left[node]
            if lc == -1:
                for ii in range(start[node], end[node]):
                    pid = indices[ii]
                    d2 = 0.0
                    for c in range(dims):
                        t = queries[q, c] - points[pid, c]
                        d2 += t * t
                    last_d = out_d2[q, k - 1]
                    last_i = out_id[q, k - 1]
                    if d2 < last_d or (d2 == last_d and pid < last_i):
                        j = k - 1
                        while j > 0 and (
                            out_d2[q, j - 1] > d2
                            or (out_d2[q, j - 1] == d2
                                and out_id[q, j - 1] > pid)
                        ):
                            out_d2[q, j] = out_d2[q, j - 1]
                            out_id[q, j] = out_id[q, j - 1]
                            j -= 1
                        out_d2[q, j] = d2
                        out_id[q, j] = pid
            else:
                rc = right[node]
                if queries[q, split_dim[node]] < split_val[node]:
                    near = lc
                    far = rc
                else:
                    near = rc
                    far = lc
                stack[top] = far
                top += 1
                stack[top] = near
                top += 1


def _k_tree_reduce_min(left, right, start, end, values_perm, out):
    """Bottom-up per-node min in one descending-id pass.

    Valid because the level-order build guarantees ``child id > parent id``
    and every node's slice is non-empty; min is comparison-exact, so the
    combine order cannot change the result vs the NumPy realization.
    """
    for node in range(left.size - 1, -1, -1):
        lc = left[node]
        if lc == -1:
            acc = values_perm[start[node]]
            for i in range(start[node] + 1, end[node]):
                if values_perm[i] < acc:
                    acc = values_perm[i]
            out[node] = acc
        else:
            a = out[lc]
            b = out[right[node]]
            out[node] = a if a < b else b


def _k_tree_reduce_max(left, right, start, end, values_perm, out):
    """Bottom-up per-node max; see ``_k_tree_reduce_min``."""
    for node in range(left.size - 1, -1, -1):
        lc = left[node]
        if lc == -1:
            acc = values_perm[start[node]]
            for i in range(start[node] + 1, end[node]):
                if values_perm[i] > acc:
                    acc = values_perm[i]
            out[node] = acc
        else:
            a = out[lc]
            b = out[right[node]]
            out[node] = a if a > b else b


def _k_seed_scan(labels, knn_i, knn_d2, core2, mutual, out_d2, out_q):
    """Per-point best foreign kNN entry (Boruvka seeding), fused.

    Strict ``<`` keeps the first (lowest-rank) column on ties -- the same
    pair NumPy's first-occurrence ``argmin`` selects.  Points with no
    foreign neighbor in their list get ``(inf, -1)``.  Rows are
    independent (row ``i`` writes only slot ``i``), so the ``prange`` is
    race-free.
    """
    n = labels.size
    k = knn_i.shape[1]
    for i in prange(n):
        bd = np.inf
        bq = np.int64(-1)
        li = labels[i]
        for j in range(k):
            q = knn_i[i, j]
            if labels[q] == li:
                continue
            d2 = knn_d2[i, j]
            if mutual:
                if core2[i] > d2:
                    d2 = core2[i]
                if core2[q] > d2:
                    d2 = core2[q]
            if d2 < bd:
                bd = d2
                bq = q
        out_d2[i] = bd
        out_q[i] = bq


def _k_leaf_pairs(leaf_a, leaf_b, pair_lb, start, end, indices, points_perm,
                  labels_perm, core2_perm, mutual, bound_d2, offsets,
                  out_comp, out_d2, out_p, out_q):
    """Batched leaf-leaf candidate updates: independent per-pair loops.

    Pair ``t`` owns the disjoint output slots ``offsets[t] ..`` (A-side
    points in tree order, then B-side) and reads only frozen inputs, so
    the ``prange`` over pairs is race-free and schedule-independent.
    Bounds are frozen for the whole batch; a point writes its slot only
    when its component's frozen bound both exceeds the pair's lower bound
    and is strictly improved, else the slot's d2 is inf.  Strict ``<``
    keeps the first partner in tree order on ties -- NumPy's
    first-occurrence ``argmin``.
    """
    dims = points_perm.shape[1]
    for t in prange(leaf_a.size):
        a = leaf_a[t]
        b = leaf_b[t]
        lb = pair_lb[t]
        sa = start[a]
        ea = end[a]
        sb = start[b]
        eb = end[b]
        base = offsets[t]
        for i in range(sa, ea):
            slot = base + (i - sa)
            comp = labels_perm[i]
            bnd = bound_d2[comp]
            best = np.inf
            bj = np.int64(-1)
            if bnd > lb:
                for j in range(sb, eb):
                    if labels_perm[j] == comp:
                        continue
                    d2 = 0.0
                    for c in range(dims):
                        tt = points_perm[i, c] - points_perm[j, c]
                        d2 += tt * tt
                    if mutual:
                        if core2_perm[i] > d2:
                            d2 = core2_perm[i]
                        if core2_perm[j] > d2:
                            d2 = core2_perm[j]
                    if d2 < best:
                        best = d2
                        bj = j
            if bj >= 0 and best < bnd:
                out_comp[slot] = comp
                out_d2[slot] = best
                out_p[slot] = indices[i]
                out_q[slot] = indices[bj]
            else:
                out_d2[slot] = np.inf
        base_b = base + (ea - sa)
        for j in range(sb, eb):
            slot = base_b + (j - sb)
            comp = labels_perm[j]
            bnd = bound_d2[comp]
            best = np.inf
            bi = np.int64(-1)
            if bnd > lb:
                for i in range(sa, ea):
                    if labels_perm[i] == comp:
                        continue
                    d2 = 0.0
                    for c in range(dims):
                        tt = points_perm[j, c] - points_perm[i, c]
                        d2 += tt * tt
                    if mutual:
                        if core2_perm[j] > d2:
                            d2 = core2_perm[j]
                        if core2_perm[i] > d2:
                            d2 = core2_perm[i]
                    if d2 < best:
                        best = d2
                        bi = i
            if bi >= 0 and best < bnd:
                out_comp[slot] = comp
                out_d2[slot] = best
                out_p[slot] = indices[j]
                out_q[slot] = indices[bi]
            else:
                out_d2[slot] = np.inf


_PY_KERNELS = {
    "pointer_double": _k_pointer_double,
    "scatter_max_pairs": _k_scatter_max_pairs,
    "pool_partition": _k_pool_partition,
    "chain_keys": _k_chain_keys,
    "weight_keys": _k_weight_keys,
    "coord_keys": _k_coord_keys,
    "knn_query": _k_knn_query,
    "tree_reduce_min": _k_tree_reduce_min,
    "tree_reduce_max": _k_tree_reduce_max,
    "seed_scan": _k_seed_scan,
    "leaf_pairs": _k_leaf_pairs,
}


_COMPILED: dict[tuple, dict] = {}


def _jit(kernels: dict, **options) -> dict:
    """Compile a kernel table with ``numba.njit(cache=True, **options)``.

    Memoized per (table, options), so each process compiles (or loads) a
    table once however many backend instances use it.  numba's on-disk
    cache keys a function by module, qualified name, line and signature --
    not by ``nogil``/``parallel`` -- so a compile with options runs on a
    copy of each function whose ``__qualname__`` names those options:
    every compiled variant of one definition gets its own cache file and
    never loads another variant's machine code.
    """
    key = (tuple(kernels.items()), tuple(sorted(options.items())))
    table = _COMPILED.get(key)
    if table is None:
        import numba

        suffix = "".join(f"__{opt}" for opt, on in key[1] if on)
        table = _COMPILED[key] = {
            name: numba.njit(cache=True, **options)(
                _renamed(fn, fn.__qualname__ + suffix) if suffix else fn
            )
            for name, fn in kernels.items()
        }
    return table


def _renamed(fn, qualname: str):
    """A copy of ``fn`` (same code, globals and defaults) under ``qualname``."""
    copy = types.FunctionType(
        fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__,
        fn.__closure__,
    )
    copy.__qualname__ = qualname
    return copy


_EMPTY_KEEP = np.zeros(0, dtype=bool)


class NumbaBackend(NumpyBackend):
    """JIT backend; ``jit=False`` runs the same kernels interpreted."""

    name = "numba"

    def __init__(self, jit: bool = True) -> None:
        super().__init__()
        if jit and not numba_available():
            raise ImportError(
                "NumbaBackend(jit=True) requires numba; install it or use "
                "NumbaBackend(jit=False) / the 'numpy' backend"
            )
        self.jit = jit
        if not jit:
            self.name = "numba-python"
        self._k = self._kernel_table(jit)

    def _kernel_table(self, jit: bool) -> dict:
        """This backend's kernel table: compiled, or the interpreted
        definitions when ``jit`` is off."""
        return _jit(_PY_KERNELS) if jit else _PY_KERNELS

    # -- fused overrides ---------------------------------------------------
    def resolve_pointer_forest(self, pointer, name: str = "cc.jump") -> np.ndarray:
        n = pointer.size
        if n == 0:
            return pointer
        buf = self.take("cc.jump_buf", n, pointer.dtype)
        rounds = int(self._k["pointer_double"](pointer, buf))
        for _ in range(rounds):
            emit(name, "jump", n)
        return pointer

    def scatter_max_pairs(self, out, u, v, idx, name: str | None = "scatter_max"):
        self._emit(name, "scatter", 2 * int(np.size(u)))
        self._k["scatter_max_pairs"](out, u, v, idx)
        return out

    def expand_pool_partition(
        self, pool_idx, pool_vert, keep, vmap,
        level_idx, level_u, non_alpha, n_contracted,
        nxt_idx, nxt_vert, name: str | None = "expand.pool_relabel",
    ) -> int:
        k = int(self._k["pool_partition"](
            pool_idx, pool_vert,
            keep if keep is not None else _EMPTY_KEEP,
            keep is not None, vmap,
            level_idx, level_u, non_alpha, nxt_idx, nxt_vert,
        ))
        self._emit(name, "gather", k)
        return k

    def chain_sort_keys(self, anchor, side, out, name: str | None = None):
        self._emit(name, "map", int(np.size(anchor)))
        self._k["chain_keys"](anchor, side, out)
        return out

    def _weight_keys(self, weights) -> np.ndarray:
        # The canonical sort's key build as one fused JIT pass; the sort
        # itself stays the inherited one.
        w = np.ascontiguousarray(weights, dtype=np.float64)
        key = self.take("backend.sort_key", w.size, np.uint64)
        self._k["weight_keys"](w.view(np.uint64), key)
        return key

    # -- spatial vocabulary (fused realizations) ---------------------------
    def encode_floats_ascending(self, values, name: str | None = None):
        self._emit(name, "map", int(np.size(values)))
        v = np.ascontiguousarray(values, dtype=np.float64)
        out = self.take("spatial.fkey", v.size, np.uint64)
        self._k["coord_keys"](v.view(np.uint64), out)
        return out

    def spatial_knn(self, tree, queries, k, name: str | None = "kdtree.knn"):
        m = int(queries.shape[0])
        self._emit(name, "map", m * int(k))
        out_d2 = np.empty((m, k), dtype=np.float64)
        out_id = np.empty((m, k), dtype=np.int64)
        self._k["knn_query"](
            tree.points, tree.indices, tree.split_dim, tree.split_val,
            tree.left, tree.right, tree.start, tree.end,
            tree.box_lo, tree.box_hi,
            np.ascontiguousarray(queries, dtype=np.float64),
            int(k), out_d2, out_id,
        )
        return out_d2, out_id.astype(tree.indices.dtype, copy=False)

    def spatial_node_reduce(
        self, tree, values_perm, kind, name: str | None = "emst.node_aggregate"
    ):
        self._emit(name, "reduce", int(tree.n_nodes))
        out = np.empty(tree.n_nodes, dtype=values_perm.dtype)
        kfn = self._k["tree_reduce_min" if kind == "min" else "tree_reduce_max"]
        kfn(tree.left, tree.right, tree.start, tree.end, values_perm, out)
        return out

    def spatial_seed_scan(
        self, labels, knn_i, knn_d2, core2, mutual, out_d2, out_q,
        name: str | None = "emst.seed",
    ):
        self._emit(name, "map", int(np.size(knn_i)))
        self._k["seed_scan"](labels, knn_i, knn_d2, core2, bool(mutual),
                             out_d2, out_q)

    def spatial_leaf_pairs(
        self, tree, leaf_a, leaf_b, pair_lb, labels_perm, core2_perm, mutual,
        bound_d2, offsets, out_comp, out_d2, out_p, out_q,
        name: str | None = "emst.leaf_pairs",
    ):
        sizes_a = (tree.end[leaf_a] - tree.start[leaf_a]).astype(np.int64)
        sizes_b = (tree.end[leaf_b] - tree.start[leaf_b]).astype(np.int64)
        self._emit(name, "map", int(sizes_a @ sizes_b))
        self._k["leaf_pairs"](
            leaf_a, leaf_b, pair_lb, tree.start, tree.end, tree.indices,
            tree.points_perm, labels_perm, core2_perm, bool(mutual),
            bound_d2, offsets, out_comp, out_d2, out_p, out_q,
        )

    def warmup(self) -> None:
        """Compile (or touch) every kernel on tiny inputs.

        Benchmarks call this so first-use JIT compilation never lands
        inside a timed region.  The spatial kernels are driven through a
        tiny kd-tree in *both* index-dtype regimes (adaptive int32 and
        forced int64) so every compiled signature the real workloads hit
        is already cached.
        """
        i8 = np.zeros(1, dtype=np.int64)
        self.resolve_pointer_forest(i8.copy())
        self.scatter_max_pairs(i8.copy(), i8, i8, i8)
        self.expand_pool_partition(
            i8[:0], i8[:0], None, i8,
            i8, i8, np.zeros(1, dtype=bool), 0,
            self.take("warmup.a", 1, np.int64), self.take("warmup.b", 1, np.int64),
        )
        self.chain_sort_keys(i8, np.zeros(1, dtype=np.int8), i8.copy())
        self.canonical_sort_order(np.zeros(1), i8)
        self._warmup_spatial()

    def _warmup_spatial(self) -> None:
        from ..spatial.kdtree import KDTree  # runtime import: layering
        from .backend import use_backend
        from .workspace import INT32_LIMIT, hotpath

        rng = np.random.default_rng(0)
        pts = rng.random((8, 2))
        for limit in (INT32_LIMIT, 0):
            with hotpath(int32_limit=limit), use_backend(self):
                tree = KDTree.build(pts, leaf_size=2)
                d2, ids = self.spatial_knn(tree, pts, 2)
                labels = np.arange(8, dtype=tree.indices.dtype)
                labels_perm = labels[tree.indices]
                self.spatial_node_reduce(tree, labels_perm, "min")
                self.spatial_node_reduce(
                    tree, tree.points_perm[:, 0].copy(), "max"
                )
                out_sd = np.empty(8)
                out_sq = np.empty(8, dtype=np.int64)
                core2 = np.zeros(8)
                for mutual in (False, True):
                    self.spatial_seed_scan(
                        labels, ids, d2, core2, mutual, out_sd, out_sq
                    )
                leaves = tree.leaves_by_start().astype(np.int64)
                la, lb = leaves[:1], leaves[-1:]
                tot = int(tree.end[la[0]] - tree.start[la[0]]
                          + tree.end[lb[0]] - tree.start[lb[0]])
                outs = (np.empty(tot, np.int64), np.empty(tot),
                        np.empty(tot, np.int64), np.empty(tot, np.int64))
                for mutual in (False, True):
                    self.spatial_leaf_pairs(
                        tree, la, lb, np.zeros(1), labels_perm,
                        np.zeros(8), mutual, np.full(8, np.inf),
                        np.zeros(1, np.int64), *outs,
                    )
