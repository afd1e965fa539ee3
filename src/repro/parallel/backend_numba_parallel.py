"""Numba parallel backend: nogil fused kernels so serving threads scale.

The engine's thread-pool serving path (PR 4) is gated for correctness only:
NumPy kernels at reproduction scale are largely GIL-serialized, so
``Engine.fit_many`` cannot beat the serial loop no matter how many workers
it spawns.  This backend is the step that makes the ROADMAP's serving story
measurably true on multi-core CPUs, mirroring how ParChain realizes the
same chain-based phase structure with CPU parallelism: every fused kernel
is compiled ``nogil=True`` so N concurrent jobs run kernels truly in
parallel across threads, and the data-parallel kernels additionally use
``parallel=True``/``prange`` so a *single* job can spread one kernel over
cores.

Overrides (everything else inherits the numba/NumPy realization):

* :meth:`NumbaParallelBackend.resolve_pointer_forest` -- round-synchronous
  pointer doubling: a ``prange`` gather pass (reads ``ptr``, writes ``buf``,
  change count via a scalar reduction) followed by a ``prange`` copy-back.
  Deterministic because every round reads only the previous round's array.
* :meth:`NumbaParallelBackend.expand_pool_partition` -- chunked two-pass
  stream compaction: per-chunk survivor counts in ``prange``, one
  sequential exclusive scan over the chunk offsets, then a ``prange`` write
  pass in which every chunk owns a disjoint output range.  Order-preserving
  regardless of chunk boundaries, hence bit-identical to the sequential
  kernel.
* :meth:`NumbaParallelBackend.canonical_sort_order` /
  :meth:`NumbaParallelBackend.argsort_bounded` -- the sortlib LSD radix
  realized as a JIT parallel-histogram counting sort (digit-column
  extraction fused into the passes): per-chunk histograms in ``prange``,
  one exclusive scan over ``(digit, chunk)``, then a stable scatter where
  every chunk increments only its own offset row.  Planning (key encoding,
  varying-bit-mask narrowing, digit windows) is sortlib's
  (:func:`~repro.parallel.sortlib.runtime_mask`,
  :func:`~repro.parallel.sortlib.pass_windows`), so strategy selection and
  the emitted records are byte-for-byte the shared engine's.
* ``chain_sort_keys`` and the canonical sort's u64 weight-key build run as
  elementwise ``prange`` loops.

The maxIncident scatter (``scatter_max_pairs``) stays sequential *inside*
a ``nogil=True`` compile: its last-write-wins / atomic-max semantics have
no race-free CPU ``prange`` realization without atomic intrinsics (numba
exposes none on CPU), and a racy loop would break the bit-identical
backend contract.  Dropping the GIL is what the serving path needs from
it -- concurrent jobs overlap the kernel across threads even though each
executes on one core.

Determinism is the contract: every kernel here admits exactly one output
(stable counting passes, round-synchronous jumps, chunk-owned output
ranges), so ``numba-parallel`` produces bit-identical parent arrays and
identical :class:`~repro.parallel.machine.KernelRecord` traces to the
``numpy`` backend in both index-dtype regimes -- ``tests/test_backends.py``
and the 8-thread ``tests/test_concurrency.py`` suite enforce it.

Registry: ``numba-parallel`` (available only when numba imports) and
``numba-parallel-python`` (the same kernel definitions interpreted, with
``prange`` falling back to ``range`` -- the always-available parity twin,
matching the ``numba-python`` precedent).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import sortlib
from .backend_numba import (
    _EMPTY_KEEP,
    _EXP,
    _FULL,
    _NOSIGN,
    _PY_KERNELS,
    _SIGN,
    _ZERO,
    NumbaBackend,
)
from .workspace import hotpath_config

try:  # pragma: no cover - exercised via both registry entries
    from numba import prange
except ImportError:  # interpreted parity mode: a prange loop is a range loop
    prange = range

__all__ = ["NumbaParallelBackend"]

#: Work-unit sizing for the chunked kernels.  Chunk boundaries are derived
#: from ``n`` alone and outputs are chunk-order-preserving, so results never
#: depend on thread count or scheduling; the cap bounds histogram scratch
#: (``chunks * 65536`` int64 for a 16-bit digit pass).
_CHUNK_MIN = 32_768
_MAX_CHUNKS = 16


def _n_chunks(n: int) -> int:
    return min(_MAX_CHUNKS, max(1, n // _CHUNK_MIN))


# ---------------------------------------------------------------------------
# Kernel definitions.  Plain nopython-compatible functions, exactly like
# ``backend_numba``: wrapped with ``numba.njit(nogil=True[, parallel=True])``
# when jitting, executed by the interpreter (prange == range) otherwise.
# ---------------------------------------------------------------------------


def _k_pointer_double_par(ptr, buf):
    """Round-synchronous pointer doubling; returns the round count.

    Each round gathers grandparents into ``buf`` (reads only ``ptr``) with
    the change count as a ``prange`` scalar reduction, then copies back.
    Identical rounds and fixed point to the sequential kernel -- the jump
    is a function of the previous round's array alone.
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


def _k_pool_partition_par(
    pool_idx, pool_vert, keep, use_keep, vmap,
    level_idx, level_u, non_alpha, nxt_idx, nxt_vert,
    n_chunks, chunk_base,
):
    """Chunked two-pass pool compaction + relabel + contracted append.

    ``chunk_base`` is ``2 * n_chunks`` int64 scratch: survivor counts per
    pool chunk followed by non-alpha counts per level chunk, scanned in
    place into write offsets.  Every chunk writes a disjoint output range
    in input order, so the result equals the sequential kernel's exactly.
    """
    np_pool = pool_idx.size
    np_lvl = level_idx.size
    pool_chunk = (np_pool + n_chunks - 1) // n_chunks
    lvl_chunk = (np_lvl + n_chunks - 1) // n_chunks

    for c in prange(n_chunks):
        lo = c * pool_chunk
        hi = min(lo + pool_chunk, np_pool)
        cnt = 0
        for i in range(lo, hi):
            if (not use_keep) or keep[i]:
                cnt += 1
        chunk_base[c] = cnt
        lo = c * lvl_chunk
        hi = min(lo + lvl_chunk, np_lvl)
        cnt = 0
        for e in range(lo, hi):
            if non_alpha[e]:
                cnt += 1
        chunk_base[n_chunks + c] = cnt

    # Exclusive scan: pool chunks first (survivors precede contracted edges).
    run = 0
    for c in range(2 * n_chunks):
        t = chunk_base[c]
        chunk_base[c] = run
        run += t

    for c in prange(n_chunks):
        lo = c * pool_chunk
        hi = min(lo + pool_chunk, np_pool)
        k = chunk_base[c]
        for i in range(lo, hi):
            if (not use_keep) or keep[i]:
                nxt_idx[k] = pool_idx[i]
                nxt_vert[k] = vmap[pool_vert[i]]
                k += 1
        lo = c * lvl_chunk
        hi = min(lo + lvl_chunk, np_lvl)
        k = chunk_base[n_chunks + c]
        for e in range(lo, hi):
            if non_alpha[e]:
                nxt_idx[k] = level_idx[e]
                nxt_vert[k] = vmap[level_u[e]]
                k += 1
    return run


def _k_chain_keys_par(anchor, side, out):
    """Elementwise chain-sort key build (root chain -> -1), in prange."""
    for i in prange(anchor.size):
        a = anchor[i]
        if a < 0:
            out[i] = -1
        else:
            out[i] = 2 * a + side[i]


def _k_weight_keys_par(bits, out):
    """Elementwise monotone float64-bits -> descending u64 key, in prange.

    Same transform and special-value policy as the sequential
    ``_k_weight_keys`` (and ``sortlib.encode_weights_descending``), byte
    for byte.
    """
    for i in prange(bits.size):
        b = bits[i]
        if (b & _NOSIGN) > _EXP:  # NaN: one shared maximal key
            out[i] = _FULL
        else:
            if b == _SIGN:  # -0.0 keys equal to +0.0
                b = _ZERO
            if b & _SIGN:
                m = b ^ _FULL
            else:
                m = b | _SIGN
            out[i] = m ^ _FULL


def _k_coord_keys_par(bits, out):
    """Elementwise ascending float64-bits -> u64 key, in prange.

    Same transform and special-value policy as the sequential
    ``_k_coord_keys``, byte for byte.
    """
    for i in prange(bits.size):
        b = bits[i]
        if (b & _NOSIGN) > _EXP:  # NaN: one shared maximal key
            out[i] = _FULL
        else:
            if b == _SIGN:  # -0.0 keys equal to +0.0
                b = _ZERO
            if b & _SIGN:
                out[i] = b ^ _FULL
            else:
                out[i] = b | _SIGN


def _k_knn_query_par(points, indices, split_dim, split_val, left, right,
                     start, end, box_lo, box_hi, queries, k, out_d2, out_id):
    """Batched kNN with queries spread over cores.

    Queries are fully independent (each owns its output rows and a private
    traversal stack), so the prange is race-free and the answer -- the
    unique k-smallest-(d2, id) set per query -- is scheduling-invariant.
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


def _k_seed_scan_par(labels, knn_i, knn_d2, core2, mutual, out_d2, out_q):
    """Per-point foreign-neighbor scan in prange (rows are independent)."""
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


def _k_leaf_pairs_par(leaf_a, leaf_b, pair_lb, start, end, indices,
                      points_perm, labels_perm, core2_perm, mutual, bound_d2,
                      offsets, out_comp, out_d2, out_p, out_q):
    """Leaf-leaf interactions with pairs spread over cores.

    Every pair owns the disjoint output slots ``offsets[t] ..`` and reads
    only frozen inputs, so the prange is race-free and bit-identical to the
    sequential kernel whatever the schedule.
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


def _k_radix_count(keys, perm, use_perm, shift, dmask, counts, n_chunks):
    """Per-chunk digit histograms (digit extraction fused into the pass).

    ``counts`` is a zeroed flat ``(n_chunks, dmask + 1)`` int64 matrix;
    chunk ``c`` writes only its own row, so the prange is race-free.
    """
    n = keys.size
    chunk = (n + n_chunks - 1) // n_chunks
    nbins = np.int64(dmask) + 1
    for c in prange(n_chunks):
        lo = c * chunk
        hi = min(lo + chunk, n)
        base = c * nbins
        for i in range(lo, hi):
            src = i
            if use_perm:
                src = perm[i]
            d = np.int64((np.uint64(keys[src]) >> shift) & dmask)
            counts[base + d] += 1


def _k_radix_scan(counts, n_chunks, nbins):
    """Exclusive scan of the histograms in ``(digit, chunk)`` order.

    Turns counts into the exact stable output offset of each chunk's first
    element of each digit; sequential (65536 * chunks steps at most).
    """
    run = 0
    for d in range(nbins):
        for c in range(n_chunks):
            idx = c * nbins + d
            t = counts[idx]
            counts[idx] = run
            run += t


def _k_radix_scatter(keys, perm, use_perm, shift, dmask, counts, n_chunks, out):
    """Stable scatter to the scanned offsets; one pass of the LSD radix.

    Chunk ``c`` replays its elements in order, bumping only its own offset
    row -- positions are globally disjoint by construction, so the prange
    is race-free and the output is the unique stable counting-sort order.
    """
    n = keys.size
    chunk = (n + n_chunks - 1) // n_chunks
    nbins = np.int64(dmask) + 1
    for c in prange(n_chunks):
        lo = c * chunk
        hi = min(lo + chunk, n)
        base = c * nbins
        for i in range(lo, hi):
            src = i
            if use_perm:
                src = perm[i]
            d = np.int64((np.uint64(keys[src]) >> shift) & dmask)
            pos = counts[base + d]
            counts[base + d] = pos + 1
            out[pos] = src


#: prange kernels (compiled ``parallel=True``) vs sequential-but-nogil ones.
_PY_PAR_KERNELS = {
    "pointer_double": _k_pointer_double_par,
    "pool_partition_par": _k_pool_partition_par,
    "chain_keys": _k_chain_keys_par,
    "weight_keys": _k_weight_keys_par,
    "radix_count": _k_radix_count,
    "radix_scatter": _k_radix_scatter,
    "coord_keys": _k_coord_keys_par,
    "knn_query": _k_knn_query_par,
    "seed_scan": _k_seed_scan_par,
    "leaf_pairs": _k_leaf_pairs_par,
}
_PY_SEQ_KERNELS = {
    "scatter_max_pairs": _PY_KERNELS["scatter_max_pairs"],
    "radix_scan": _k_radix_scan,
    # Bottom-up tree reductions carry a child->parent dependency chain, so
    # they stay sequential-but-nogil (concurrent jobs still overlap them).
    "tree_reduce_min": _PY_KERNELS["tree_reduce_min"],
    "tree_reduce_max": _PY_KERNELS["tree_reduce_max"],
}


@lru_cache(maxsize=1)
def _jit_kernels_parallel() -> dict:
    """Compile the kernel set nogil (+parallel for the prange kernels)."""
    import numba

    out = {
        name: numba.njit(cache=True, nogil=True)(fn)
        for name, fn in _PY_SEQ_KERNELS.items()
    }
    out.update({
        name: numba.njit(cache=True, nogil=True, parallel=True)(fn)
        for name, fn in _PY_PAR_KERNELS.items()
    })
    return out


class NumbaParallelBackend(NumbaBackend):
    """nogil + prange backend; ``jit=False`` runs the kernels interpreted."""

    name = "numba-parallel"

    def __init__(self, jit: bool = True) -> None:
        super().__init__(jit=jit)
        if not jit:
            self.name = "numba-parallel-python"
        # Only the compiled kernels actually drop the GIL; the interpreted
        # parity twin is a correctness tool like ``numba-python``.
        self.releases_gil = jit
        self._k = (_jit_kernels_parallel() if jit
                   else {**_PY_KERNELS, **_PY_SEQ_KERNELS, **_PY_PAR_KERNELS})

    # -- fused overrides ---------------------------------------------------
    def expand_pool_partition(
        self, pool_idx, pool_vert, keep, vmap,
        level_idx, level_u, non_alpha, n_contracted,
        nxt_idx, nxt_vert, name: str | None = "expand.pool_relabel",
    ) -> int:
        n_chunks = _n_chunks(int(pool_idx.size) + int(level_idx.size))
        chunk_base = self.take("parpool.chunk_base", 2 * n_chunks, np.int64)
        k = int(self._k["pool_partition_par"](
            pool_idx, pool_vert,
            keep if keep is not None else _EMPTY_KEEP,
            keep is not None, vmap,
            level_idx, level_u, non_alpha, nxt_idx, nxt_vert,
            n_chunks, chunk_base,
        ))
        self._emit(name, "gather", k)
        return k

    # -- parallel-histogram LSD radix (sortlib plans, JIT passes) ----------
    def _argsort_unsigned(self, keys: np.ndarray) -> np.ndarray:
        """Stable ascending argsort of unsigned keys, parallel realization.

        Mirrors ``sortlib.stable_argsort_unsigned`` strategy for strategy
        (comparison sort below ``RADIX_MIN_N``, identity on constant keys,
        mask-narrowed windows otherwise); any stable realization of the
        same windows produces the identical permutation.
        """
        n = int(keys.size)
        if n < sortlib.RADIX_MIN_N:
            return np.argsort(keys, kind="stable")
        windows = sortlib.pass_windows(sortlib.runtime_mask(keys))
        if not windows:
            return np.arange(n, dtype=np.intp)
        ping = self.take("parradix.perm0", n, np.intp)
        pong = self.take("parradix.perm1", n, np.intp)
        cur, use_perm = ping, False  # unread on the first pass: type only
        last = len(windows) - 1
        for j, (shift, width) in enumerate(windows):
            nbins = 1 << width
            dmask = np.uint64(nbins - 1)
            counts = self.take("parradix.counts", _n_chunks(n) * nbins,
                               np.int64)
            counts[:] = 0
            if j == last:
                out = np.empty(n, dtype=np.intp)  # result must be owned
            else:
                out = pong if cur is ping else ping
            self._k["radix_count"](keys, cur, use_perm, np.uint64(shift),
                                   dmask, counts, _n_chunks(n))
            self._k["radix_scan"](counts, _n_chunks(n), nbins)
            self._k["radix_scatter"](keys, cur, use_perm, np.uint64(shift),
                                     dmask, counts, _n_chunks(n), out)
            cur, use_perm = out, True
        return cur

    def canonical_sort_order(
        self, weights, ids, name: str | None = "edges.sort_desc"
    ) -> np.ndarray:
        n = int(weights.size)
        self._emit(name, "sort", n)
        if not hotpath_config().radix_sort:
            # Reference realization: the two-key lexsort.
            return np.lexsort((ids, -weights))
        w = np.ascontiguousarray(weights, dtype=np.float64)
        key = self.take("backend.sort_key", n, np.uint64)
        self._k["weight_keys"](w.view(np.uint64), key)
        return self._argsort_unsigned(key)

    def argsort_bounded(
        self, keys, min_key: int, max_key: int,
        name: str | None = "argsort",
    ) -> np.ndarray:
        self._emit(name, "sort", keys.size)
        if not hotpath_config().radix_sort or keys.size < sortlib.RADIX_MIN_N:
            return np.argsort(keys, kind="stable")
        biased = sortlib.bias_bounded_keys(keys, min_key, max_key,
                                           workspace=self.workspace)
        return self._argsort_unsigned(biased)

    def _argsort_u64(self, keys: np.ndarray) -> np.ndarray:
        # Spatial-partition sort hook: same windows as sortlib's engine,
        # realized by the parallel-histogram passes (identical permutation).
        if not hotpath_config().radix_sort:
            return np.argsort(keys, kind="stable")
        return self._argsort_unsigned(keys)

    def warmup(self) -> None:
        """Compile (or touch) every kernel, including the radix passes.

        The inherited warmup covers the shared kernel names; the radix
        signatures (one per key dtype) need above-threshold inputs, so the
        u64 canonical path and the u16/u32 bounded paths are each driven
        once at ``RADIX_MIN_N`` elements.
        """
        super().warmup()
        n = sortlib.RADIX_MIN_N
        w = np.linspace(1.0, 0.0, n)
        self.canonical_sort_order(w, np.arange(n, dtype=np.int64))
        small = np.arange(n, dtype=np.int64) % 7
        self.argsort_bounded(small, 0, 2 * n + 1)          # u16 biased keys
        self.argsort_bounded(small, 0, 0xFFFF_FFFF)        # u32 biased keys
