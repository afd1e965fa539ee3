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

**One definition per kernel, compiled twice.**  Every kernel whose
algorithm is the same as the sequential backend's -- round-synchronous
pointer doubling, the chain/weight/coordinate key builds, the kNN query,
the Boruvka seed scan and leaf-pair blocks, the ordered scatter-max and
the tree reductions -- is the one ``backend_numba`` definition, compiled
here a second time through the same ``_jit`` helper: ``nogil=True``
everywhere, plus ``parallel=True`` for the kernels whose outer loop is a
``prange`` (``_PY_PAR_KERNELS``), so that loop runs on cores here while
the sequential backend compiles it as a ``range``.  ``_jit`` compiles
renamed copies for these options, so the two compiles never share a numba
disk-cache entry.  This module holds only kernels whose algorithm really
differs, and a kernel gets a second body only then:

* :meth:`NumbaParallelBackend.expand_pool_partition` -- chunked two-pass
  stream compaction: per-chunk survivor counts in ``prange``, one
  sequential exclusive scan over the chunk offsets, then a ``prange`` write
  pass in which every chunk owns a disjoint output range.  Order-preserving
  regardless of chunk boundaries, hence bit-identical to the sequential
  one-pass kernel.
* ``_radix_passes`` -- the passes of a sortlib radix plan realized as a
  JIT parallel-histogram counting sort (digit-column extraction fused
  into the passes): per-chunk histograms in ``prange``, one exclusive scan
  over ``(digit, chunk)``, then a stable scatter where every chunk
  increments only its own offset row.  The inherited
  ``canonical_sort_order``, ``argsort_bounded`` and spatial-partition
  sorts all reach it through that one hook; the strategy (comparison
  sort, identity, varying-bit-mask windows) is decided by
  :func:`~repro.parallel.sortlib.stable_argsort_unsigned`, so strategy
  selection and the emitted records are byte-for-byte the shared
  engine's.

The maxIncident scatter (``scatter_max_pairs``) stays sequential *inside*
a ``nogil=True`` compile: its last-write-wins / atomic-max semantics have
no race-free CPU ``prange`` realization without atomic intrinsics (numba
exposes none on CPU), and a racy loop would break the bit-identical
backend contract.  Dropping the GIL is what the serving path needs from
it -- concurrent jobs overlap the kernel across threads even though each
executes on one core.

Determinism is the contract: every kernel this backend runs admits
exactly one output (stable counting passes, round-synchronous jumps,
chunk-owned output ranges), so ``numba-parallel`` produces bit-identical
parent arrays and identical
:class:`~repro.parallel.machine.KernelRecord` traces to the ``numpy``
backend in both index-dtype regimes -- ``tests/test_backends.py`` and the
8-thread ``tests/test_concurrency.py`` suite enforce it.

Registry: ``numba-parallel`` (available only when numba imports) and
``numba-parallel-python`` (the same kernel definitions interpreted, with
``prange`` falling back to ``range`` -- the always-available parity twin,
matching the ``numba-python`` precedent).
"""

from __future__ import annotations

import numpy as np

from . import sortlib
from .backend_numba import _EMPTY_KEEP, _PY_KERNELS, NumbaBackend, _jit, prange

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
# Kernel definitions whose algorithm differs from the ``backend_numba`` one
# of the same name (or that only this backend has).  Plain
# nopython-compatible functions, exactly like ``backend_numba``: compiled
# ``nogil=True[, parallel=True]`` when jitting, interpreted (prange ==
# range) otherwise.
# ---------------------------------------------------------------------------


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


#: Which kernels compile ``parallel=True`` (their outer loop is a ``prange``)
#: and which sequential-but-nogil.  Shared names map to the one
#: ``backend_numba`` definition; ``pool_partition`` is the chunked two-pass
#: algorithm above, and the radix passes exist only here.
_PY_PAR_KERNELS = {
    **{name: _PY_KERNELS[name] for name in (
        "pointer_double", "chain_keys", "weight_keys", "coord_keys",
        "knn_query", "seed_scan", "leaf_pairs",
    )},
    "pool_partition": _k_pool_partition_par,
    "radix_count": _k_radix_count,
    "radix_scatter": _k_radix_scatter,
}
_PY_SEQ_KERNELS = {
    # maxIncident's ordered last-write-wins has no race-free prange; the
    # bottom-up tree reductions carry a child->parent dependency chain.
    # Concurrent jobs still overlap them once the GIL is dropped.
    **{name: _PY_KERNELS[name] for name in (
        "scatter_max_pairs", "tree_reduce_min", "tree_reduce_max",
    )},
    "radix_scan": _k_radix_scan,
}


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

    def _kernel_table(self, jit: bool) -> dict:
        if not jit:
            return {**_PY_SEQ_KERNELS, **_PY_PAR_KERNELS}
        return {**_jit(_PY_SEQ_KERNELS, nogil=True),
                **_jit(_PY_PAR_KERNELS, nogil=True, parallel=True)}

    # -- fused overrides ---------------------------------------------------
    def expand_pool_partition(
        self, pool_idx, pool_vert, keep, vmap,
        level_idx, level_u, non_alpha, n_contracted,
        nxt_idx, nxt_vert, name: str | None = "expand.pool_relabel",
    ) -> int:
        n_chunks = _n_chunks(int(pool_idx.size) + int(level_idx.size))
        chunk_base = self.take("parpool.chunk_base", 2 * n_chunks, np.int64)
        k = int(self._k["pool_partition"](
            pool_idx, pool_vert,
            keep if keep is not None else _EMPTY_KEEP,
            keep is not None, vmap,
            level_idx, level_u, non_alpha, nxt_idx, nxt_vert,
            n_chunks, chunk_base,
        ))
        self._emit(name, "gather", k)
        return k

    # -- parallel-histogram LSD radix (sortlib plans, JIT passes) ----------
    def _radix_passes(self, keys: np.ndarray, windows) -> np.ndarray:
        """Execute a sortlib radix plan's digit windows, parallel realization.

        Any stable realization of the same windows produces the identical
        permutation; the strategy itself is sortlib's.
        """
        n = int(keys.size)
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

    def warmup(self) -> None:
        """Compile (or touch) every kernel, including the radix passes.

        The inherited warmup covers the shared kernel names; the radix
        signatures (one per key dtype) need inputs large enough for their
        pass count, so the u64 canonical path (four passes) and the u16/u32
        bounded paths (one pass) are each driven once at four times
        ``RADIX_KEYS_PER_PASS`` elements.
        """
        super().warmup()
        n = 4 * sortlib.RADIX_KEYS_PER_PASS
        w = np.linspace(1.0, 0.0, n)
        self.canonical_sort_order(w, np.arange(n, dtype=np.int64))
        small = np.arange(n, dtype=np.int64) % 7
        self.argsort_bounded(small, 0, 2 * n + 1)          # u16 biased keys
        self.argsort_bounded(small, 0, 0xFFFF_FFFF)        # u32 biased keys
