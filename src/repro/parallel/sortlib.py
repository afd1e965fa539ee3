"""Shared sort engine: key narrowing + LSD radix passes for every backend.

Sorting dominates dendrogram construction on CPUs (paper Section 6.4.3,
Figure 13), and after the PR-1 contraction/expansion speedups it became the
single largest phase of this reproduction too.  cuSLINK and the
optimal-dendrogram line of work both treat *sort-by-key* as the primitive
to specialize per device; this module is that specialization point for the
reproduction: one backend-neutral engine that every
:class:`~repro.parallel.backend.Backend` routes its sort-vocabulary methods
through.

The engine has three parts:

**Key narrowing** (:func:`encode_weights_descending`).  The canonical edge
order -- weight descending, ties by position ascending -- is a two-key
float64 lexsort in the naive realization.  The classic monotone bit
transform turns it into a *single* unsigned 64-bit key: flip all bits of
negative floats, set the sign bit of non-negatives (that key is ascending
in float order), then complement for descending.  The tie-breaking id never
needs to be materialized as a second key: every consumer's ids are the
positions ``0..n-1``, so any *stable* sort of the narrowed key realizes the
``lexsort((ids, -w))`` order exactly.  Special values have an explicit
policy (see the function docstring): ``-0.0`` keys equal to ``+0.0``,
``+inf`` sorts first, ``-inf`` sorts last among numbers, and all NaNs share
the maximal key (descending order puts them last, exactly where
``np.lexsort`` stably places them).

**LSD radix argsort** (:func:`stable_argsort_unsigned`; bounded integer
keys first go through :func:`bias_bounded_keys`).  A least-significant-
digit radix sort over 16-bit digits.  Each pass extracts a digit window into a workspace buffer
and runs NumPy's stable integer argsort on it -- for ``uint8``/``uint16``
NumPy dispatches to its C counting/radix kernel (the bincount + prefix-sum
+ stable-gather pass of a textbook LSD sort), so a 64-bit key costs four
C-level counting passes instead of one O(n log n) comparison sort.  All
scratch (gathered keys, shifted keys, digit buffers, permutation ping-pong)
comes from the active workspace per the PR-1 reuse contract; the returned
permutation is always a fresh, caller-owned array.

**Strategy selection** (:func:`plan_unsigned`, :func:`plan_bounded`,
:class:`SortPlan`).  Per call the engine finds the **fewest provably
sufficient passes**: the varying-bit mask (OR-reduction of
``keys ^ keys[0]``) determines which 16-bit windows actually differ, so
int32-regime ids take two passes, chain-stitch keys (bounded by
``2 * n_edges + 1``) take a 16-bit plus an 8-bit pass, and constant
prefixes/suffixes are skipped entirely.  It picks an identity ``arange``
when every key is equal, radix when there are at least
:data:`RADIX_KEYS_PER_PASS` keys per pass, and comparison ``argsort``
otherwise: each pass has a fixed cost that only enough keys amortize, so
four passes lose to ``argsort`` at 2,000 keys where two already win.
:func:`explain_plans` reports the policy for a given ``n`` (surfaced by
``python -m repro devices --explain-sort``) so perf triage never requires
reading this source.

Strategy choice is invisible to the backend contract: every path realizes
the same stable total order bit-identically, and the narrowing/pass
structure lives *inside* the one kernel record the calling vocabulary
method emits (the trace records the logical parallel schedule, not the
realization).

**Where parallel realizations plug in.**  The strategy is decided once,
here: :func:`stable_argsort_unsigned` runs the :func:`plan_unsigned` plan,
and a backend swaps only the per-pass execution by passing ``passes``.
The ``numba-parallel`` backend runs the plan's mask-narrowed windows
through a JIT parallel-histogram counting sort (chunk-local histograms,
one exclusive scan over ``(digit, chunk)``, then a race-free stable
scatter -- see :mod:`repro.parallel.backend_numba_parallel`), which is
deterministic and bit-identical to the NumPy realization because stable
LSD passes admit exactly one output order.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RADIX_KEYS_PER_PASS",
    "DIGIT_BITS",
    "SortPlan",
    "plan_unsigned",
    "plan_bounded",
    "varying_bit_mask",
    "runtime_mask",
    "pass_windows",
    "bias_bounded_keys",
    "encode_weights_descending",
    "stable_argsort_unsigned",
    "explain_plans",
]

#: Radix runs only with at least this many keys per pass; below it the
#: fixed per-pass overhead of digit extraction loses to a comparison
#: ``argsort``.  Measured (ABBA batches, random keys, NumPy 2.4, 2 cores):
#: radix/argsort crosses 1.0 at about 1,400 keys for two passes, 1,800 for
#: three and 2,400 for four.
RADIX_KEYS_PER_PASS = 700

#: Radix digit width.  16-bit digits halve the pass count of NumPy's own
#: 8-bit-digit integer radix while each pass still runs its C counting
#: kernel; a final window narrower than 9 bits drops to an 8-bit digit.
DIGIT_BITS = 16

_SIGN = np.uint64(0x8000000000000000)
_NOSIGN = np.uint64(0x7FFFFFFFFFFFFFFF)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# Key narrowing
# ---------------------------------------------------------------------------


def encode_weights_descending(weights, out=None, workspace=None) -> np.ndarray:
    """Monotone u64 keys whose ascending order is *descending* float order.

    ``stable_argsort_unsigned(encode_weights_descending(w))`` equals
    ``np.lexsort((arange(n), -w))`` exactly -- the canonical edge order --
    because stability supplies the positional tie-break.

    Special-value policy (total descending order, matching what a stable
    ``lexsort`` on ``-w`` produces):

    * ``+inf`` -> minimal key (sorts first);
    * finite numbers in descending order;
    * ``-0.0`` and ``+0.0`` -> the *same* key (float-equal weights must tie
      so position decides, exactly like the comparison sort);
    * ``-inf`` -> maximal numeric key (sorts last among numbers);
    * every NaN (any payload, either sign) -> the all-ones key, after even
      ``-inf`` (``np.sort`` places NaN last; subnormals need no special
      case -- the bit transform is monotone through them).

    ``out`` may be a workspace buffer (the result is written in place);
    when ``workspace`` is given its scratch backs the boolean masks too.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = w.size
    ws = _scratch(workspace)
    if out is None:
        out = ws.take("sortlib.wkey", n, np.uint64)
    if n == 0:
        return out
    bits = w.view(np.uint64)
    # Branchless core: descending key = bits ^ m, with m = ~SIGN for
    # non-negatives (flip magnitude, keep sign clear) and m = 0 for
    # negatives (their raw bits are already descending).  m is built from
    # the sign bit without a boolean mask: (sign - 1) is all-ones for
    # non-negatives, zero for negatives.
    m = ws.take("sortlib.encode_sign", n, np.uint64)
    np.right_shift(bits, np.uint64(63), out=m)
    np.subtract(m, np.uint64(1), out=m)
    m &= _NOSIGN
    np.bitwise_xor(bits, m, out=out)
    mask = ws.take("sortlib.encode_mask", n, bool)
    # -0.0 keys equal to +0.0 (whose key is ~SIGN).
    np.equal(bits, _SIGN, out=mask)
    np.copyto(out, _NOSIGN, where=mask)
    # NaN policy: one shared maximal key, either sign, any payload.
    np.isnan(w, out=mask)
    np.copyto(out, _FULL, where=mask)
    return out


# ---------------------------------------------------------------------------
# Strategy selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SortPlan:
    """The strategy the engine picked (or would pick) for one sort call.

    ``strategy`` is ``"argsort"`` (comparison sort, too few keys per
    pass), ``"identity"`` (all keys equal) or ``"radix"``;  ``windows``
    lists the radix passes as ``(shift, digit_bits)`` tuples, low digit
    first.  An ``argsort`` plan's windows are empty below one pass's
    crossover, where the keys are never scanned, and may be a sample's
    lower bound above it (see :func:`runtime_mask`).
    """

    n: int
    key_bits: int
    strategy: str
    windows: tuple[tuple[int, int], ...] = ()

    @property
    def n_passes(self) -> int:
        return len(self.windows)

    def describe(self) -> str:
        passes = f"{self.n_passes} passes: " + "+".join(
            str(w) for _, w in self.windows) + " bits"
        if self.strategy == "radix":
            return f"radix ({passes})"
        if self.strategy == "argsort":
            need = RADIX_KEYS_PER_PASS * max(self.n_passes, 1)
            return f"argsort (n < {need}" + (
                f" for {passes})" if self.windows else ")")
        return self.strategy


# Cached: every sort call plans, and at a few thousand keys the planning
# itself is a visible share of the sort.
@functools.lru_cache(maxsize=256)
def pass_windows(mask: int) -> tuple[tuple[int, int], ...]:
    """Greedy digit windows covering every set bit of ``mask``, LSB first.

    Constant bit positions (clear in ``mask``) cannot affect the order, so
    whole windows of them are skipped; a window whose remaining bits fit in
    8 uses a ``uint8`` digit (one counting pass instead of two).  Windows
    are aligned to their own width (16-bit digits on 16-bit boundaries,
    8-bit on byte boundaries) so digit extraction is a contiguous column
    copy of the key bytes rather than a gather + shift + cast chain; the
    alignment can only pull constant bits *into* a window, never push
    varying bits out, so correctness is unaffected.
    """
    windows: list[tuple[int, int]] = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        if (mask >> (low & ~7)) <= 0xFF:
            shift, width = low & ~7, 8
        else:
            shift, width = low & ~15, DIGIT_BITS
        windows.append((shift, width))
        mask &= ~((1 << (shift + width)) - 1)
    return tuple(windows)


def varying_bit_mask(keys: np.ndarray) -> int:
    """OR-reduction of ``keys ^ keys[0]``: which bit positions ever differ.

    Two cheap passes that let the radix skip every constant digit window --
    the "provably small key range" narrowing (int32-regime ids keep their
    top 32 bits constant; integer-valued or low-precision weights zero out
    mantissa windows).
    """
    if keys.size == 0:
        return 0
    return int(np.bitwise_or.reduce(keys ^ keys[0]))


#: Sample stride for the cheap pre-check in :func:`runtime_mask`.
_MASK_SAMPLE_STRIDE = 257


def runtime_mask(keys: np.ndarray, max_passes: int) -> int:
    """Varying-bit mask, skipping the full scan when it cannot change the plan.

    A strided sample's mask is a subset of the true mask, so its windows
    never outnumber the true ones.  If the sample already demands the
    worst-case pass structure, the full reduction could only confirm it,
    so the worst-case mask is returned; if it demands more than
    ``max_passes`` passes, the plan is ``argsort`` whatever the rest holds,
    so the sample's mask is returned.  Both touch ~1/257th of the array.
    Otherwise the exact full-array mask is computed (exactly the case
    where it can drop passes).
    """
    full_width = (1 << (keys.dtype.itemsize * 8)) - 1
    sample = int(np.bitwise_or.reduce(
        keys[::_MASK_SAMPLE_STRIDE] ^ keys[0]
    ))
    windows = pass_windows(sample)
    if windows == pass_windows(full_width):
        return full_width
    if len(windows) > max_passes:
        return sample
    return varying_bit_mask(keys)


def plan_unsigned(
    n: int, key_bits: int, mask: int | None = None, keys=None
) -> SortPlan:
    """Strategy for a stable argsort of unsigned keys.

    Radix when ``n >= RADIX_KEYS_PER_PASS * len(windows)``.  ``mask`` is the
    varying-bit mask when known; ``keys`` has it computed from the keys
    themselves (:func:`runtime_mask`), scanned only when ``n`` reaches one
    pass's crossover, since below it no pass count can pay.  With neither,
    the plan is for the worst case (all ``key_bits`` varying) -- what
    ``explain_plans`` reports statically.
    """
    if n < RADIX_KEYS_PER_PASS:
        return SortPlan(n, key_bits, "argsort")
    if keys is not None:
        mask = runtime_mask(keys, n // RADIX_KEYS_PER_PASS)
    elif mask is None:
        mask = (1 << key_bits) - 1
    windows = pass_windows(mask)
    if not windows:
        return SortPlan(n, key_bits, "identity")
    if n < RADIX_KEYS_PER_PASS * len(windows):
        return SortPlan(n, key_bits, "argsort", windows)
    return SortPlan(n, key_bits, "radix", windows)


def plan_bounded(n: int, min_key: int, max_key: int) -> SortPlan:
    """Static strategy for bounded integer keys in ``[min_key, max_key]``."""
    span = max(int(max_key) - int(min_key), 0)
    return plan_unsigned(n, span.bit_length())


# ---------------------------------------------------------------------------
# The radix engine
# ---------------------------------------------------------------------------


class _ScratchAllocator:
    """Fallback scratch source when no workspace is supplied."""

    @staticmethod
    def take(name: str, size: int, dtype) -> np.ndarray:
        return np.empty(size, dtype=dtype)


def _scratch(workspace):
    return workspace if workspace is not None else _ScratchAllocator


_LITTLE_ENDIAN = sys.byteorder == "little"


def _digit_column(keys: np.ndarray, shift: int, width: int,
                  ws, slot: str) -> np.ndarray:
    """Contiguous copy of the ``(shift, width)`` digit of every key.

    Windows are width-aligned (see :func:`pass_windows`), so on a
    little-endian layout the digit is a strided *column* of the key bytes:
    one narrow copy replaces the gather + shift + truncate chain.  The
    big-endian fallback shifts and truncates instead.
    """
    n = keys.size
    dt = np.dtype(np.uint8 if width == 8 else np.uint16)
    digits = ws.take(slot, n, dt)
    if _LITTLE_ENDIAN:
        step = keys.dtype.itemsize // dt.itemsize
        if step == 1:
            return keys if keys.dtype == dt else keys.view(dt)
        np.copyto(digits, keys.view(dt)[shift // (8 * dt.itemsize):: step])
    else:  # pragma: no cover - big-endian platforms
        shifted = keys
        if shift:
            shifted = ws.take(slot + ".shift", n, keys.dtype)
            np.right_shift(keys, keys.dtype.type(shift), out=shifted)
        np.copyto(digits, shifted, casting="unsafe")
    return digits


def stable_argsort_unsigned(
    keys: np.ndarray, workspace=None, passes=None
) -> np.ndarray:
    """Stable ascending argsort of unsigned integer keys.

    Bit-identical to ``np.argsort(keys, kind="stable")``; runs the
    :func:`plan_unsigned` plan for ``keys`` (comparison sort, identity, or
    LSD radix over the runtime-mask-narrowed windows).  ``passes(keys,
    windows)`` executes a radix plan when given -- a backend's own pass
    realization -- and NumPy's C counting sort per digit column
    otherwise.  The result is always a fresh caller-owned array; scratch
    comes from ``workspace`` (PR-1 reuse contract) or plain allocations
    when none is given.
    """
    n = int(keys.size)
    plan = plan_unsigned(n, 8 * keys.dtype.itemsize, keys=keys)
    if plan.strategy == "argsort":
        return np.argsort(keys, kind="stable")
    if plan.strategy == "identity":
        return np.arange(n, dtype=np.intp)
    if passes is not None:
        return passes(keys, plan.windows)
    return _column_passes(keys, plan.windows, workspace)


def _column_passes(
    keys: np.ndarray, windows: tuple[tuple[int, int], ...], workspace
) -> np.ndarray:
    """Stable LSD radix argsort of ``keys`` over the digit ``windows``.

    Each pass is NumPy's stable C counting sort of one digit column; the
    result is a fresh caller-owned permutation.
    """
    n = int(keys.size)
    ws = _scratch(workspace)
    # Materialize every pass's digit column up front (narrow sequential
    # copies); the per-pass work is then one narrow gather + one C
    # counting-sort + one permutation compose.
    cols = [
        _digit_column(keys, shift, width, ws, f"sortlib.col{i}")
        for i, (shift, width) in enumerate(windows)
    ]
    perm: np.ndarray | None = None
    last = len(windows) - 1
    for i, col in enumerate(cols):
        if perm is None:
            digits = col
        else:
            digits = ws.take("sortlib.digits", n, col.dtype)
            np.take(col, perm, out=digits)
        order = np.argsort(digits, kind="stable")  # C counting/radix pass
        if perm is None:
            perm = order
        elif i == last:
            perm = np.take(perm, order)  # fresh: the result must be owned
        else:
            buf = ws.take(f"sortlib.perm{i & 1}", n, np.intp)
            np.take(perm, order, out=buf)
            perm = buf
    return perm


def bias_bounded_keys(
    keys: np.ndarray, min_key: int, max_key: int, workspace=None
) -> np.ndarray:
    """Narrowest unsigned biased view of keys provably in ``[min_key, max_key]``.

    The shared front half of every bounded-sort realization: the provable
    bound picks the narrowest unsigned dtype holding ``max_key - min_key``
    (a chain-stitch key bounded by ``2 * n_edges + 1`` becomes a u32 with
    ~21 varying bits), then ``keys - min_key`` is materialized in it --
    unless the keys already are that exact encoding, which are returned
    unchanged.  The result may be workspace scratch (slot
    ``sortlib.biased_keys``): current-call lifetime only.
    """
    span = int(max_key) - int(min_key)
    if span < 0:
        raise ValueError(f"empty key bound [{min_key}, {max_key}]")
    udt = (np.uint16 if span <= 0xFFFF
           else np.uint32 if span <= 0xFFFFFFFF else np.uint64)
    if min_key == 0 and keys.dtype == udt:
        return keys
    biased = _scratch(workspace).take("sortlib.biased_keys", keys.size, udt)
    np.subtract(keys, min_key, out=biased, casting="unsafe")
    return biased


# ---------------------------------------------------------------------------
# Introspection (CLI / benchmarks)
# ---------------------------------------------------------------------------


def explain_plans(n: int) -> list[dict]:
    """Static strategy table for the pipeline's sort sites at size ``n``.

    Worst-case plans (the runtime mask can only remove passes); rendered by
    ``python -m repro devices --explain-sort`` and recorded into the sort
    benchmark artifact.
    """
    chain_span = 2 * n + 2  # chain keys live in [-1, 2n+1]
    id_bits = 32 if n < 2**31 else 64
    rows = [
        {
            "site": "edges.sort_desc",
            "keys": "u64 monotone weight key (narrowed from float64 lexsort)",
            "plan": plan_unsigned(n, 64),
        },
        {
            "site": "stitch.chain_sort",
            "keys": f"chain key in [-1, {2 * n + 1}] "
                    f"({chain_span.bit_length()} significant bits)",
            "plan": plan_bounded(n, -1, 2 * n + 1),
        },
        {
            "site": f"int{id_bits}-regime ids",
            "keys": f"identity ids < n ({max(n - 1, 0).bit_length()} bits)",
            "plan": plan_unsigned(n, max(n - 1, 0).bit_length()),
        },
    ]
    for row in rows:
        row["strategy"] = row["plan"].describe()
    return rows
