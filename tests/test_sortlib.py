"""The shared sort engine: key narrowing, radix passes, strategy policy.

The sortlib contract (ROADMAP "Sort subsystem"): the monotone u64 weight
encoding followed by any *stable* sort must reproduce the canonical
``lexsort((ids, -w))`` order exactly -- including ``+-inf``, ``-0.0``,
subnormals and massive duplication -- and every strategy the engine can
select (comparison argsort, identity, mask-narrowed LSD radix) must
realize the same stable total order bit-identically, on every registered
backend, in both index-dtype regimes.
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_fixtures import (
    adversarial_weights,
    backend_params,
    dtype_regime,
    dtype_regime_params,
)
from repro.parallel import (
    CostModel,
    NumpyBackend,
    get_backend,
    scoped_workspace,
    tracking,
    use_backend,
)
from repro.parallel.primitives import argsort_bounded
from repro.parallel.sortlib import (
    RADIX_KEYS_PER_PASS,
    SortPlan,
    encode_weights_descending,
    explain_plans,
    plan_bounded,
    plan_unsigned,
    stable_argsort_unsigned,
    varying_bit_mask,
)

BACKENDS = backend_params()
REGIMES = dtype_regime_params()


class _ComparisonSortBackend(NumpyBackend):
    """Oracle: the numpy backend with the comparison sorts the radix
    engine replaced -- the two-key ``lexsort((ids, -w))`` canonical order
    and a stable ``np.argsort`` of bounded keys -- emitting the same
    records."""

    def canonical_sort_order(self, weights, ids, name="edges.sort_desc"):
        self._emit(name, "sort", weights.size)
        return np.lexsort((ids, -weights))

    def argsort_bounded(self, keys, min_key, max_key, name="argsort"):
        self._emit(name, "sort", keys.size)
        return np.argsort(keys, kind="stable")


# ---------------------------------------------------------------------------
# Monotone weight-key encoding
# ---------------------------------------------------------------------------


class TestWeightKeyEncoding:
    def test_matches_lexsort_on_adversarial_weights(self, rng):
        """Property: encoded-u64 stable order == lexsort((ids, -w)) exactly,
        with duplication, +-0.0, +-inf, subnormals, and a negative offset."""
        for n in (0, 1, 2, 7, 100, RADIX_KEYS_PER_PASS - 1, RADIX_KEYS_PER_PASS,
                  5000):
            w = adversarial_weights(rng, n)
            key = encode_weights_descending(w)
            order = stable_argsort_unsigned(key)
            ref = np.lexsort((np.arange(n), -w))
            assert np.array_equal(order, ref), n

    def test_matches_lexsort_on_random_floats(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 3000))
            w = rng.normal(size=n) * 10.0 ** rng.integers(-200, 200)
            key = encode_weights_descending(w)
            order = stable_argsort_unsigned(key)
            assert np.array_equal(order, np.lexsort((np.arange(n), -w)))

    def test_key_order_is_monotone_descending(self, rng):
        w = np.sort(adversarial_weights(rng, 2000))[::-1]  # descending floats
        key = encode_weights_descending(w)
        assert np.all(np.diff(key.astype(object)) >= 0)

    def test_negative_zero_keys_equal_positive_zero(self):
        key = encode_weights_descending(np.array([0.0, -0.0]))
        assert key[0] == key[1]

    def test_infinity_policy(self):
        key = encode_weights_descending(np.array([np.inf, 1e308, -1e308,
                                                  -np.inf]))
        assert np.all(np.diff(key.astype(object)) > 0)

    def test_nan_policy_all_payloads_share_maximal_key(self):
        """Every NaN keys after -inf with one shared value, matching where a
        stable NaN-aware comparison sort places them."""
        w = np.array([np.nan, -np.inf, -np.nan, 0.0, np.inf])
        key = encode_weights_descending(w)
        assert key[0] == key[2] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert key[1] < key[0]
        # and the stable order still matches the lexsort reference
        order = stable_argsort_unsigned(key)
        assert np.array_equal(order, np.lexsort((np.arange(w.size), -w)))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_canonical_sort_parity_across_backends(self, backend, regime, rng):
        """Every backend's canonical_sort_order equals the lexsort reference
        for the adversarial weights, in both dtype regimes."""
        for n in (0, 1, 3, 500, 2500):
            w = adversarial_weights(rng, n)
            with dtype_regime(regime):
                dt = np.int32 if regime == "int32" else np.int64
                ids = np.arange(n, dtype=dt)
                ref = np.lexsort((ids, -w))
                with use_backend(backend):
                    got = get_backend().canonical_sort_order(w, ids)
            assert np.array_equal(got, ref), (backend, regime, n)


# ---------------------------------------------------------------------------
# Radix engine vs np.argsort(kind="stable")
# ---------------------------------------------------------------------------


class TestStableArgsort:
    def test_unsigned_matches_numpy_stable(self, rng):
        for dtype in (np.uint16, np.uint32, np.uint64):
            for n in (0, 1, 2, RADIX_KEYS_PER_PASS - 1, RADIX_KEYS_PER_PASS,
                      4096, 50_000):
                hi = int(np.iinfo(dtype).max)
                keys = rng.integers(0, hi, size=n, dtype=dtype,
                                    endpoint=True)
                got = stable_argsort_unsigned(keys)
                assert np.array_equal(got, np.argsort(keys, kind="stable")), \
                    (dtype, n)

    def test_constant_keys_identity(self, rng):
        keys = np.full(5000, 12345, dtype=np.uint64)
        got = stable_argsort_unsigned(keys)
        assert np.array_equal(got, np.arange(5000))

    def test_duplication_heavy_keys_stable(self, rng):
        keys = rng.integers(0, 7, size=20_000).astype(np.uint64)
        got = stable_argsort_unsigned(keys)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    def test_result_is_owned_not_workspace(self, rng):
        """The returned permutation must outlive the call (it is stored in
        SortedEdgeList.order): two back-to-back sorts may not alias."""
        with scoped_workspace() as ws:
            a = rng.integers(0, 1 << 40, size=4096).astype(np.uint64)
            b = rng.integers(0, 1 << 40, size=4096).astype(np.uint64)
            pa = stable_argsort_unsigned(a, workspace=ws)
            pa_copy = pa.copy()
            stable_argsort_unsigned(b, workspace=ws)
            assert np.array_equal(pa, pa_copy)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_matches_numpy_stable(self, backend, rng):
        for n in (0, 1, 1023, 1024, 5000, 60_000):
            lo, hi = -1, 2 * max(n, 1) + 1
            keys = rng.integers(lo, hi, size=n, endpoint=True)
            with use_backend(backend) as b:
                got = b.argsort_bounded(keys, lo, hi)
            assert np.array_equal(got, np.argsort(keys, kind="stable")), n

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_int32_keys(self, backend, rng):
        keys = rng.integers(-1, 9999, size=5000).astype(np.int32)
        with use_backend(backend) as b:
            got = b.argsort_bounded(keys, -1, 9999)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_rejects_empty_range(self, backend):
        with use_backend(backend) as b:
            with pytest.raises(ValueError, match="empty key bound"):
                b.argsort_bounded(np.zeros(RADIX_KEYS_PER_PASS, np.int64), 1, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_rejects_empty_range_below_radix_min_n(self, backend):
        """The bound is checked on the comparison-sort strategy too."""
        with use_backend(backend) as b:
            with pytest.raises(ValueError, match="empty key bound"):
                b.argsort_bounded(np.zeros(5, np.int64), 1, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_loose_bound_still_correct(self, backend, rng):
        """The bound is a hint: a far-too-wide bound must not change the
        order, only the narrowing."""
        keys = rng.integers(0, 50, size=5000)
        with use_backend(backend) as b:
            got = b.argsort_bounded(keys, -1, 2**40)
        assert np.array_equal(got, np.argsort(keys, kind="stable"))


# ---------------------------------------------------------------------------
# Strategy policy
# ---------------------------------------------------------------------------


class TestStrategyPolicy:
    def test_small_n_uses_comparison_argsort(self):
        # Radix needs RADIX_KEYS_PER_PASS keys per pass: one 16-bit window
        # switches at the constant, four windows at four times it.
        per_pass = RADIX_KEYS_PER_PASS
        assert plan_unsigned(per_pass - 1, 16).strategy == "argsort"
        assert plan_unsigned(per_pass, 16).strategy == "radix"
        plan = plan_unsigned(4 * per_pass - 1, 64)
        assert (plan.strategy, plan.n_passes) == ("argsort", 4)
        assert plan_unsigned(4 * per_pass, 64).strategy == "radix"

    def test_full_u64_is_four_passes(self):
        plan = plan_unsigned(1_000_000, 64)
        assert plan.windows == ((0, 16), (16, 16), (32, 16), (48, 16))

    def test_narrow_ranges_drop_passes(self):
        # int32-regime ids: two passes; <=16-bit span: one; <=8-bit: one u8
        assert plan_unsigned(10**6, 31).n_passes == 2
        assert plan_unsigned(10**6, 16).windows == ((0, 16),)
        assert plan_unsigned(10**6, 8).windows == ((0, 8),)
        assert plan_bounded(10**6, -1, 2 * 10**6 + 1).windows == \
            ((0, 16), (16, 8))

    def test_constant_windows_skipped_via_mask(self):
        # keys differing only in bits 32..39: one u8 pass at shift 32
        mask = 0xFF << 32
        plan = plan_unsigned(10**6, 64, mask=mask)
        assert plan.windows == ((32, 8),)
        assert plan_unsigned(10**6, 64, mask=0).strategy == "identity"

    def test_describe_names_the_crossover(self):
        assert plan_unsigned(10, 64).describe() == \
            f"argsort (n < {RADIX_KEYS_PER_PASS})"
        assert plan_unsigned(2000, 31).describe() == \
            "radix (2 passes: 16+16 bits)"
        assert plan_unsigned(2000, 64).describe() == (
            f"argsort (n < {4 * RADIX_KEYS_PER_PASS} for 4 passes: "
            "16+16+16+16 bits)")

    def test_varying_bit_mask(self, rng):
        keys = np.array([0b1010, 0b1000, 0b1110], dtype=np.uint64)
        assert varying_bit_mask(keys) == 0b0110
        assert varying_bit_mask(keys[:1]) == 0
        assert varying_bit_mask(keys[:0]) == 0

    def test_skipped_middle_window_still_sorts_correctly(self, rng):
        """Keys varying in low and high windows but constant in the middle:
        the engine runs two passes and must still match numpy exactly."""
        n = 5000
        lo = rng.integers(0, 1 << 16, size=n).astype(np.uint64)
        hi = rng.integers(0, 1 << 10, size=n).astype(np.uint64)
        keys = (hi << np.uint64(48)) | lo | np.uint64(0xABCD0000)
        assert np.array_equal(
            stable_argsort_unsigned(keys), np.argsort(keys, kind="stable")
        )

    def test_describe_and_explain(self):
        rows = explain_plans(1_000_000)
        assert {r["site"] for r in rows} >= {"edges.sort_desc",
                                             "stitch.chain_sort"}
        assert all(isinstance(r["plan"], SortPlan) for r in rows)
        assert any("radix" in r["strategy"] for r in rows)
        small = explain_plans(100)
        assert all("argsort" in r["strategy"] for r in small)


class TestPassCountRule:
    """The strategy follows the runtime pass count of the keys themselves:
    radix only with ``RADIX_KEYS_PER_PASS`` keys per pass.  Plans only,
    never timings, so the rule is checked deterministically."""

    @staticmethod
    def keys(n, windows, rng):
        top = (1 << (16 * windows)) - 1
        keys = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)
        keys[:2] = (0, top)  # every one of the windows varies
        return keys

    def test_four_windows_at_2000_keys_use_argsort(self, rng):
        plan = plan_unsigned(2000, 64, keys=self.keys(2000, 4, rng))
        assert (plan.strategy, plan.n_passes) == ("argsort", 4)

    def test_two_windows_at_2000_keys_use_radix(self, rng):
        plan = plan_unsigned(2000, 64, keys=self.keys(2000, 2, rng))
        assert (plan.strategy, plan.n_passes) == ("radix", 2)

    def test_u64_keys_at_four_crossovers_use_radix(self, rng):
        n = 4 * RADIX_KEYS_PER_PASS
        plan = plan_unsigned(n, 64, keys=self.keys(n, 4, rng))
        assert (plan.strategy, plan.n_passes) == ("radix", 4)
        assert plan_unsigned(n, 64).strategy == "radix"


# ---------------------------------------------------------------------------
# The argsort_bounded vocabulary method (chain-stitch sort)
# ---------------------------------------------------------------------------


class TestArgsortBoundedVocabulary:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_matches_old_lexsort_realization(self, backend, regime, rng):
        """The chain-stitch replacement: a stable single-key sort on the
        bounded chain key equals lexsort((edge_ids, key)) because edge_ids
        is the identity -- on every backend, both dtype regimes, below and
        above the radix crossover."""
        for n in (0, 1, 37, 2000, 10_000):
            with dtype_regime(regime):
                dt = np.int32 if regime == "int32" else np.int64
                key = rng.integers(-1, 2 * max(n, 1) + 1, size=n,
                                   endpoint=True).astype(dt)
                ids = np.arange(n, dtype=dt)
                ref = np.lexsort((ids, key))
                with use_backend(backend):
                    got = get_backend().argsort_bounded(
                        key, -1, 2 * max(n, 1) + 1
                    )
            assert np.array_equal(got, ref), (backend, regime, n)

    def test_emits_single_sort_record(self, rng):
        key = rng.integers(-1, 99, size=3000)
        model = CostModel()
        with tracking(model):
            argsort_bounded(key, -1, 99, name="stitch.chain_sort")
        records = [(r.name, r.category, r.work) for r in model.records]
        assert records == [("stitch.chain_sort", "sort", 3000)]

    def test_record_identical_radix_on_and_off(self, rng):
        """The "off" side is the comparison-sort oracle backend."""
        key = rng.integers(-1, 99, size=3000)

        def trace():
            model = CostModel()
            with tracking(model):
                argsort_bounded(key, -1, 99, name="stitch.chain_sort")
            return [(r.name, r.category, r.work) for r in model.records]

        with use_backend(_ComparisonSortBackend()):
            off = trace()
        assert trace() == off


# ---------------------------------------------------------------------------
# End-to-end: the radix engine is invisible to results and traces
# ---------------------------------------------------------------------------


class TestPipelineInvariance:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_pandora_bit_identical_radix_on_off(self, regime, rng):
        """Parents and traces equal the comparison-sort oracle backend's."""
        from repro import pandora
        from repro.structures.tree import random_spanning_tree

        def run():
            model = CostModel()
            with tracking(model):
                dend, _ = pandora(u, v, w)
            return dend.parent, [
                (r.name, r.category, r.work, r.phase) for r in model.records
            ]

        for n in (5, 120, 2000):
            u, v, w = random_spanning_tree(n, rng, skew=0.4)
            with dtype_regime(regime):
                parent_on, trace_on = run()
                with use_backend(_ComparisonSortBackend()):
                    parent_off, trace_off = run()
            assert np.array_equal(parent_on, parent_off), (regime, n)
            assert trace_on == trace_off, (regime, n)

    def test_numpy_backend_uses_workspace_slots(self, rng):
        """The engine's scratch comes from the backend pool (PR-1 reuse
        contract): repeated sorts hit, not reallocate."""
        backend = NumpyBackend()
        w = rng.normal(size=4096)
        ids = np.arange(4096, dtype=np.int32)
        with use_backend(backend):
            backend.canonical_sort_order(w, ids)
            misses_after_first = backend.workspace.misses
            backend.canonical_sort_order(w, ids)
            assert backend.workspace.misses == misses_after_first
            assert backend.workspace.hits > 0
