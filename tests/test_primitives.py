"""Unit tests for the data-parallel primitive layer.

The whole module is parameterized over every registered execution backend
(module-scoped autouse fixture): the primitive semantics -- including the
maxIncident scatter's ordered last-write-wins realization of an atomic
max -- are part of the backend contract, so each backend must pass
identically.  Operations the algorithms call on the backend directly
(``map``, ``gather``, ``compact``, ``scatter_max_pairs``) are tested
through :func:`~repro.parallel.get_backend`.
"""

from __future__ import annotations

import numpy as np
import pytest

from backend_fixtures import backend_params
from repro.parallel import use_backend
from repro.parallel import (
    CostModel,
    exclusive_scan,
    get_backend,
    lexsort,
    scatter,
    scatter_min_at,
    segmented_first,
    sort,
    tracking,
)


@pytest.fixture(scope="module", params=backend_params(), autouse=True)
def _active_backend(request):
    """Run this module's suite once per registered backend."""
    with use_backend(request.param):
        yield request.param


class TestScans:
    def test_exclusive_scan_shifts(self):
        a = np.array([3, 1, 4, 1, 5])
        out = exclusive_scan(a)
        assert np.array_equal(out, np.array([0, 3, 4, 8, 9]))

    def test_exclusive_scan_empty(self):
        assert exclusive_scan(np.zeros(0, dtype=np.int64)).size == 0

    def test_exclusive_scan_single(self):
        out = exclusive_scan(np.array([7]))
        assert np.array_equal(out, np.array([0]))

    def test_exclusive_scan_floats(self):
        a = np.array([0.5, 1.5, 2.0])
        assert np.allclose(exclusive_scan(a), [0.0, 0.5, 2.0])


class TestSorts:
    def test_sort_is_stable_and_sorted(self):
        a = np.array([3, 1, 2, 1])
        assert np.array_equal(sort(a), np.array([1, 1, 2, 3]))

    def test_argsort_stable_for_ties(self):
        from repro.parallel import argsort

        a = np.array([2, 1, 2, 1])
        assert np.array_equal(argsort(a), np.argsort(a, kind="stable"))

    def test_lexsort_primary_is_last_key(self):
        primary = np.array([1, 0, 1, 0])
        secondary = np.array([9, 8, 7, 6])
        order = lexsort((secondary, primary))
        assert np.array_equal(primary[order], np.array([0, 0, 1, 1]))
        # ties in primary resolved by secondary ascending
        assert np.array_equal(secondary[order], np.array([6, 8, 7, 9]))

    def test_lexsort_requires_keys(self):
        with pytest.raises(ValueError):
            lexsort(())


class TestGatherScatter:
    def test_gather(self):
        a = np.array([10, 20, 30])
        assert np.array_equal(get_backend().gather(a, np.array([2, 0])), [30, 10])

    def test_scatter(self):
        a = np.zeros(4, dtype=np.int64)
        scatter(a, np.array([1, 3]), np.array([5, 7]))
        assert np.array_equal(a, [0, 5, 0, 7])

    def test_scatter_max_matches_maximum_at(self, rng):
        """Property: the maxIncident scatter (ascending ``idx``, repeated
        endpoints) == an explicit atomic max over both endpoint columns."""
        for dtype in (np.int32, np.int64) * 10:
            n = int(rng.integers(1, 50))
            m = int(rng.integers(1, 200))
            u = rng.integers(0, n, size=m).astype(dtype)
            v = rng.integers(0, n, size=m).astype(dtype)
            idx = np.sort(rng.integers(0, 1000, size=m)).astype(dtype)
            got = get_backend().scatter_max_pairs(
                np.full(n, -1, dtype=dtype), u, v, idx
            )
            ref = np.full(n, -1, dtype=dtype)
            np.maximum.at(ref, u, idx)
            np.maximum.at(ref, v, idx)
            assert got.dtype == dtype
            assert np.array_equal(got, ref)

    def test_scatter_min_at(self):
        a = np.full(3, 100, dtype=np.int64)
        scatter_min_at(a, np.array([0, 0, 2]), np.array([5, 3, 7]))
        assert np.array_equal(a, [3, 100, 7])


class TestCompactAndSegments:
    def test_compact(self):
        a = np.arange(6)
        out = get_backend().compact(a, a % 2 == 0)
        assert np.array_equal(out, [0, 2, 4])

    def test_segmented_first(self):
        keys = np.array([1, 1, 2, 2, 2, 5])
        assert np.array_equal(
            segmented_first(keys), [True, False, True, False, False, True]
        )

    def test_segmented_first_empty(self):
        assert segmented_first(np.zeros(0)).size == 0


class TestParallelMap:
    def test_map_applies_function(self):
        out = get_backend().map(
            lambda a, b: a + b, np.arange(3), np.ones(3, dtype=int)
        )
        assert np.array_equal(out, [1, 2, 3])

    def test_map_records_kernel(self):
        model = CostModel()
        with tracking(model):
            get_backend().map(lambda a: a * 2, np.arange(10))
        assert model.kernel_count() == 1
        assert model.total_work() == 10
