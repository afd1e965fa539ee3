"""Executable versions of the Section-4 asymptotic claims.

These use the kernel traces (work in elements, not wall time) so the
assertions are deterministic and machine-independent:

* total PANDORA work is O(n log n);
* contraction work alone is O(n) (the geometric level series);
* the number of contraction levels is <= ceil(log2(n+1));
* per-level alpha-edge counts respect n_alpha <= (n-1)/2;
* the sequential bottom-up baseline's edge loop is Theta(n) operations
  (its sort dominates asymptotically).
"""

from __future__ import annotations

import math

import pytest

from repro import pandora
from repro.parallel.machine import CostModel, tracking
from repro.structures.tree import random_spanning_tree

SIZES = [2_000, 16_000, 128_000]


def trace_for(n, rng, skew):
    u, v, w = random_spanning_tree(n, rng, skew=skew)
    model = CostModel()
    with tracking(model):
        _, stats = pandora(u, v, w)
    return model, stats


@pytest.mark.parametrize("skew", [0.0, 0.9])
class TestWorkBounds:
    def test_total_work_n_log_n(self, rng, skew):
        """work / (n log n) must not grow with n."""
        ratios = []
        for n in SIZES:
            model, _ = trace_for(n, rng, skew)
            ratios.append(model.total_work() / (n * math.log2(n)))
        assert ratios[-1] < ratios[0] * 1.5, (
            f"total work superlinear in n log n: {ratios}"
        )

    def test_contraction_work_linear(self, rng, skew):
        """contraction work / n must not grow with n (geometric series)."""
        ratios = []
        for n in SIZES:
            model, _ = trace_for(n, rng, skew)
            ratios.append(model.total_work(phase="contraction") / n)
        assert ratios[-1] < ratios[0] * 1.5, (
            f"contraction work superlinear: {ratios}"
        )

    def test_expansion_work_n_log_n(self, rng, skew):
        ratios = []
        for n in SIZES:
            model, _ = trace_for(n, rng, skew)
            ratios.append(
                model.total_work(phase="expansion") / (n * math.log2(n))
            )
        assert ratios[-1] < ratios[0] * 1.5

    def test_level_count_bound(self, rng, skew):
        for n in SIZES:
            _, stats = trace_for(n, rng, skew)
            assert stats.n_levels - 1 <= math.ceil(math.log2(n + 1))
            stats.check_bounds()


class TestLevelSeries:
    def test_levels_geometric(self, rng):
        """Sum of level sizes is <= 2n (the Section-4.2 halving series)."""
        for n in (10_000, 50_000):
            u, v, w = random_spanning_tree(n, rng, skew=0.5)
            _, stats = pandora(u, v, w)
            assert sum(stats.level_sizes) <= 2 * stats.level_sizes[0] + 1

    def test_alpha_fraction_bounds(self, rng):
        for n in (5_000, 20_000):
            u, v, w = random_spanning_tree(n, rng)
            _, stats = pandora(u, v, w)
            for size, n_alpha in zip(stats.level_sizes, stats.alpha_counts):
                assert n_alpha <= (size - 1) / 2 + 0.5


class TestKernelCounts:
    def test_kernel_count_logarithmic(self, rng):
        """Kernel launches grow like levels (log n), not like n."""
        counts = []
        for n in SIZES:
            model, _ = trace_for(n, rng, 0.5)
            counts.append(model.kernel_count())
        # 64x the input size must not even double the launch count
        assert counts[-1] < counts[0] * 2, counts

    def test_sort_kernels_constant(self, rng):
        """Exactly the initial edge sort and the final chain sort (plus a
        bounded number of per-level helpers)."""
        model, stats = trace_for(30_000, rng, 0.3)
        n_sorts = sum(1 for r in model.records if r.category == "sort")
        assert n_sorts <= 2 + stats.n_levels
