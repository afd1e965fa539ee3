"""Perf utility tests: metrics, table rendering, bench harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runners import modeled_unionfind_mt, time_dendrogram
from repro.parallel import CPU_EPYC_7A53, CPU_SEQUENTIAL
from repro.parallel.machine import CostModel, scale_trace
from repro.perf import format_value, mpoints_per_sec, render_table, speedup
from repro.structures.tree import random_spanning_tree


class TestMetrics:
    def test_mpoints_per_sec(self):
        assert mpoints_per_sec(10_000_000, 2.0) == 5.0

    def test_mpoints_rejects_zero(self):
        with pytest.raises(ValueError):
            mpoints_per_sec(100, 0.0)

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0


class TestRenderTable:
    def test_renders_all_rows(self):
        txt = render_table(["name", "x"], [["a", 1.0], ["b", 22.5]], title="T")
        assert "T" in txt
        assert "a" in txt and "22.5" in txt

    def test_format_value_ranges(self):
        assert format_value(0.0) == "0"
        assert "e" in format_value(1.5e9)
        assert format_value("abc") == "abc"

    def test_empty_rows(self):
        txt = render_table(["h1"], [])
        assert "h1" in txt


class TestBenchRunners:
    def test_time_dendrogram_algorithms_agree(self, rng):
        u, v, w = random_spanning_tree(500, rng)
        t_p, d_p = time_dendrogram("pandora", u, v, w, 500, repeats=1)
        t_u, d_u = time_dendrogram("unionfind", u, v, w, 500, repeats=1)
        assert t_p > 0 and t_u > 0
        assert np.array_equal(d_p.parent, d_u.parent)

    def test_modeled_unionfind_scales_linearly_plus_sort(self):
        t1 = modeled_unionfind_mt(1_000_000, CPU_EPYC_7A53)
        t2 = modeled_unionfind_mt(2_000_000, CPU_EPYC_7A53)
        assert 1.9 < t2 / t1 < 2.3  # ~linear with a log sort factor


class TestScaleTrace:
    def test_scales_work(self):
        m = CostModel()
        m.add("a", "map", 100)
        big = scale_trace(m, 10)
        assert big.total_work() == 1000
        assert big.kernel_count() == 1

    def test_preserves_phase(self):
        m = CostModel()
        with m.phase("sort"):
            m.add("a", "sort", 100)
        big = scale_trace(m, 3)
        assert big.total_work(phase="sort") == 300

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_trace(CostModel(), 0)

    def test_large_scale_modeled_time_superlinear_for_sort(self):
        m = CostModel()
        m.add("s", "sort", 1000)
        t1 = m.modeled_time(CPU_SEQUENTIAL)
        t2 = scale_trace(m, 1000).modeled_time(CPU_SEQUENTIAL)
        assert t2 > 900 * t1  # n log n growth
