"""ccglib built-in benchmark tools."""

from __future__ import annotations

from repro.ccglib.benchmark import measure, size_grid, sweep_cubic, sweep_k, sweep_mn
from repro.ccglib.perfmodel import GemmProblem
from repro.ccglib.precision import Precision
from repro.gpusim.specs import get_spec


class TestSweeps:
    def test_cubic_sweep_shapes(self):
        points = sweep_cubic(get_spec("A100"), Precision.FLOAT16, [256, 512])
        assert [p.m for p in points] == [256, 512]
        assert all(p.m == p.n == p.k for p in points)
        assert all(p.tops > 0 for p in points)

    def test_mn_sweep_fixed_k(self):
        points = sweep_mn(get_spec("A100"), Precision.INT1, [1024, 2048], k=524288)
        assert all(p.k == 524288 for p in points)

    def test_k_sweep_fixed_mn(self):
        points = sweep_k(get_spec("GH200"), Precision.INT1, [65536, 131072], m=32768, n=8192)
        assert [p.k for p in points] == [65536, 131072]
        assert all(p.m == 32768 for p in points)

    def test_performance_grows_with_size(self):
        points = sweep_cubic(get_spec("MI300X"), Precision.FLOAT16, [512, 8192])
        assert points[1].tops > points[0].tops

    def test_measure_records_bound(self):
        point = measure(get_spec("A100"), Precision.FLOAT16, GemmProblem(256, 1024, 1024, 64))
        assert point.bound == "memory"


class TestSizeGrid:
    def test_includes_offsets(self):
        grid = size_grid(1000, 3000, 1000, include_offsets=(0, 136))
        assert 1000 in grid and 1136 in grid

    def test_respects_bounds(self):
        grid = size_grid(1000, 2000, 1000, include_offsets=(0, 5000))
        assert max(grid) <= 2000
        assert min(grid) >= 1000

    def test_sorted_unique(self):
        grid = size_grid(100, 1000, 100, include_offsets=(0, 0))
        assert grid == sorted(set(grid))
