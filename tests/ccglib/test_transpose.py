"""Transpose kernel: K-major reorder and cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.transpose import planar_to_kmajor, transpose_cost
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import GPU_CATALOG
from repro.gpusim.timing import Bound


class TestKMajor:
    def test_transposes_kn(self, rng):
        planar = rng.normal(size=(2, 5, 3)).astype(np.float32)
        km = planar_to_kmajor(planar)
        assert km.shape == (2, 3, 5)
        assert np.array_equal(km[0], planar[0].T)

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            planar_to_kmajor(np.ones((1, 2, 3)))

    def test_rejects_non_planar(self):
        with pytest.raises(ShapeError):
            planar_to_kmajor(np.ones((3, 4, 4)))

    @given(st.integers(1, 3), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**31))
    def test_batched_reorders_each_item(self, batch, k, n, seed):
        planar = np.random.default_rng(seed).normal(size=(batch, 2, k, n)).astype(np.float32)
        km = planar_to_kmajor(planar)
        assert km.shape == (batch, 2, n, k)
        for item, item_km in zip(planar, km):
            assert np.array_equal(item_km, planar_to_kmajor(item))

    def test_output_is_contiguous(self, rng):
        km = planar_to_kmajor(rng.normal(size=(2, 16, 8)).astype(np.float32))
        assert km.flags["C_CONTIGUOUS"]

    def test_reorder_twice_is_identity(self, rng):
        planar = rng.normal(size=(2, 2, 7, 5)).astype(np.float32)
        assert np.array_equal(planar_to_kmajor(planar_to_kmajor(planar)), planar)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int8])
    def test_dtype_preserved(self, dtype):
        assert planar_to_kmajor(np.ones((2, 3, 4), dtype=dtype)).dtype == dtype


class TestCostModel:
    def test_memory_bound_read_write(self, a100_device):
        cost = transpose_cost(a100_device, 10**8, 2.0)
        assert cost.bound is Bound.MEMORY
        assert cost.dram_bytes == pytest.approx(2 * 10**8 * 2.0)


    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_cost_independent_of_execution_mode(self, gpu):
        functional = transpose_cost(Device(gpu), 10**6, 4.0)
        assert transpose_cost(Device(gpu, ExecutionMode.DRY_RUN), 10**6, 4.0) == functional

    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_large_transpose_approaches_bandwidth(self, gpu):
        device = Device(gpu, ExecutionMode.DRY_RUN)
        cost = transpose_cost(device, 10**9, 2.0)
        achievable = device.spec.mem_bandwidth_bytes() * device.spec.mem_efficiency
        assert 0.9 * achievable < cost.dram_bytes / cost.time_s <= achievable
        assert cost.energy_j == pytest.approx(cost.power_w * cost.time_s)
