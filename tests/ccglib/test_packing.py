"""Packing kernels: sign quantization, padding, cost model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.packing import (
    PackDirection,
    pack_sign_planar,
    packing_cost,
    unpack_sign_planar,
)
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import GPU_CATALOG
from repro.gpusim.timing import Bound


class TestPackSign:
    @given(st.integers(1, 4), st.integers(1, 100), st.integers(0, 2**31))
    def test_roundtrip_signs(self, rows, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, k)).astype(np.float32)
        values[values == 0] = 1.0
        packed = pack_sign_planar(values)
        signs = unpack_sign_planar(packed, k)
        assert np.array_equal(signs, np.where(values >= 0, 1, -1).astype(np.int8))

    def test_k_pad_to(self):
        values = np.ones((1, 10), dtype=np.float32)
        packed = pack_sign_planar(values, k_pad_to=256)
        assert packed.shape == (1, 8)  # 256 bits = 8 words

    def test_k_pad_too_small(self):
        with pytest.raises(ShapeError):
            pack_sign_planar(np.ones((1, 10)), k_pad_to=5)

    @pytest.mark.parametrize("k, words", [(1, 1), (32, 1), (33, 2), (64, 2), (100, 4)])
    def test_one_word_per_32_samples(self, k, words):
        packed = pack_sign_planar(np.ones((2, 3, k), dtype=np.float32))
        assert packed.shape == (2, 3, words)
        assert packed.dtype == np.uint32

    def test_padding_bits_are_zero(self):
        packed = pack_sign_planar(np.ones((1, 1), dtype=np.float32), k_pad_to=64)
        # first bit 1 (MSB of word 0), everything else 0 (= decimal -1).
        assert packed[0, 0] == 0x80000000
        assert packed[0, 1] == 0


class TestPackingCost:
    def test_memory_bound(self, a100_device):
        cost = packing_cost(a100_device, 10**8, 4.0)
        assert cost.bound is Bound.MEMORY
        assert cost.dram_bytes > 4e8

    def test_scales_with_values(self, a100_device):
        # Not exactly 100x: the fixed launch overhead dilutes small packs.
        small = packing_cost(a100_device, 10**6, 4.0).time_s
        big = packing_cost(a100_device, 10**8, 4.0).time_s
        assert 30 * small < big < 100 * small

    def test_bandwidth_sanity(self, a100_device):
        # Large packs approach the achievable DRAM bandwidth.
        n = 10**9
        cost = packing_cost(a100_device, n, 4.0)
        achieved = cost.dram_bytes / cost.time_s
        spec = a100_device.spec
        assert achieved <= spec.mem_bandwidth_bytes() * spec.mem_efficiency + 1
        assert achieved > 0.9 * spec.mem_bandwidth_bytes() * spec.mem_efficiency

    def test_direction_label(self, a100_device):
        assert packing_cost(a100_device, 10, 2.0, PackDirection.UNPACK).name == "unpack_bits"


class TestPackingCostPerDevice:
    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_cost_independent_of_execution_mode(self, gpu):
        # A dry-run device prices a pack exactly like a functional one.
        functional = packing_cost(Device(gpu), 10**6, 2.0)
        assert packing_cost(Device(gpu, ExecutionMode.DRY_RUN), 10**6, 2.0) == functional

    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_large_pack_approaches_bandwidth(self, gpu):
        device = Device(gpu, ExecutionMode.DRY_RUN)
        cost = packing_cost(device, 10**9, 2.0)
        achievable = device.spec.mem_bandwidth_bytes() * device.spec.mem_efficiency
        assert 0.9 * achievable < cost.dram_bytes / cost.time_s <= achievable
        assert cost.energy_j == pytest.approx(cost.power_w * cost.time_s)


class TestScalarReference:
    """The scalar loop is the executable spec of the bit layout; the
    vectorized kernel must agree with it word for word."""

    @given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 100), st.integers(0, 2**31))
    def test_vectorized_matches_scalar_bitwise(self, batch, rows, k, seed):
        from repro.ccglib.packing import pack_sign_planar_scalar

        rng = np.random.default_rng(seed)
        values = rng.normal(size=(batch, 2, rows, k)).astype(np.float32)
        pad = -(-k // 32) * 32
        vectorized = pack_sign_planar(values, k_pad_to=pad)
        scalar = pack_sign_planar_scalar(values, k_pad_to=pad)
        assert vectorized.dtype == scalar.dtype == np.uint32
        assert np.array_equal(vectorized, scalar)

    def test_known_word(self):
        from repro.ccglib.packing import pack_sign_planar_scalar

        # sample 0 -> bit 31 (MSB-first): [+, -, -, ...] packs to 0x8000...
        values = np.full((1, 32), -1.0, dtype=np.float32)
        values[0, 0] = 1.0
        assert pack_sign_planar_scalar(values)[0, 0] == np.uint32(0x80000000)
        assert pack_sign_planar(values)[0, 0] == np.uint32(0x80000000)
