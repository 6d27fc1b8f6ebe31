"""Transpose/tiling kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.transpose import (
    planar_to_kmajor,
    run_transpose_kernel,
    tile_planar,
    transpose_cost,
    untile_planar,
)
from repro.errors import ShapeError
from repro.gpusim.timing import Bound


class TestTiling:
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.sampled_from([(8, 8), (16, 16), (16, 8)]),
        st.integers(0, 2**31),
    )
    def test_roundtrip_with_padding(self, r, c, tile, seed):
        rng = np.random.default_rng(seed)
        planar = rng.normal(size=(2, r, c)).astype(np.float32)
        tiled = tile_planar(planar, *tile)
        assert np.array_equal(untile_planar(tiled), planar)

    def test_padded_extents(self):
        tiled = tile_planar(np.ones((2, 17, 9), dtype=np.float32), 16, 8)
        assert tiled.tiles.shape == (2, 2, 2, 16, 8)

    def test_pad_value(self):
        tiled = tile_planar(np.ones((2, 1, 1), dtype=np.float32), 4, 4, pad_value=0.0)
        assert tiled.tiles.sum() == 2.0  # only the two real values

    def test_rejects_non_planar(self):
        with pytest.raises(ShapeError):
            tile_planar(np.ones((3, 4, 4)), 2, 2)

    def test_tiles_contiguous(self):
        tiled = tile_planar(np.ones((2, 16, 16), dtype=np.float32), 8, 8)
        assert tiled.tiles.flags["C_CONTIGUOUS"]


class TestKMajor:
    def test_transposes_kn(self, rng):
        planar = rng.normal(size=(2, 5, 3)).astype(np.float32)
        km = planar_to_kmajor(planar)
        assert km.shape == (2, 3, 5)
        assert np.array_equal(km[0], planar[0].T)

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            planar_to_kmajor(np.ones((1, 2, 3)))


class TestCostModel:
    def test_memory_bound_read_write(self, a100_device):
        cost = transpose_cost(a100_device, 10**8, 2.0)
        assert cost.bound is Bound.MEMORY
        assert cost.dram_bytes == pytest.approx(2 * 10**8 * 2.0)

    def test_run_returns_output_and_cost(self, a100_device):
        out, cost = run_transpose_kernel(a100_device, np.ones((2, 4, 3), dtype=np.float32), 24, 4.0)
        assert out.shape == (2, 3, 4)
        assert cost == transpose_cost(a100_device, 24, 4.0)

    def test_cost_only_mode(self, a100_device):
        out, cost = run_transpose_kernel(a100_device, None, 24, 4.0)
        assert out is None


class TestCountTiles:
    @given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 64), st.integers(1, 64))
    def test_covers_matrix(self, r, c, tr, tc):
        # tile_planar pads to the smallest tile grid that covers the matrix.
        tiled = tile_planar(np.zeros((2, r, c), dtype=np.float16), tr, tc)
        _, rt, ct, tile_r, tile_c = tiled.tiles.shape
        assert (tile_r, tile_c) == (tr, tc)
        assert rt * tr >= r > (rt - 1) * tr
        assert ct * tc >= c > (ct - 1) * tc
