"""Complex layout conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.layouts import (
    IMAG,
    REAL,
    ensure_batched,
    to_interleaved,
    to_planar,
)
from repro.errors import ShapeError


class TestPlanarConversion:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31))
    def test_roundtrip(self, r, c, seed):
        rng = np.random.default_rng(seed)
        z = (rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))).astype(np.complex64)
        assert np.array_equal(to_interleaved(to_planar(z)), z)

    def test_plane_order(self):
        z = np.array([[1 + 2j]], dtype=np.complex64)
        p = to_planar(z)
        assert p[REAL, 0, 0] == 1.0
        assert p[IMAG, 0, 0] == 2.0

    def test_dtype_quantization(self):
        z = np.array([[1.0 + 1.0j]], dtype=np.complex64)
        assert to_planar(z, dtype=np.float16).dtype == np.float16

    def test_rejects_real_input(self):
        with pytest.raises(ShapeError):
            to_planar(np.zeros((2, 2)))

    def test_interleaved_rejects_bad_axis(self):
        with pytest.raises(ShapeError):
            to_interleaved(np.zeros((3, 2, 2)))

    def test_batched_shapes(self):
        z = np.zeros((4, 3, 2), dtype=np.complex64)
        p = to_planar(z)
        assert p.shape == (4, 2, 3, 2)
        assert to_interleaved(p).shape == z.shape


class TestEnsureBatched:
    def test_adds_batch(self):
        arr, had = ensure_batched(np.zeros((3, 4)), 3)
        assert arr.shape == (1, 3, 4)
        assert not had

    def test_keeps_batch(self):
        arr, had = ensure_batched(np.zeros((2, 3, 4)), 3)
        assert arr.shape == (2, 3, 4)
        assert had

    def test_rejects_other_ranks(self):
        with pytest.raises(ShapeError):
            ensure_batched(np.zeros((4,)), 3)
