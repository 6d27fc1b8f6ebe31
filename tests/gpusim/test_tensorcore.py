"""Functional tensor-core fragment arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.gpusim.tensorcore import mma_f16


class TestMmaF16:
    def test_matches_fp32_of_quantized_inputs(self, rng):
        a = rng.normal(size=(16, 16)).astype(np.float32)
        b = rng.normal(size=(16, 16)).astype(np.float32)
        got = mma_f16(a, b)
        want = a.astype(np.float16).astype(np.float32) @ b.astype(np.float16).astype(np.float32)
        assert np.allclose(got, want, rtol=1e-6)
        assert got.dtype == np.float32

    def test_quantization_is_visible(self):
        # A value that changes under float16 rounding must be used quantized.
        a = np.full((1, 1), 1.0009765625 + 1e-5, dtype=np.float32)  # rounds in fp16
        b = np.ones((1, 1), dtype=np.float32)
        got = mma_f16(a, b)[0, 0]
        assert got == np.float32(np.float16(a[0, 0]))

    def test_accumulate(self, rng):
        a = rng.normal(size=(4, 8)).astype(np.float16)
        b = rng.normal(size=(8, 4)).astype(np.float16)
        c = np.ones((4, 4), dtype=np.float32)
        got = mma_f16(a, b, c)
        assert np.allclose(got, mma_f16(a, b) + 1.0, rtol=1e-6)

    def test_accumulator_not_mutated(self, rng):
        a = rng.normal(size=(2, 2)).astype(np.float16)
        c = np.zeros((2, 2), dtype=np.float32)
        mma_f16(a, a, c)
        assert np.all(c == 0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mma_f16(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_accumulator_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mma_f16(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((3, 3), dtype=np.float32))

