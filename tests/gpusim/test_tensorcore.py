"""Functional tensor-core fragment arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.gpusim.tensorcore import bmma_and, bmma_xor, mma_f16


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


def _popc_xor_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = sum(bin(int(x) ^ int(y)).count("1") for x, y in zip(a[i], b[j]))
    return out


class TestBinaryMma:
    @given(st.integers(0, 2**31), st.integers(1, 3), st.integers(1, 4))
    def test_xor_matches_reference(self, seed, m, words):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2**32, size=(m, words), dtype=np.uint32)
        b = rng.integers(0, 2**32, size=(2, words), dtype=np.uint32)
        assert np.array_equal(bmma_xor(a, b), _popc_xor_reference(a, b))

    def test_and_or_complement_identity(self, rng):
        # popc(A&B) + popc(~A&~B) == K - popc(A^B): the §III-E equivalence.
        a = rng.integers(0, 2**32, size=(3, 4), dtype=np.uint32)
        b = rng.integers(0, 2**32, size=(5, 4), dtype=np.uint32)
        k = 4 * 32
        same = bmma_and(a, b) + bmma_and(~a, ~b)
        assert np.array_equal(same, k - bmma_xor(a, b))

    def test_accumulation(self, rng):
        a = rng.integers(0, 2**32, size=(2, 2), dtype=np.uint32)
        b = rng.integers(0, 2**32, size=(2, 2), dtype=np.uint32)
        base = bmma_xor(a, b)
        assert np.array_equal(bmma_xor(a, b, base), 2 * base)

    def test_requires_uint32(self):
        with pytest.raises(ShapeError):
            bmma_xor(np.zeros((1, 1), dtype=np.int32), np.zeros((1, 1), dtype=np.uint32))

    def test_word_count_mismatch(self):
        with pytest.raises(ShapeError):
            bmma_xor(np.zeros((1, 2), dtype=np.uint32), np.zeros((1, 3), dtype=np.uint32))

