"""1-bit GEMM arithmetic: Table II, Eqs. 4-6, padding correction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend import NumpyBackend
from repro.ccglib.bit_gemm import (
    bit_gemm_reference,
    complex_bit_gemm,
    real_bit_dot,
    real_bit_dot_and,
    unpack_planar,
)
from repro.errors import ShapeError
from repro.gpusim.arch import BitOp
from repro.util.bits import pack_bits, pad_to_words
from tests.conftest import GenericNumpyBackend


def test_table2_worked_example():
    """The exact worked example of paper Table II (K=4).

    A = (1, -1, 1, -1) -> binary 1010; B = (1, 1, -1, -1) -> binary 1100.
    popc(A ^ B) = 2 and the dot product K - 2*popc = 0.
    """
    a_bits = np.array([1, 0, 1, 0], dtype=np.uint8)
    b_bits = np.array([1, 1, 0, 0], dtype=np.uint8)
    a_words = pack_bits(pad_to_words(a_bits))
    b_words = pack_bits(pad_to_words(b_bits))
    # Padding contributes popc(0^0)=0 per padded bit, so the packed XOR
    # popcount equals the K=4 popcount of the table: 2.
    from repro.util.bits import popcount

    assert int(popcount(a_words ^ b_words).sum()) == 2
    # Decimal check: sum(A*B) = 1*1 + -1*1 + 1*-1 + -1*-1 = 0.
    # For the packed dot we must account for the 28 padded (-1 * -1) pairs.
    k_full = 32
    padded_dot = real_bit_dot(a_words, b_words, k_full)
    assert padded_dot == 0 + 28  # true dot plus padding contribution
    assert padded_dot - (k_full - 4) == 0  # Kpad correction recovers 0


def _pack_planar_bits(bits: np.ndarray) -> np.ndarray:
    """(2, R, K) {0,1} -> (2, R, W) packed words, padding with 0-bits."""
    return pack_bits(pad_to_words(bits, axis=-1, pad_bit=0), axis=-1)


@st.composite
def packed_problem(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 130))  # crosses the 32, 64, 128 word boundaries
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a_bits = rng.integers(0, 2, size=(2, m, k)).astype(np.uint8)
    b_bits = rng.integers(0, 2, size=(2, n, k)).astype(np.uint8)
    return a_bits, b_bits, k


class TestComplexBitGemm:
    @given(packed_problem())
    def test_xor_matches_reference_with_padding(self, problem):
        a_bits, b_bits, k = problem
        expected = bit_gemm_reference(a_bits, b_bits)
        got = complex_bit_gemm(_pack_planar_bits(a_bits), _pack_planar_bits(b_bits), k, BitOp.XOR)
        assert np.array_equal(got, expected)

    @given(packed_problem())
    def test_and_equals_xor(self, problem):
        a_bits, b_bits, k = problem
        a_w, b_w = _pack_planar_bits(a_bits), _pack_planar_bits(b_bits)
        assert np.array_equal(
            complex_bit_gemm(a_w, b_w, k, BitOp.XOR),
            complex_bit_gemm(a_w, b_w, k, BitOp.AND),
        )

    def test_exact_at_word_boundary(self, rng):
        # K exactly 64: zero padding; both components exact.
        a_bits = rng.integers(0, 2, size=(2, 3, 64)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=(2, 2, 64)).astype(np.uint8)
        got = complex_bit_gemm(_pack_planar_bits(a_bits), _pack_planar_bits(b_bits), 64)
        assert np.array_equal(got, bit_gemm_reference(a_bits, b_bits))

    def test_output_dtype_and_shape(self, rng):
        a_bits = rng.integers(0, 2, size=(2, 4, 40)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=(2, 5, 40)).astype(np.uint8)
        out = complex_bit_gemm(_pack_planar_bits(a_bits), _pack_planar_bits(b_bits), 40)
        assert out.shape == (2, 4, 5)
        assert out.dtype == np.int32

    def test_result_parity(self, rng):
        # Each complex component is a sum/difference of two length-K ±1
        # dot products; both share K's parity, so the result is always even.
        for k in (33, 34):
            a_bits = rng.integers(0, 2, size=(2, 3, k)).astype(np.uint8)
            b_bits = rng.integers(0, 2, size=(2, 3, k)).astype(np.uint8)
            out = complex_bit_gemm(_pack_planar_bits(a_bits), _pack_planar_bits(b_bits), k)
            assert np.all(out % 2 == 0)

    def test_k_valid_bounds(self, rng):
        a = rng.integers(0, 2**32, size=(2, 1, 1), dtype=np.uint32)
        b = rng.integers(0, 2**32, size=(2, 1, 1), dtype=np.uint32)
        with pytest.raises(ShapeError):
            complex_bit_gemm(a, b, 0)
        with pytest.raises(ShapeError):
            complex_bit_gemm(a, b, 33)

    def test_shape_validation(self, rng):
        good = rng.integers(0, 2**32, size=(2, 2, 2), dtype=np.uint32)
        with pytest.raises(ShapeError):
            complex_bit_gemm(good[:1], good, 64)
        with pytest.raises(ShapeError):
            complex_bit_gemm(good, good.astype(np.int64), 64)
        with pytest.raises(ShapeError):
            complex_bit_gemm(good, rng.integers(0, 2, size=(2, 2, 3), dtype=np.uint32), 64)

    def test_n_block_independence(self, rng):
        a_bits = rng.integers(0, 2, size=(2, 3, 96)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=(2, 7, 96)).astype(np.uint8)
        a_w, b_w = _pack_planar_bits(a_bits), _pack_planar_bits(b_bits)
        assert np.array_equal(
            complex_bit_gemm(a_w, b_w, 96, n_block=2),
            complex_bit_gemm(a_w, b_w, 96, n_block=128),
        )


BACKENDS = [NumpyBackend(), GenericNumpyBackend()]


def _batched_reference(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    batch = a_bits.shape[:-3]
    a_flat = a_bits.reshape((-1,) + a_bits.shape[-3:])
    b_flat = b_bits.reshape((-1,) + b_bits.shape[-3:])
    ref = np.stack([bit_gemm_reference(a, b) for a, b in zip(a_flat, b_flat)])
    return ref.reshape(batch + ref.shape[-3:])


class TestWordMajorEdges:
    """The word-major k-loop against the unpacked oracle at each of its edges."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda be: be.name)
    @pytest.mark.parametrize("op", [BitOp.XOR, BitOp.AND])
    @pytest.mark.parametrize(
        "batch, m, n, k, n_block",
        [
            ((), 3, 5, 96, 128),  # odd W = 3: uint32 words
            ((), 3, 5, 128, 128),  # even W = 4: read as uint64 on NumPy
            ((), 4, 7, 100, 3),  # even W, padded K, n_block < N not dividing it
            ((), 4, 7, 70, 3),  # odd W, padded K, n_block < N not dividing it
            ((2,), 3, 4, 64, 128),  # one batch dim
            ((2, 3), 2, 5, 90, 2),  # two batch dims, padded K, blocked N
        ],
    )
    def test_matches_reference(self, rng, backend, op, batch, m, n, k, n_block):
        a_bits = rng.integers(0, 2, size=batch + (2, m, k)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=batch + (2, n, k)).astype(np.uint8)
        got = complex_bit_gemm(
            _pack_planar_bits(a_bits), _pack_planar_bits(b_bits), k, op, n_block, backend
        )
        assert np.array_equal(got, _batched_reference(a_bits, b_bits))

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda be: be.name)
    @pytest.mark.parametrize("op", [BitOp.XOR, BitOp.AND])
    def test_large_k_counts_do_not_wrap(self, rng, backend, op):
        # All-equal and all-different rows push single popcount sums to the
        # whole padded K (> 2**16), past any 8- or 16-bit accumulator.
        k = 70_001
        a_bits = rng.integers(0, 2, size=(2, 3, k)).astype(np.uint8)
        b_bits = rng.integers(0, 2, size=(2, 2, k)).astype(np.uint8)
        a_bits[:, 0], b_bits[:, 0] = 1, 0
        a_bits[:, 1], b_bits[:, 1] = 1, 1
        got = complex_bit_gemm(
            _pack_planar_bits(a_bits), _pack_planar_bits(b_bits), k, op, backend=backend
        )
        assert np.array_equal(got, bit_gemm_reference(a_bits, b_bits))


class TestRealBitDot:
    @given(st.integers(0, 2**31), st.integers(1, 4))
    def test_xor_and_agree(self, seed, words):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2**32, size=words, dtype=np.uint32)
        b = rng.integers(0, 2**32, size=words, dtype=np.uint32)
        k = 32 * words
        assert real_bit_dot(a, b, k) == real_bit_dot_and(a, b, k)

    @given(st.integers(0, 2**31), st.integers(1, 3))
    def test_matches_sign_arithmetic(self, seed, words):
        rng = np.random.default_rng(seed)
        k = 32 * words
        bits_a = rng.integers(0, 2, size=k).astype(np.uint8)
        bits_b = rng.integers(0, 2, size=k).astype(np.uint8)
        signs_a = bits_a.astype(np.int64) * 2 - 1
        signs_b = bits_b.astype(np.int64) * 2 - 1
        a, b = pack_bits(bits_a), pack_bits(bits_b)
        assert real_bit_dot(a, b, k) == int((signs_a * signs_b).sum())


class TestUnpackPlanar:
    def test_roundtrip(self, rng):
        bits = rng.integers(0, 2, size=(2, 3, 64)).astype(np.uint8)
        words = _pack_planar_bits(bits)
        assert np.array_equal(unpack_planar(words, 64), bits)
