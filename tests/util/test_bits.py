"""Bit-manipulation helpers: packing round-trips, popcount, sign encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.util.bits import (
    PACK_WORD_BITS,
    bits_to_sign,
    pack_bits,
    packed_length,
    pad_to_words,
    popcount,
    popcount_gemm,
    sign_to_bits,
    unpack_bits,
)


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 0xFFFFFFFF, 0x80000001, 0xAAAAAAAA], dtype=np.uint32)
        assert popcount(words).tolist() == [0, 1, 32, 2, 16]

    def test_dtype_is_int64(self):
        assert popcount(np.array([7], dtype=np.uint32)).dtype == np.int64

    def test_rejects_signed(self):
        with pytest.raises(ShapeError):
            popcount(np.array([1, 2], dtype=np.int32))

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64))
    def test_matches_python_bin(self, values):
        words = np.array(values, dtype=np.uint32)
        expected = [bin(v).count("1") for v in values]
        assert popcount(words).tolist() == expected

    def test_uint64_words(self):
        words = np.array([2**63 | 1], dtype=np.uint64)
        assert popcount(words).tolist() == [2]


class TestSignEncoding:
    def test_positive_is_one(self):
        # Paper Fig 1: binary 1 represents +1.
        assert sign_to_bits(np.array([1.5])).tolist() == [1]
        assert sign_to_bits(np.array([-0.25])).tolist() == [0]

    def test_zero_maps_to_plus_one(self):
        # Zero is not representable; the packing convention maps x >= 0 to 1.
        assert sign_to_bits(np.array([0.0])).tolist() == [1]

    def test_roundtrip_sign(self):
        values = np.array([-3.0, 2.0, -0.1, 7.0])
        recovered = bits_to_sign(sign_to_bits(values))
        assert recovered.tolist() == [-1, 1, -1, 1]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=1, max_size=50))
    def test_bits_are_binary(self, values):
        bits = sign_to_bits(np.array(values, dtype=np.float32))
        assert set(np.unique(bits)).issubset({0, 1})


class TestPackUnpack:
    def test_single_word_msb_first(self):
        bits = np.zeros(32, dtype=np.uint8)
        bits[0] = 1  # first sample -> most significant bit
        packed = pack_bits(bits)
        assert packed.tolist() == [0x80000000]

    def test_last_bit_is_lsb(self):
        bits = np.zeros(32, dtype=np.uint8)
        bits[31] = 1
        assert pack_bits(bits).tolist() == [1]

    def test_requires_multiple_of_32(self):
        with pytest.raises(ShapeError):
            pack_bits(np.zeros(33, dtype=np.uint8))

    def test_unpack_requires_uint32(self):
        with pytest.raises(ShapeError):
            unpack_bits(np.zeros(2, dtype=np.uint64))

    def test_unpack_count_trims(self):
        bits = np.ones(32, dtype=np.uint8)
        assert unpack_bits(pack_bits(bits), count=7).shape == (7,)

    def test_unpack_count_too_large(self):
        with pytest.raises(ShapeError):
            unpack_bits(pack_bits(np.ones(32, dtype=np.uint8)), count=33)

    @given(
        st.integers(1, 4).flatmap(
            lambda words: st.lists(
                st.integers(0, 1), min_size=32 * words, max_size=32 * words
            )
        )
    )
    def test_roundtrip_1d(self, bit_list):
        bits = np.array(bit_list, dtype=np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits)), bits)

    @given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2))
    def test_roundtrip_multi_axis(self, rows, words, axis_seed):
        rng = np.random.default_rng(axis_seed)
        bits = rng.integers(0, 2, size=(rows, 2, words * 32)).astype(np.uint8)
        for axis in (-1, 2):
            packed = pack_bits(bits, axis=axis)
            assert packed.shape == (rows, 2, words)
            assert np.array_equal(unpack_bits(packed, axis=axis), bits)

    def test_pack_axis_zero(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(64, 3)).astype(np.uint8)
        packed = pack_bits(bits, axis=0)
        assert packed.shape == (2, 3)
        assert np.array_equal(unpack_bits(packed, axis=0), bits)


class TestPadding:
    def test_packed_length(self):
        assert packed_length(1) == 1
        assert packed_length(32) == 1
        assert packed_length(33) == 2

    def test_pad_to_words_default_bit(self):
        bits = np.ones(5, dtype=np.uint8)
        padded = pad_to_words(bits)
        assert padded.shape == (32,)
        # Padding bit 0 encodes decimal -1 (paper §III-D).
        assert padded[5:].sum() == 0

    def test_pad_noop_when_aligned(self):
        bits = np.ones(64, dtype=np.uint8)
        assert pad_to_words(bits) is bits

    def test_pad_custom_bit(self):
        padded = pad_to_words(np.zeros(1, dtype=np.uint8), pad_bit=1)
        assert padded[1:].sum() == PACK_WORD_BITS - 1


def _popc_reference(a: np.ndarray, b: np.ndarray, op: str) -> np.ndarray:
    """One Python ``bin().count`` per word pair: independent of NumPy popcount."""
    combine = {"xor": lambda x, y: x ^ y, "and": lambda x, y: x & y}[op]
    out = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = sum(bin(combine(int(x), int(y))).count("1") for x, y in zip(a[i], b[j]))
    return out


class TestPopcountGemm:
    """The k-loop sums uint8 counts of 7 uint32 (odd W) or 3 uint64 (even W)
    words at a time and walks the operand with fewer rows in blocks; the
    shapes sit on and across those group edges, with either operand taller."""

    @pytest.mark.parametrize("op", ["xor", "and"])
    @pytest.mark.parametrize(
        "m, n, words",
        [(1, 1, 1), (3, 2, 1), (2, 3, 2), (4, 4, 6), (2, 5, 8), (3, 3, 7), (5, 2, 9), (1, 6, 15)],
        ids=lambda v: str(v),
    )
    def test_matches_python_count(self, rng, m, n, words, op):
        a = rng.integers(0, 2**32, size=(m, words), dtype=np.uint32)
        b = rng.integers(0, 2**32, size=(n, words), dtype=np.uint32)
        got = popcount_gemm(a, b, op)
        assert got.dtype == np.int32
        assert np.array_equal(got, _popc_reference(a, b, op))

    @pytest.mark.parametrize("words", [7, 8, 9])
    def test_every_bit_set_in_every_word(self, words):
        # The largest per-group sums: every combined word has all 32 bits set.
        a = np.full((2, words), 0xFFFFFFFF, dtype=np.uint32)
        b = np.array([[0] * words, [0xFFFFFFFF] * words], dtype=np.uint32)
        assert np.array_equal(popcount_gemm(a, b, "xor"), [[32 * words, 0]] * 2)
        assert np.array_equal(popcount_gemm(a, b, "and"), [[0, 32 * words]] * 2)

    def test_and_of_complements_is_the_xor_complement(self, rng):
        # popc(A&B) + popc(~A&~B) == K - popc(A^B): the §III-E equivalence.
        a = rng.integers(0, 2**32, size=(3, 4), dtype=np.uint32)
        b = rng.integers(0, 2**32, size=(5, 4), dtype=np.uint32)
        same = popcount_gemm(a, b, "and") + popcount_gemm(~a, ~b, "and")
        assert np.array_equal(same, 4 * 32 - popcount_gemm(a, b, "xor"))
