"""The concatenated 1-bit k-loop against the unpacked ±1 oracle.

``complex_bit_gemm`` runs Eq. 5 as one popcount sum over ``[A_re | A_im]``
and the stacked ``[B_re | ~B_im]`` / ``[B_im | B_re]`` rows; on NumPy that
sum walks blocks of rows sized by ``repro.util.bits.TILE_BYTES`` and counts
in a uint16 accumulator while the word count allows it. Whatever the batch
dims, shapes, padding, bit op and blocking, every output must equal
``bit_gemm_reference`` exactly; so must the path NumPy takes without
``np.bitwise_count``.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.bit_gemm import bit_gemm_reference, complex_bit_gemm
from repro.gpusim.arch import BitOp
from repro.util import bits
from repro.util.bits import pack_bits, pad_to_words, popcount_gemm

BATCHES = [(), (1,), (3,), (2, 2)]


def _pack(bit_planes: np.ndarray) -> np.ndarray:
    return pack_bits(pad_to_words(bit_planes, axis=-1, pad_bit=0), axis=-1)


def _reference(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    batch = a_bits.shape[:-3]
    a_flat = a_bits.reshape((-1,) + a_bits.shape[-3:])
    b_flat = b_bits.reshape((-1,) + b_bits.shape[-3:])
    ref = np.stack([bit_gemm_reference(a, b) for a, b in zip(a_flat, b_flat)])
    return ref.reshape(batch + ref.shape[-3:])


@st.composite
def blocked_problems(draw):
    """A complex 1-bit GEMM whose blocked operand spans 3+ row blocks, the last ragged.

    The operand with more rows (A'' with M rows or B'' with 2N) runs along
    the tile; the other one is walked ``rows`` rows at a time, so the tile
    budget is set to exactly ``rows`` of them.
    """
    batch = draw(st.sampled_from(BATCHES))
    rows = draw(st.integers(3, 7))
    full = draw(st.integers(3, 5))
    if draw(st.booleans()):
        # M rows of A'' blocked: 2N > M puts B'' along the tile.
        m = full * rows + draw(st.integers(1, rows - 1))
        n = m // 2 + 1 + draw(st.integers(0, 4))
    else:
        # 2N rows of B'' blocked (2N is even, so pick an odd block size).
        rows |= 1
        tail = draw(st.sampled_from([t for t in range(1, rows) if t % 2 == full % 2]))
        n = (full * rows + tail) // 2
        m = 2 * n + draw(st.integers(0, 8))
    words = draw(st.integers(1, 4))
    k = 32 * words - draw(st.integers(0, 31))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    budget = rows * math.prod(batch) * max(m, 2 * n) * 8
    return dict(
        a_bits=rng.integers(0, 2, size=batch + (2, m, k)).astype(np.uint8),
        b_bits=rng.integers(0, 2, size=batch + (2, n, k)).astype(np.uint8),
        k=k,
        op=draw(st.sampled_from([BitOp.XOR, BitOp.AND])),
        budget=budget,
    )


@given(blocked_problems())
def test_blocked_k_loop_matches_reference(problem):
    want = _reference(problem["a_bits"], problem["b_bits"])
    a_w, b_w = _pack(problem["a_bits"]), _pack(problem["b_bits"])
    with mock.patch.object(bits, "TILE_BYTES", problem["budget"]):
        got = complex_bit_gemm(a_w, b_w, problem["k"], problem["op"])
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


@given(
    st.sampled_from(BATCHES),
    st.integers(1, 9),
    st.integers(1, 9),
    st.integers(1, 5),
    st.sampled_from(["xor", "and"]),
    st.sampled_from([1, 64, 500, bits.TILE_BYTES]),
    st.integers(0, 2**31),
)
def test_popcount_gemm_matches_direct_count(batch, m, n, words, op, budget, seed):
    # Odd word counts stay uint32 on NumPy, even ones are read as uint64.
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2**32, size=batch + (m, words), dtype=np.uint32)
    b = rng.integers(0, 2**32, size=batch + (n, words), dtype=np.uint32)
    combine = {"xor": np.bitwise_xor, "and": np.bitwise_and}[op]
    want = bits.popcount(combine(a[..., :, None, :], b[..., None, :, :])).sum(axis=-1)
    with mock.patch.object(bits, "TILE_BYTES", budget):
        got = popcount_gemm(a, b, op)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)


def _extreme_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows that drive every popcount sum of the k-loop to 0 or to its maximum.

    A rows are all +1 or all -1; B rows take every (Re, Im) sign pair, so
    each half of the concatenated sum meets all-equal and all-different
    words.
    """
    a_bits = np.zeros((2, 2, k), dtype=np.uint8)
    a_bits[:, 0] = 1
    b_bits = np.zeros((2, 4, k), dtype=np.uint8)
    for row, (re, im) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        b_bits[0, row], b_bits[1, row] = re, im
    return a_bits, b_bits


#: the concatenated k-loop reads 2W uint32 words as W uint64 words; it
#: counts in uint16 while 64 * W <= 65535, i.e. up to W = 1023.
NARROW_WORDS = np.iinfo(np.uint16).max // 64


@pytest.mark.parametrize("op", [BitOp.XOR, BitOp.AND])
@pytest.mark.parametrize(
    "k",
    [
        32 * NARROW_WORDS,  # largest K counted in uint16, no padding
        32 * NARROW_WORDS + 1,  # first K past it: int32, padded
        32 * (NARROW_WORDS + 1),  # first K whose sums can exceed 65535
    ],
)
def test_accumulator_boundary(op, k):
    a_bits, b_bits = _extreme_rows(k)
    got = complex_bit_gemm(_pack(a_bits), _pack(b_bits), k, op)
    assert np.array_equal(got, bit_gemm_reference(a_bits, b_bits))


@pytest.mark.parametrize("op", ["xor", "and"])
@pytest.mark.parametrize("words", [2047, 2049])  # odd: uint32 words, 32 * W around 65535
def test_popcount_gemm_accumulator_boundary(op, words):
    a = np.array([[0xFFFFFFFF] * words, [0] * words], dtype=np.uint32)
    b = np.array([[0] * words, [0xFFFFFFFF] * words], dtype=np.uint32)
    combine = {"xor": np.bitwise_xor, "and": np.bitwise_and}[op]
    want = bits.popcount(combine(a[:, None, :], b[None, :, :])).sum(axis=-1)
    assert want.max() == 32 * words
    assert np.array_equal(popcount_gemm(a, b, op), want)


@given(blocked_problems())
def test_without_bitwise_count(problem):
    # NumPy < 2.0 has no np.bitwise_count: popcount falls back to the
    # byte lookup table and the k-loop to the functional path.
    a_bits, b_bits, k, op = problem["a_bits"], problem["b_bits"], problem["k"], problem["op"]
    a_w, b_w = _pack(a_bits), _pack(b_bits)
    a_plane, b_plane = a_w[..., 0, :, :], b_w[..., 0, :, :]
    want_counts = bits.popcount(a_plane[..., :, None, :] ^ b_plane[..., None, :, :]).sum(-1)
    with mock.patch.object(bits, "_HAS_BITWISE_COUNT", False):
        assert np.array_equal(popcount_gemm(a_plane, b_plane, "xor"), want_counts)
        got = complex_bit_gemm(a_w, b_w, k, op)
    assert np.array_equal(got, _reference(a_bits, b_bits))
