"""Bit-level helpers for the 1-bit tensor-core data path.

The paper stores 1-bit samples packed 32-per-word ("32 consecutive 1-bit
samples must be stored in a single 32-bit integer", §III). The encoding maps
the sign of a real number to one bit: binary 1 represents +1 and binary 0
represents -1 (Fig. 1 of the paper). Zero is not representable.

Packing order
-------------
Within one 32-bit word, sample ``i`` (0-based, counted along the packed axis)
occupies bit position ``31 - (i % 32)``: the first sample lands in the most
significant bit. This matches the big-endian bit order used by the CUDA
``b1`` fragments and keeps lexicographic sample order equal to numeric word
order, which the transpose kernel relies on.

Backends
--------
Every helper accepts an optional :class:`~repro.backend.ArrayBackend`
(default: the NumPy reference). The NumPy path keeps its historical
``np.packbits`` / big-endian-view implementation — bit-identical to the
pre-backend code — while other backends use a vectorized shift-and-or
formulation built only from universal ufuncs, so CuPy and JAX need neither
``packbits`` nor byte-order views.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend, numpy_backend
from repro.errors import ShapeError

#: Number of 1-bit samples stored per packed 32-bit word.
PACK_WORD_BITS = 32

# Lookup table fallback for popcount on platforms without np.bitwise_count.
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def popcount(words: np.ndarray) -> np.ndarray:
    """Population count of each element of an unsigned integer array.

    Uses :func:`numpy.bitwise_count` when available (NumPy >= 2.0) and an
    8-bit lookup table otherwise. The return dtype is ``int64`` so that
    accumulating popcounts over the K axis of a large GEMM cannot overflow.
    (This is the NumPy reference; other backends provide
    :meth:`~repro.backend.ArrayBackend.popcount`.)
    """
    words = np.asarray(words)
    if not np.issubdtype(words.dtype, np.unsignedinteger):
        raise ShapeError(f"popcount requires an unsigned integer array, got {words.dtype}")
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(words).astype(np.int64)
    as_bytes = words.reshape(-1).view(np.uint8)
    counts = _POPCNT8[as_bytes].reshape(words.shape + (words.dtype.itemsize,))
    return counts.sum(axis=-1, dtype=np.int64)


def popcount_gemm(a, b, op: str, backend: ArrayBackend | None = None):
    """``sum_w popc(a[..., m, w] OP b[..., n, w])`` for every (m, n).

    ``a``: (..., M, W) and ``b``: (..., N, W) packed words, same leading
    dims; ``op`` is ``"xor"`` or ``"and"`` (paper §III-D/E). Returns the
    (..., M, N) int32 counts, exact for K < 2**31.

    Like the tensor core's k-loop, each step combines one K word of every
    A row with one K word of every B row and adds the popcounts of that
    tile into an accumulator. On NumPy:

    * an even W is read as uint64 words (popcount is additive across
      words), halving the steps;
    * the operand with more rows runs along the tile rows, the contiguous
      inner loop; the other one is walked in blocks of rows, each block's
      tile kept within :data:`TILE_BYTES` so that tile, counts and
      accumulator stay in cache for the whole k-loop;
    * one tile, count and accumulator buffer serve every block of the
      call; the counts of up to ``255 // bits per word`` words are summed
      in uint8, then added into an accumulator that is uint16 while
      ``bits per word * W`` fits it (else int32) and is widened into the
      int32 result once per block;
    * the loop runs under a ufunc buffer of :data:`_UFUNC_BUFFER` elements:
      with NumPy's default buffer, a tile row shorter than the buffer
      makes every combine copy both broadcast operands into buffers.

    Other backends run uint32 words through ``be.popcount`` over the whole
    (..., M, N) tile and accumulate functionally, so immutable arrays work
    too.
    """
    be = get_backend(backend)
    xp = be.xp
    combine = {"xor": xp.bitwise_xor, "and": xp.bitwise_and}[op]
    if xp is np and _HAS_BITWISE_COUNT:
        return _popcount_gemm_blocked(np.asarray(a), np.asarray(b), combine)
    a_t, b_t = xp.moveaxis(a, -1, 0), xp.moveaxis(b, -1, 0)
    acc = xp.zeros(a_t.shape[1:] + b_t.shape[-1:], dtype=xp.int32)
    for w in range(a_t.shape[0]):
        acc = acc + be.popcount(combine(a_t[w][..., :, None], b_t[w][..., None, :]))
    return be.astype(acc, xp.int32)


#: byte budget of one NumPy k-loop tile (one block of rows against every
#: row of the other operand, in packed words).
TILE_BYTES = 512 * 1024

#: NumPy ufunc buffer, in elements, while the popcount k-loop runs.
_UFUNC_BUFFER = 512


def _popcount_gemm_blocked(a: np.ndarray, b: np.ndarray, combine) -> np.ndarray:
    """The NumPy k-loop of :func:`popcount_gemm`, blocked to :data:`TILE_BYTES`."""
    if a.shape[-1] % 2 == 0:
        a, b = np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    # popc(x OP y) is symmetric: the operand with more rows runs along the
    # tile, the other one is blocked. Word-major copies: step w reads one
    # contiguous (..., rows) slice of each.
    swap = b.shape[-2] > a.shape[-2]
    inner, outer = (b, a) if swap else (a, b)
    in_t, out_t = (np.ascontiguousarray(np.moveaxis(x, -1, 0)) for x in (inner, outer))
    words, n_out, bits = in_t.shape[0], out_t.shape[-1], 8 * in_t.itemsize
    group = np.iinfo(np.uint8).max // bits  # words whose counts one uint8 holds
    rows = max(1, min(n_out, TILE_BYTES // max(1, in_t[:1].nbytes)))
    shape = in_t.shape[1:-1] + (rows, in_t.shape[-1])
    acc_dtype = np.uint16 if bits * words <= np.iinfo(np.uint16).max else np.int32
    tile, acc = np.empty(shape, in_t.dtype), np.empty(shape, acc_dtype)
    counts, part = np.empty(shape, np.uint8), np.empty(shape, np.uint8)
    result = np.empty(shape[:-2] + (n_out, shape[-1]), dtype=np.int32)
    old_buffer = np.setbufsize(_UFUNC_BUFFER)
    try:
        for r0 in range(0, n_out, rows):
            t, c, g, s = (x[..., : min(rows, n_out - r0), :] for x in (tile, counts, part, acc))
            s[...] = 0
            for w in range(words):
                combine(out_t[w][..., r0 : r0 + rows, None], in_t[w][..., None, :], out=t)
                if w % group:
                    np.add(g, np.bitwise_count(t, out=c), out=g)
                else:
                    np.bitwise_count(t, out=g)
                if w % group == group - 1 or w == words - 1:
                    np.add(s, g, out=s)
            result[..., r0 : r0 + rows, :] = s
    finally:
        np.setbufsize(old_buffer)
    return result if swap else np.swapaxes(result, -1, -2)


def sign_to_bits(values, backend: ArrayBackend | None = None):
    """Map real values to the 1-bit encoding: >= 0 -> 1 (i.e. +1), < 0 -> 0 (-1).

    The paper quantizes by "only keeping the sign of the signal" (§V-A). The
    convention for exact zero follows the hardware comparison used in the
    CUDA packing kernel: ``x >= 0`` maps to binary one.
    """
    be = get_backend(backend)
    return (be.asarray(values) >= 0).astype(be.xp.uint8)


def bits_to_sign(bits, dtype=np.int8, backend: ArrayBackend | None = None):
    """Map the 1-bit encoding back to ±1 values (1 -> +1, 0 -> -1)."""
    be = get_backend(backend)
    bits = be.asarray(bits)
    return (bits.astype(be.xp.int8) * 2 - 1).astype(dtype)


def _pack_words_shift_or(grouped, xp):
    """Combine a (..., W, 32) {0,1} array into (..., W) uint32 words.

    Pure shift-and-or: sample ``i`` of each 32-group contributes
    ``bit << (31 - i)``; the contributions occupy disjoint bit positions,
    so an integer sum equals the bitwise OR. Only universal ufuncs are
    used, which makes this path work on every backend — and on NumPy it
    produces words bit-identical to the historical packbits/view path.
    """
    shifts = xp.arange(PACK_WORD_BITS - 1, -1, -1, dtype=xp.uint32)
    contributions = grouped.astype(xp.uint32) << shifts
    return contributions.sum(axis=-1, dtype=xp.uint32)


def pack_bits(bits, axis: int = -1, backend: ArrayBackend | None = None):
    """Pack an array of {0,1} samples along ``axis`` into uint32 words.

    ``axis`` must have a length that is a multiple of 32; callers pad first
    (the GEMM layer pads with binary 0, i.e. decimal -1, per paper §III-D).
    The first sample of each 32-group becomes the most significant bit.
    """
    be = get_backend(backend)
    xp = be.xp
    bits = be.asarray(bits)
    axis = axis % bits.ndim
    n = bits.shape[axis]
    if n % PACK_WORD_BITS != 0:
        raise ShapeError(f"packed axis length {n} is not a multiple of {PACK_WORD_BITS}; pad first")
    moved = xp.moveaxis(bits, axis, -1)
    grouped = moved.reshape(moved.shape[:-1] + (n // PACK_WORD_BITS, PACK_WORD_BITS))
    if xp is np:
        # np.packbits packs 8 bits per byte MSB-first; view 4 consecutive
        # bytes as one big-endian uint32 so sample order matches bit
        # significance. Kept as the NumPy fast path (C loop, no 32x
        # temporary); numerically identical to the shift-and-or fallback.
        packed_bytes = np.packbits(grouped.astype(np.uint8), axis=-1, bitorder="big")
        words = packed_bytes.view(">u4")[..., 0].astype(np.uint32)
    else:
        words = _pack_words_shift_or(grouped, xp)
    return xp.moveaxis(words, -1, axis)


def unpack_bits(
    words, axis: int = -1, count: int | None = None, backend: ArrayBackend | None = None
):
    """Inverse of :func:`pack_bits`: expand uint32 words into {0,1} samples.

    ``count`` optionally trims the unpacked axis to the original (pre-padding)
    number of samples.
    """
    be = get_backend(backend)
    xp = be.xp
    words = be.asarray(words)
    if words.dtype != xp.uint32:
        raise ShapeError(f"unpack_bits expects uint32 words, got {words.dtype}")
    axis = axis % words.ndim
    moved = xp.moveaxis(words, axis, -1)
    if xp is np:
        as_bytes = moved[..., None].astype(">u4").view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=-1, bitorder="big")
    else:
        shifts = xp.arange(PACK_WORD_BITS - 1, -1, -1, dtype=xp.uint32)
        bits = ((moved[..., None] >> shifts) & xp.uint32(1)).astype(xp.uint8)
    flat = bits.reshape(moved.shape[:-1] + (moved.shape[-1] * PACK_WORD_BITS,))
    if count is not None:
        if count > flat.shape[-1]:
            raise ShapeError(f"count {count} exceeds unpacked length {flat.shape[-1]}")
        flat = flat[..., :count]
    return xp.moveaxis(flat, -1, axis)


def packed_length(n: int) -> int:
    """Number of uint32 words needed to store ``n`` 1-bit samples."""
    return -(-n // PACK_WORD_BITS)


def pad_to_words(bits, axis: int = -1, pad_bit: int = 0, backend: ArrayBackend | None = None):
    """Pad a {0,1} array along ``axis`` up to a multiple of 32 samples.

    The default ``pad_bit=0`` encodes decimal -1, matching the padding
    convention of the 1-bit GEMM (paper §III-D: "we set the padded region to
    binary 0, which corresponds to decimal -1").
    """
    be = get_backend(backend)
    xp = be.xp
    bits = be.asarray(bits)
    axis = axis % bits.ndim
    n = bits.shape[axis]
    target = packed_length(n) * PACK_WORD_BITS
    if target == n:
        return bits
    pad_width = [(0, 0)] * bits.ndim
    pad_width[axis] = (0, target - n)
    return xp.pad(bits, pad_width, constant_values=pad_bit)


# re-export for callers that resolve backends through this module
__all__ = [
    "PACK_WORD_BITS",
    "bits_to_sign",
    "numpy_backend",
    "pack_bits",
    "packed_length",
    "pad_to_words",
    "popcount",
    "popcount_gemm",
    "sign_to_bits",
    "unpack_bits",
]
