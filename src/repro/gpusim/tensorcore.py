"""Functional model of tensor-core matrix fragments.

Reproduces the *numerics* of the WMMA instructions ccglib issues:

* ``mma_f16``: D = A x B + C with float16 multiplicands and float32
  accumulation. Inputs are quantized to float16 exactly as the hardware
  sees them; products and the accumulation chain are kept in float32
  (tensor cores accumulate in full precision within a fragment).
* ``bmma_xor`` / ``bmma_and``: the 1-bit binary MMA. Per CUDA semantics
  the hardware computes ``D += popc(A op B)`` element-wise over the K
  dimension of packed 32-bit words; the arithmetic interpretation
  (``K - 2*popc`` for XOR, Eq. 4 of the paper) is applied by the kernel
  epilogue, not by the instruction. We mirror that split: these functions
  accumulate raw population counts.

Only the fragment shapes are architecture-dependent
(:meth:`~repro.gpusim.arch.ArchCapabilities.require_fragment`); the
arithmetic itself is identical across devices, which is what lets ccglib
hide CUDA/HIP differences behind one interface.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.arch import BitOp
from repro.util.bits import popcount_gemm


def quantize_f16(values: np.ndarray) -> np.ndarray:
    """Quantize values to float16 as loading into an fp16 fragment would."""
    return np.asarray(values).astype(np.float16)


def quantize_tf32(values: np.ndarray) -> np.ndarray:
    """Quantize float32 values to TensorFloat-32 (paper §VI).

    TF32 keeps the float32 exponent (same range) but only 10 mantissa bits;
    hardware rounds-to-nearest when loading fragments. Implemented by
    rounding away the low 13 mantissa bits of the IEEE-754 encoding.
    """
    v = np.ascontiguousarray(np.asarray(values, dtype=np.float32))
    bits = v.view(np.uint32)
    rounded = ((bits + np.uint32(0x1000)) & np.uint32(0xFFFFE000)).astype(np.uint32)
    return rounded.view(np.float32).reshape(v.shape)


def mma_tf32(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """TF32-multiply / float32-accumulate matrix product (experimental)."""
    a_t = quantize_tf32(a)
    b_t = quantize_tf32(b)
    if a_t.ndim != 2 or b_t.ndim != 2 or a_t.shape[1] != b_t.shape[0]:
        raise ShapeError(f"mma_tf32 shape mismatch: {a_t.shape} x {b_t.shape}")
    prod = a_t @ b_t
    if c is None:
        return prod
    if c.shape != prod.shape:
        raise ShapeError(f"accumulator shape {c.shape} != product shape {prod.shape}")
    return c.astype(np.float32) + prod


def mma_f16(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """Float16-multiply / float32-accumulate matrix product.

    ``a`` is (m, k), ``b`` is (k, n); both are cast to float16 first (no-op
    if already float16), then multiplied with float32 accumulation. ``c`` is
    the float32 accumulator to add into (a copy is returned; fragments are
    register values, not views).
    """
    a16 = quantize_f16(a)
    b16 = quantize_f16(b)
    if a16.ndim != 2 or b16.ndim != 2 or a16.shape[1] != b16.shape[0]:
        raise ShapeError(f"mma_f16 shape mismatch: {a16.shape} x {b16.shape}")
    prod = a16.astype(np.float32) @ b16.astype(np.float32)
    if c is None:
        return prod
    if c.shape != prod.shape:
        raise ShapeError(f"accumulator shape {c.shape} != product shape {prod.shape}")
    return c.astype(np.float32) + prod


def _bmma(a_words: np.ndarray, b_words: np.ndarray, op: BitOp) -> np.ndarray:
    """Popcount-accumulate over packed K words: out[i, j] = sum_w popc(a[i,w] OP b[j,w])."""
    a_words = np.asarray(a_words)
    b_words = np.asarray(b_words)
    if a_words.dtype != np.uint32 or b_words.dtype != np.uint32:
        raise ShapeError("binary MMA operates on packed uint32 words")
    if a_words.ndim != 2 or b_words.ndim != 2 or a_words.shape[1] != b_words.shape[1]:
        raise ShapeError(
            f"binary MMA shape mismatch: {a_words.shape} vs {b_words.shape} "
            "(expected (m, w) and (n, w))"
        )
    return popcount_gemm(a_words, b_words, op.value)


def bmma_xor(a_words: np.ndarray, b_words: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """1-bit MMA with XOR multiply: accumulates ``popc(A ^ B)`` (paper §III-D)."""
    out = _bmma(a_words, b_words, BitOp.XOR)
    return out if c is None else c + out


def bmma_and(a_words: np.ndarray, b_words: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """1-bit MMA with AND multiply: accumulates ``popc(A & B)`` (paper §III-E)."""
    out = _bmma(a_words, b_words, BitOp.AND)
    return out if c is None else c + out

