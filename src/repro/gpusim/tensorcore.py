"""Functional model of tensor-core matrix fragments.

Reproduces the *numerics* of the WMMA instructions ccglib issues:

* ``mma_f16``: D = A x B + C with float16 multiplicands and float32
  accumulation. Inputs are quantized to float16 exactly as the hardware
  sees them; products and the accumulation chain are kept in float32
  (tensor cores accumulate in full precision within a fragment).
* ``mma_tf32``: the same with TensorFloat-32 multiplicands (paper §VI).

The 1-bit binary MMA's ``popc(A op B)`` k-loop is
:func:`repro.util.bits.popcount_gemm`, which
:mod:`repro.ccglib.bit_gemm` calls directly.

Only the fragment shapes are architecture-dependent
(:meth:`~repro.gpusim.arch.ArchCapabilities.require_fragment`); the
arithmetic itself is identical across devices, which is what lets ccglib
hide CUDA/HIP differences behind one interface.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


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

