"""Complex matrix multiplication on real-valued tensor-core MMAs.

Tensor cores only execute real-valued matrix products and only provide
accumulation (no subtraction). The paper (§III-B) therefore decomposes one
complex GEMM into four real MMAs plus a register-level negation of the
imaginary part of B::

    1) Re(C) += Re(A) Re(B)
    2) Im(C) += Re(A) Im(B)
    3) Im(B)  = -Im(B)          (in registers; global data untouched)
    4) Re(C) += Im(A) Im(B)     (now the negated copy)
    5) Im(C) += Im(A) Re(B)

This module implements that exact 5-step schedule functionally so tests can
verify it against a straightforward complex reference, including the
float16 (or TF32) quantization the hardware applies to the inputs.

Two tiers of entry point exist:

* the single-tile functions (:func:`complex_mma_f16`,
  :func:`complex_mma_tf32`) — NumPy-only, one (2, m, k) tile at a time on
  the fragment model of :mod:`repro.gpusim.tensorcore`, mirroring one
  warp's fragment schedule;
* the batched functions (:func:`complex_mma_f16_batched`,
  :func:`complex_mma_tf32_batched`) — the production hot path over
  (..., 2, m, k) operands, on any :class:`~repro.backend.ArrayBackend`.
  Like the kernel, which loads each operand fragment into registers once
  and reuses it for all four MMAs, they round each operand through the
  precision's quantizer to float32 exactly once and negate that quantized
  Im(B) copy in step 3. On NumPy the schedule walks the flattened leading
  (batch) dims in chunks sized so that one chunk's quantized operands,
  two accumulator planes, a scratch plane and its output slice fill about
  a fixed cache budget (:func:`_chunk_items`, from the shapes alone); each
  chunk runs all five steps through ``matmul(out=)`` into planes
  allocated once per call, and steps 4/5 add straight into the chunk's
  slice of the interleaved storage of a complex64 array. A call thus
  allocates its output once, casts no operand twice, needs no separate
  interleaving pass, and keeps a chunk in cache across all four products
  instead of streaming whole-batch planes through memory between steps
  (at the ``lofar-f16`` benchmark shape that streaming cost about a third
  of the call). float32 operands reach the float16 grid through integer
  ops instead of NumPy's element-at-a-time float16 cast. Other backends
  run each step as one functional batched ``matmul`` over all leading
  dims, so immutable arrays work too.

Both tiers produce bit-identical float32 results on NumPy: a batched
``matmul`` equals the per-tile 2D ``matmul`` exactly (``einsum`` does not,
which is why the schedule uses ``matmul`` exclusively) and the quantizers
are elementwise, so neither batching nor the chunk size changes a golden
output.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import IMAG, REAL
from repro.errors import ShapeError
from repro.gpusim.tensorcore import mma_f16, mma_tf32, quantize_f16, quantize_tf32


def complex_mma_f16(
    a_planar: np.ndarray,
    b_planar: np.ndarray,
    c_planar: np.ndarray | None = None,
) -> np.ndarray:
    """One complex tile product via the paper's 5-step decomposition.

    ``a_planar``: (2, m, k) float-like; ``b_planar``: (2, k, n);
    ``c_planar``: optional (2, m, n) float32 accumulator. Returns the
    accumulated (2, m, n) float32 planar result.

    The negation of Im(B) happens on the float16-quantized register copy,
    exactly like the kernel does — float16 negation is exact, so steps 3+4
    equal a true subtraction of ``Im(A) Im(B)``.
    """
    return _tile_schedule(a_planar, b_planar, c_planar, quantize_f16, mma_f16)


def complex_mma_tf32(
    a_planar: np.ndarray,
    b_planar: np.ndarray,
    c_planar: np.ndarray | None = None,
) -> np.ndarray:
    """The 5-step schedule with TensorFloat-32 fragments (experimental §VI).

    Same structure as :func:`complex_mma_f16`; the inputs keep float32
    range with 10-bit mantissas.
    """
    return _tile_schedule(a_planar, b_planar, c_planar, quantize_tf32, mma_tf32)


def _tile_schedule(a_planar, b_planar, c_planar, quantize, mma) -> np.ndarray:
    """The single-tile schedule; ``quantize``/``mma`` pick the precision."""
    if a_planar.ndim != 3:
        raise ShapeError(f"a_planar must be (2, m, k), got {a_planar.shape}")
    if b_planar.ndim != 3:
        raise ShapeError(f"b_planar must be (2, k, n), got {b_planar.shape}")
    _validate_batched_planar(a_planar, b_planar, c_planar)
    a_re, a_im = quantize(a_planar[REAL]), quantize(a_planar[IMAG])
    b_re, b_im = quantize(b_planar[REAL]), quantize(b_planar[IMAG])
    if c_planar is None:
        c_re = np.zeros((a_re.shape[0], b_re.shape[1]), dtype=np.float32)
        c_im = np.zeros_like(c_re)
    else:
        c_re = c_planar[REAL].astype(np.float32)
        c_im = c_planar[IMAG].astype(np.float32)

    c_re = mma(a_re, b_re, c_re)        # step 1
    c_im = mma(a_re, b_im, c_im)        # step 2
    b_im_neg = -b_im                    # step 3 (registers only)
    c_re = mma(a_im, b_im_neg, c_re)    # step 4
    c_im = mma(a_im, b_re, c_im)        # step 5
    return np.stack([c_re, c_im])


def complex_mma_f16_naive(
    a_planar: np.ndarray,
    b_planar: np.ndarray,
) -> np.ndarray:
    """Baseline decomposition without the register negation trick.

    Computes the four partial products into *separate* accumulators and
    combines them afterwards with a subtraction on the regular cores. This
    needs the same four MMAs but an extra full-size combine pass (2*m*n
    reads + m*n subtract/add), which is what the in-register negation
    avoids. Kept as the independent reference the fused schedule is tested
    against; :mod:`repro.bench.ablations` prices the combine pass
    analytically and never calls it.
    """
    a_re = quantize_f16(a_planar[REAL])
    a_im = quantize_f16(a_planar[IMAG])
    b_re = quantize_f16(b_planar[REAL])
    b_im = quantize_f16(b_planar[IMAG])
    rr = mma_f16(a_re, b_re)
    ii = mma_f16(a_im, b_im)
    ri = mma_f16(a_re, b_im)
    ir = mma_f16(a_im, b_re)
    return np.stack([rr - ii, ri + ir])


def reference_complex_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full-precision complex reference for accuracy checks (complex128)."""
    return np.asarray(a, dtype=np.complex128) @ np.asarray(b, dtype=np.complex128)


def _validate_batched_planar(a_planar, b_planar, c_planar=None) -> None:
    if a_planar.ndim < 3 or a_planar.shape[-3] != 2:
        raise ShapeError(f"a_planar must be (..., 2, m, k), got {a_planar.shape}")
    if b_planar.ndim < 3 or b_planar.shape[-3] != 2:
        raise ShapeError(f"b_planar must be (..., 2, k, n), got {b_planar.shape}")
    if a_planar.shape[:-3] != b_planar.shape[:-3]:
        raise ShapeError(
            f"batch mismatch: A has leading dims {a_planar.shape[:-3]}, "
            f"B has {b_planar.shape[:-3]}"
        )
    if a_planar.shape[-1] != b_planar.shape[-2]:
        raise ShapeError(f"K mismatch: A has K={a_planar.shape[-1]}, B has K={b_planar.shape[-2]}")
    expected = a_planar.shape[:-3] + (2, a_planar.shape[-2], b_planar.shape[-1])
    if c_planar is not None and tuple(c_planar.shape) != expected:
        raise ShapeError(f"c_planar must be {expected}, got {c_planar.shape}")


#: float32 encodings bounding the float16 normal range [2**-14, 65520);
#: inside it, rounding to float16 only rounds the mantissa to 10 bits.
_F16_NORMAL_LO, _F16_NORMAL_HI = np.uint32(0x38800000), np.uint32(0x477FF000)


def _quantize_f16(values, be: ArrayBackend):
    """Round through float16 to float32, as an fp16 fragment load does."""
    if be.xp is np and values.dtype == np.float32:
        return _round_f32_to_f16(values)
    return be.astype(be.astype(values, be.xp.float16), be.xp.float32)


def _round_f32_to_f16(values: np.ndarray) -> np.ndarray:
    """``values.astype(float16).astype(float32)`` bit for bit, in integer ops.

    NumPy casts float16 one element at a time; inside the float16 normal
    range the same rounding is a round-half-to-even of the low 13 mantissa
    bits, a few vectorized integer ops on the float32 encoding (checked
    against the cast on every float32 in that range). Zeros, float16
    subnormals, overflow, infinities and NaN take the cast.
    """
    values = np.ascontiguousarray(values)
    bits = values.view(np.uint32)
    out = bits >> np.uint32(13)
    out &= np.uint32(1)  # mantissa lsb: ties round to even
    out += bits
    out += np.uint32(0xFFF)
    out &= np.uint32(0xFFFFE000)
    offset = bits & np.uint32(0x7FFFFFFF)
    offset -= _F16_NORMAL_LO  # wraps around below the range
    rare = np.flatnonzero(offset >= _F16_NORMAL_HI - _F16_NORMAL_LO)
    if rare.size:
        cast = values.reshape(-1)[rare].astype(np.float16).astype(np.float32)
        out.reshape(-1)[rare] = cast.view(np.uint32)
    return out.view(np.float32)


def quantize_tf32_backend(values, backend: ArrayBackend | None = None):
    """Backend-generic TensorFloat-32 quantization (round to 10 mantissa bits).

    Same arithmetic as :func:`repro.gpusim.tensorcore.quantize_tf32` —
    round-to-nearest of the low 13 mantissa bits via the IEEE-754 encoding —
    expressed through the backend's :meth:`~repro.backend.ArrayBackend.bitcast`
    instead of a NumPy ``view`` so it runs on immutable/device arrays too.
    """
    be = get_backend(backend)
    xp = be.xp
    v = be.astype(be.asarray(values), xp.float32)
    bits = be.bitcast(v, xp.uint32)
    rounded = (bits + xp.uint32(0x1000)) & xp.uint32(0xFFFFE000)
    return be.bitcast(rounded, xp.float32)


#: Bytes one chunk of batch items should touch on the NumPy path: its
#: quantized A and B planes, three float32 accumulator and scratch planes
#: and its complex64 output slice. One core's L2 (2 MiB) on the Xeon host
#: where budgets of 1 to 4 MiB were swept (CHANGES.md); each chunk costs a
#: few dozen NumPy calls, so smaller budgets slow batches of small items.
_CHUNK_BYTES = 2 << 20


def _chunk_items(items: int, m: int, k: int, n: int) -> int:
    """Batch items per chunk of an ``items``-long batch of (m, k, n) products.

    ``fit`` items fill :data:`_CHUNK_BYTES` (at least one). The batch splits
    into the whole number of equal chunks nearest to ``items / fit``, so a
    batch a little over the budget stays one chunk rather than paying the
    per-chunk cost for a small ragged tail (measured 10% slower at
    batch x m x k x n = 64 x 32 x 32 x 32).
    """
    item_bytes = 4 * (2 * m * k + 2 * k * n + 3 * m * n + 2 * m * n)
    fit = max(1, _CHUNK_BYTES // max(item_bytes, 1))
    chunks = max(1, round(items / fit))
    return max(1, -(-items // chunks))


def _mma_step(a_q, b_q, c, be: ArrayBackend, out=None, scratch=None):
    """One schedule step: ``c + a_q @ b_q`` on float32 operands quantized once.

    ``c`` is the float32 accumulator, ``None`` for a fresh one (the step is
    then the bare product). Without ``out`` the step is functional and runs
    on any backend. NumPy callers pass ``out`` and ``scratch`` buffers and
    the step allocates nothing: the product lands in ``scratch`` through
    ``matmul(out=)`` — straight in ``out`` when there is nothing to add —
    and the sum is written into ``out``, which may be a strided view.
    """
    if out is None:
        prod = be.matmul(a_q, b_q)
        return prod if c is None else c + prod
    if c is None:
        return np.matmul(a_q, b_q, out=out)
    np.matmul(a_q, b_q, out=scratch)
    return np.add(c, scratch, out=out)


def _batched_schedule(a_planar, b_planar, c_planar, quantize, backend):
    """The batched 5-step schedule; ``quantize(values, be)`` picks the
    precision and must return a fresh float32 array.

    NumPy runs :func:`_chunked_schedule` over the flattened leading (batch)
    dims in equal chunks of :func:`_chunk_items` items, sized from the
    batch length and one item's working set of ``4 * (2mk + 2kn + 5mn)``
    bytes so that a chunk holds about :data:`_CHUNK_BYTES` (at least one
    item). Other backends run each step as one functional batched
    ``matmul`` over all leading dims.
    """
    be = get_backend(backend)
    xp = be.xp
    a_planar = be.asarray(a_planar)
    b_planar = be.asarray(b_planar)
    c_planar = None if c_planar is None else be.asarray(c_planar)
    _validate_batched_planar(a_planar, b_planar, c_planar)
    if xp is np:
        return _chunked_schedule(a_planar, b_planar, c_planar, quantize, be)
    # One fragment load per operand, reused by all four products.
    a_q, b_q = quantize(a_planar, be), quantize(b_planar, be)
    a_re, a_im = a_q[..., REAL, :, :], a_q[..., IMAG, :, :]
    b_re, b_im = b_q[..., REAL, :, :], b_q[..., IMAG, :, :]
    c_re = c_im = None
    if c_planar is not None:
        c_re = be.astype(c_planar[..., REAL, :, :], xp.float32)
        c_im = be.astype(c_planar[..., IMAG, :, :], xp.float32)
    c_re = _mma_step(a_re, b_re, c_re, be)  # step 1
    c_im = _mma_step(a_re, b_im, c_im, be)  # step 2
    b_im = -b_im                            # step 3
    c_re = _mma_step(a_im, b_im, c_re, be)  # step 4
    c_im = _mma_step(a_im, b_re, c_im, be)  # step 5
    return xp.stack([c_re, c_im], axis=-3)


def _chunked_schedule(a_planar, b_planar, c_planar, quantize, be: ArrayBackend):
    """The NumPy schedule, one cache-sized chunk of batch items at a time.

    Each chunk of the flattened batch axis quantizes its own A and B
    slices, runs steps 1 and 2 into two accumulator planes and a scratch
    plane (allocated once per call, one chunk in size) and adds steps 4
    and 5 straight into its slice of the interleaved complex64 output, so
    a chunk's operands stay in cache across all four products. ``matmul``
    runs one sgemm per batch item whatever the chunking, and the quantizer
    is elementwise, so the result does not depend on the chunk size.
    """
    lead = a_planar.shape[:-3]
    m, k, n = a_planar.shape[-2], a_planar.shape[-1], b_planar.shape[-1]
    items = math.prod(lead)
    a_items = a_planar.reshape((items, 2, m, k))
    b_items = b_planar.reshape((items, 2, k, n))
    c_items = None if c_planar is None else c_planar.reshape((items, 2, m, n))
    step = _chunk_items(items, m, k, n)
    # One fragment load per operand, reused by all four products. The first
    # chunk's operands are rounded before the output and the planes are
    # allocated: the other order measured about 8% slower on one-chunk
    # calls (batch x m x k x n = 1 x 2048 x 128 x 64).
    operands = quantize(a_items[:step], be), quantize(b_items[:step], be)
    out = np.empty((items, m, n), dtype=np.complex64)
    planes = out.view(np.float32).reshape((items, m, n, 2))
    buffers = np.empty((3, min(step, items), m, n), dtype=np.float32)
    for start in range(0, items, step):
        chunk = slice(start, start + step)
        if start:
            operands = quantize(a_items[chunk], be), quantize(b_items[chunk], be)
        a_q, b_q = operands
        acc_re, acc_im, scratch = buffers[:, : min(step, items - start)]
        a_re, a_im = a_q[:, REAL], a_q[:, IMAG]
        b_re, b_im = b_q[:, REAL], b_q[:, IMAG]
        c_re = c_im = None
        if c_items is not None:
            c_q = be.astype(c_items[chunk], np.float32)
            c_re, c_im = c_q[:, REAL], c_q[:, IMAG]
        re, im = planes[chunk, ..., REAL], planes[chunk, ..., IMAG]
        _mma_step(a_re, b_re, c_re, be, acc_re, scratch)  # step 1
        _mma_step(a_re, b_im, c_im, be, acc_im, scratch)  # step 2
        np.negative(b_im, out=b_im)                       # step 3
        _mma_step(a_im, b_im, acc_re, be, re, scratch)    # step 4
        _mma_step(a_im, b_re, acc_im, be, im, scratch)    # step 5
    # Planar (..., 2, m, n) view of the complex64 storage.
    return np.moveaxis(planes.reshape(lead + (m, n, 2)), -1, -3)


def complex_mma_f16_batched(
    a_planar,
    b_planar,
    c_planar=None,
    backend: ArrayBackend | None = None,
):
    """Batched 5-step complex MMA: (..., 2, m, k) x (..., 2, k, n) -> (..., 2, m, n).

    Executes the identical schedule as :func:`complex_mma_f16` — operands
    rounded through float16 once, four float32-accumulated products with
    the Im(B) register negation — with each step a batched ``matmul`` over
    the leading dims (on NumPy, one cache-sized chunk of them at a time):
    the vectorized hot path of the float16 GEMM. ``c_planar`` is an
    optional (..., 2, m, n) accumulator. The float32 result is a fresh
    array; on NumPy it is a planar view of interleaved complex64 storage.
    """
    return _batched_schedule(a_planar, b_planar, c_planar, _quantize_f16, backend)


def complex_mma_tf32_batched(
    a_planar,
    b_planar,
    c_planar=None,
    backend: ArrayBackend | None = None,
):
    """Batched 5-step schedule with TensorFloat-32 fragments (experimental §VI).

    Same schedule and result layout as :func:`complex_mma_f16_batched`;
    only the quantizer differs.
    """
    return _batched_schedule(a_planar, b_planar, c_planar, quantize_tf32_backend, backend)
