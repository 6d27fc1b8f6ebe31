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
  :func:`complex_mma_tf32_batched`) — the production hot path, on any
  :class:`~repro.backend.ArrayBackend`. Each operand is planar
  (..., 2, rows, cols) or interleaved complex (..., rows, cols). Like the
  kernel, which loads each operand fragment into registers once and
  reuses it for all four MMAs, they round each operand to the precision's
  grid exactly once and negate that rounded Im(B) copy in step 3; an A
  rounded ahead of time (:func:`round_operand`, a :class:`RoundedPlanes`)
  is not rounded again. A ``scale`` makes the product that of A and
  ``b / scale``, and ``restore_scale`` multiplies the output by it again.

On NumPy the schedule walks the flattened leading (batch) dims in chunks
sized so that one chunk's working set fills about a fixed cache budget
(:func:`_chunk_items`, from the shapes alone). Each chunk goes straight
from the operands' own storage to its slice of the complex64 output: it
reads complex64 operands through a strided planar view, de-interleaves
its slices into a contiguous plane, divides B there by the scale,
rounds both into planar planes (float32 reaches the float16 grid through
integer ops instead of NumPy's element-at-a-time float16 cast), runs the
five steps through ``matmul(out=)``, adds steps 4/5 straight into the
interleaved output storage and multiplies that slice by the scale, while
all of it is in cache. Every plane lives in one workspace allocated per
call at one chunk's size, so a call allocates its output and that
workspace and makes no block-sized planar, normalized or rounded copy.
Other backends run each step as one functional batched ``matmul`` over
all leading dims after dividing the whole of B, so immutable arrays work
too.

Both tiers produce bit-identical float32 results on NumPy: a batched
``matmul`` equals the per-tile 2D ``matmul`` exactly (``einsum`` does not,
which is why the schedule uses ``matmul`` exclusively) and the divide,
the rounding and the restore are elementwise and bit for bit those of
``b / scale``, the float16 cast and ``out *= scale``, so neither batching
nor the chunk size changes a golden output.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import IMAG, REAL, to_planar
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
    _validate_shapes(
        a_planar.shape, b_planar.shape, None if c_planar is None else c_planar.shape
    )
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


def _validate_shapes(a_shape, b_shape, c_shape=None) -> None:
    """Check planar (..., 2, m, k) x (..., 2, k, n) [+ (..., 2, m, n)] shapes."""
    if len(a_shape) < 3 or a_shape[-3] != 2:
        raise ShapeError(f"A must be planar (..., 2, m, k), got {a_shape}")
    if len(b_shape) < 3 or b_shape[-3] != 2:
        raise ShapeError(f"B must be planar (..., 2, k, n), got {b_shape}")
    if a_shape[:-3] != b_shape[:-3]:
        raise ShapeError(
            f"batch mismatch: A has leading dims {a_shape[:-3]}, B has {b_shape[:-3]}"
        )
    if a_shape[-1] != b_shape[-2]:
        raise ShapeError(f"K mismatch: A has K={a_shape[-1]}, B has K={b_shape[-2]}")
    expected = a_shape[:-3] + (2, a_shape[-2], b_shape[-1])
    if c_shape is not None and c_shape != expected:
        raise ShapeError(f"c_planar must be {expected}, got {c_shape}")


class RoundedPlanes(NamedTuple):
    """An operand already rounded to one precision's input grid.

    ``planes`` is planar (..., 2, rows, cols) float32 on the grid of
    ``precision`` (``"float16"`` or ``"tf32"``). Passed as A to the batched
    schedule of that precision, it is used as it is, where any other
    operand is rounded on every call. Built by :func:`round_operand`.
    """

    planes: Any
    precision: str


#: float32 encodings bounding the float16 normal range [2**-14, 65520);
#: inside it, rounding to float16 only rounds the mantissa to 10 bits.
_F16_NORMAL_LO, _F16_NORMAL_HI = 0x38800000, 0x477FF000
_F16_SPAN = _F16_NORMAL_HI - _F16_NORMAL_LO

#: the integer rounding's operands as 0-d arrays, built once: a ufunc
#: takes a 0-d array about twice as fast as a NumPy scalar, and the tiny
#: chunks of the chunked schedule make that fixed cost matter.
_U32_13, _U32_1, _U32_HALF, _U32_KEEP, _U32_ABS, _U32_LO, _U32_TF32_HALF = (
    np.array(x, dtype=np.uint32)
    for x in (13, 1, 0xFFF, 0xFFFFE000, 0x7FFFFFFF, _F16_NORMAL_LO, 0x1000)
)
_F32_ZERO = np.array(0, dtype=np.float32)
_F32_NORMAL_MIN, _F32_MAX = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)


def _quantize_f16(values, be: ArrayBackend):
    """Round through float16 to float32, as an fp16 fragment load does."""
    return be.astype(be.astype(values, be.xp.float16), be.xp.float32)


def _round_f16_into(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values.astype(float16)`` into float32 ``out``, bit for bit.

    NumPy casts float16 one element at a time; inside the float16 normal
    range the same rounding is a round-half-to-even of the low 13 mantissa
    bits, a few vectorized integer ops on the float32 encoding (checked
    against the cast on every float32 in that range). Zeros, float16
    subnormals, overflow, infinities and NaN take the cast, and so do
    sources other than float32. ``values`` may be strided; ``out`` must be
    contiguous and must not overlap it.
    """
    if values.dtype != np.float32:
        out[...] = values.astype(np.float16)
        return
    bits, rounded = values.view(np.uint32), out.view(np.uint32)
    # Find the values outside the normal range first, with ``out`` as the
    # scratch; one reduction when nothing is rare (max raises on empty).
    np.bitwise_and(bits, _U32_ABS, out=rounded)
    rounded -= _U32_LO  # wraps around below the range
    rare = None
    if rounded.size and rounded.max() >= _F16_SPAN:
        rare = np.flatnonzero(rounded >= _F16_SPAN)
        cast = values.reshape(-1)[rare].astype(np.float16).astype(np.float32)
    np.right_shift(bits, _U32_13, out=rounded)
    rounded &= _U32_1  # mantissa lsb: ties round to even
    rounded += bits
    rounded += _U32_HALF
    rounded &= _U32_KEEP
    if rare is not None:
        out.reshape(-1)[rare] = cast


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


def _round_tf32_into(values: np.ndarray, out: np.ndarray) -> None:
    """:func:`quantize_tf32_backend` of ``values`` written into float32 ``out``."""
    if values.dtype != np.float32:
        np.copyto(out, values, casting="unsafe")
        values = out
    rounded = out.view(np.uint32)
    np.add(values.view(np.uint32), _U32_TF32_HALF, out=rounded)
    rounded &= _U32_KEEP


def _grid(precision: str):
    """The rounding pair of ``precision``: functional (any backend) and
    NumPy in-place. Looked up on every call, never cached."""
    if precision == "float16":
        return _quantize_f16, _round_f16_into
    if precision == "tf32":
        return quantize_tf32_backend, _round_tf32_into
    raise ValueError(f"no input grid for precision {precision!r}")


def _is_complex(operand) -> bool:
    return np.dtype(operand.dtype).kind == "c"


def _planar_shape(operand) -> tuple:
    """The planar (..., 2, rows, cols) shape of an operand in any accepted form."""
    if isinstance(operand, RoundedPlanes):
        return tuple(operand.planes.shape)
    shape = tuple(operand.shape)
    if _is_complex(operand) and len(shape) >= 2:
        return shape[:-2] + (2,) + shape[-2:]
    return shape


def _planar_items(operand, items: int) -> np.ndarray:
    """(items, 2, rows, cols) planar view of a NumPy operand.

    A complex64 operand is read in place through :func:`_planar_view`;
    other complex dtypes are split by :func:`~repro.ccglib.layouts.to_planar`
    (float64 planes for complex128).
    """
    if isinstance(operand, RoundedPlanes):
        operand = operand.planes
    if operand.dtype == np.complex64:
        rows, cols = operand.shape[-2:]
        return _planar_view(np.ascontiguousarray(operand).reshape((items, rows, cols)))
    if _is_complex(operand):
        operand = to_planar(operand)
    return operand.reshape((items,) + operand.shape[-3:])


def _planar_view(values: np.ndarray) -> np.ndarray:
    """Planar (..., 2, rows, cols) float32 view of C-contiguous complex64
    (..., rows, cols) storage: the planes are strided, nothing is copied."""
    return np.moveaxis(values.view(np.float32).reshape(values.shape + (2,)), -1, -3)


def round_operand(operand, precision: str, backend: ArrayBackend | None = None):
    """Round an operand to ``precision``'s input grid once, for reuse.

    ``operand`` is interleaved complex (..., rows, cols) or planar
    (..., 2, rows, cols); ``precision`` is ``"float16"`` or ``"tf32"``.
    Returns the :class:`RoundedPlanes` the batched schedule of that
    precision takes as A without rounding it again: the planes hold exactly
    the values a per-call A is rounded to, so the product is bit-identical.
    """
    be = get_backend(backend)
    quantize, round_into = _grid(precision)
    operand = be.asarray(operand)
    if be.xp is not np:
        return RoundedPlanes(quantize(_as_planar(operand, be), be), precision)
    shape = _planar_shape(operand)
    src = _planar_items(operand, math.prod(shape[:-3]))
    planes = np.empty(src.shape, dtype=np.float32)
    round_into(src, planes)
    return RoundedPlanes(planes.reshape(shape), precision)


#: Bytes one chunk of batch items should touch on the NumPy path: its
#: rounded A and B planes, three float32 accumulator and scratch planes
#: and its complex64 output slice (the plane an operand is de-interleaved
#: into is not counted). One core's L2 (2 MiB) on the Xeon host
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


def _divisor_inverse(b, scale):
    """``1 / scale`` in float32 when ``b / scale`` is NumPy's complex64
    divide by ``(scale, 0)`` with ``scale`` a positive normal float32;
    ``None`` otherwise (other dtypes, a complex scale, or a zero, negative,
    subnormal or overflowing one)."""
    if (
        b.dtype != np.complex64
        or np.iscomplexobj(scale)
        or np.result_type(b.dtype, scale) != np.complex64
    ):
        return None
    if not _F32_NORMAL_MIN <= float(scale) <= _F32_MAX:
        return None
    return np.array(np.float32(1) / np.float32(scale))  # 0-d: a faster ufunc operand


def _divided(src, values, scale, inv, tmp, scratch):
    """``values / scale`` as de-interleaved planes in ``tmp``.

    ``src`` is the planar view of the complex64 chunk ``values``. NumPy
    divides complex64 by ``(s, 0)``, ``s`` a positive normal float32, as
    ``((im * 0 + re) * (1/s), (im - re * 0) * (1/s))`` in float32, and the
    same ops here give the same bits for every result that is not NaN. Which
    NaN an add of two NaNs returns depends on the operand order of the loop
    NumPy runs, so a chunk whose quotient holds a NaN (its data hold an inf
    or a NaN) is divided again by the ufunc itself.
    """
    planes = tmp[: src.size].reshape(src.shape)
    np.copyto(planes, src)
    np.multiply(planes[:, ::-1], _F32_ZERO, out=scratch)  # (im * 0, re * 0)
    np.add(scratch[:, REAL], planes[:, REAL], out=planes[:, REAL])
    np.subtract(planes[:, IMAG], scratch[:, IMAG], out=planes[:, IMAG])
    np.multiply(planes, inv, out=planes)
    if np.isnan(planes.max()):
        np.copyto(planes, _planar_view(values / scale))
    return planes


def _load(src, out, tmp, round_into):
    """Round one chunk of a planar source into contiguous float32 ``out``.

    A strided float32 source (the planar view of complex64 storage) is
    first de-interleaved into ``tmp``, where the integer rounding reads it
    about five times faster.
    """
    if src.dtype == np.float32 and not src.flags.c_contiguous:
        tmp = tmp[: src.size].reshape(src.shape)
        np.copyto(tmp, src)
        src = tmp
    round_into(src, out)
    return out


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


def _batched_schedule(a, b, c_planar, precision, backend, scale, restore_scale):
    """The batched 5-step schedule on the grid of ``precision``.

    NumPy runs :func:`_chunked_schedule`; other backends run each step as
    one functional batched ``matmul`` over all leading dims, after dividing
    the whole of B by ``scale``. NumPy divides chunk by chunk when the
    divide is complex64 by a positive normal float32 scale, and over the
    whole block first (the same ufunc, then the cast) otherwise.
    """
    be = get_backend(backend)
    xp = be.xp
    quantize, round_into = _grid(precision)
    if isinstance(a, RoundedPlanes):
        if a.precision != precision:
            raise ShapeError(f"A is rounded to {a.precision}, this schedule needs {precision}")
    else:
        a = be.asarray(a)
    b = be.asarray(b)
    c_planar = None if c_planar is None else be.asarray(c_planar)
    interleaved = _is_complex(b)
    _validate_shapes(
        _planar_shape(a), _planar_shape(b), None if c_planar is None else tuple(c_planar.shape)
    )
    inv = None
    if scale is not None:
        if not interleaved:
            raise ShapeError("a scale divides an interleaved complex B, got a planar one")
        inv = _divisor_inverse(b, scale) if xp is np else None
        if inv is None:
            b = be.astype(b / scale, xp.complex64)
    restore = scale if restore_scale else None
    if xp is np:
        out = _chunked_schedule(a, b, c_planar, round_into, scale, inv, restore)
        if interleaved:
            return out
        # Planar (..., 2, m, n) view of the complex64 storage.
        return np.moveaxis(out.view(np.float32).reshape(out.shape + (2,)), -1, -3)
    # One fragment load per operand, reused by all four products.
    a_q = a.planes if isinstance(a, RoundedPlanes) else quantize(_as_planar(a, be), be)
    b_q = quantize(_as_planar(b, be), be)
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
    if not interleaved:
        return xp.stack([c_re, c_im], axis=-3)
    out = be.astype(c_re + 1j * c_im, xp.complex64)
    if restore is not None:
        out *= restore  # fresh output: in place (immutable backends rebind)
    return out


def _as_planar(operand, be: ArrayBackend):
    return to_planar(operand, backend=be) if _is_complex(operand) else operand


def _chunked_schedule(a, b, c_planar, round_into, scale, inv, restore):
    """The NumPy schedule, one cache-sized chunk of batch items at a time.

    Each chunk of the flattened batch axis goes from the operands' own
    storage to its slice of the complex64 output: it de-interleaves its A
    and B slices (complex64 storage is read through a strided view),
    divides B by ``scale`` when given its float32 inverse ``inv``, rounds both
    into planar planes, runs steps 1 and 2 into two accumulator planes and
    a scratch plane, adds steps 4 and 5 straight into its output slice and
    multiplies that slice by ``restore``, while all of it is still in cache.
    A :class:`RoundedPlanes` A is read as it is. The planes live in one
    workspace allocated per call at one chunk's size. ``matmul`` runs one
    sgemm per batch item whatever the chunking, and the divide, the
    rounding and the restore are elementwise, so the result does not
    depend on the chunk size.
    """
    a_shape = _planar_shape(a)
    lead = a_shape[:-3]
    m, k, n = a_shape[-2], a_shape[-1], _planar_shape(b)[-1]
    items = math.prod(lead)
    a_ready = isinstance(a, RoundedPlanes)
    a_items = _planar_items(a, items)
    if inv is None:
        b_items = _planar_items(b, items)
    else:
        b_values = np.ascontiguousarray(b).reshape((items, k, n))
        b_items = _planar_view(b_values)
    c_items = None if c_planar is None else c_planar.reshape((items, 2, m, n))
    step = _chunk_items(items, m, k, n)
    rows = min(step, items)
    # One workspace: A's and B's planes, the accumulator and scratch planes
    # and the de-interleaved source of the operand being rounded.
    a_len = 0 if a_ready else rows * 2 * m * k
    b_len, c_len = rows * 2 * k * n, rows * m * n
    work = np.empty(a_len + b_len + 3 * c_len + max(a_len, b_len), dtype=np.float32)
    a_ws = None if a_ready else work[:a_len].reshape((rows, 2, m, k))
    b_ws = work[a_len : a_len + b_len].reshape((rows, 2, k, n))
    accumulators = work[a_len + b_len : a_len + b_len + 3 * c_len].reshape((3, rows, m, n))
    tmp = work[a_len + b_len + 3 * c_len :]
    out = np.empty((items, m, n), dtype=np.complex64)
    planes = out.view(np.float32).reshape((items, m, n, 2))
    for start in range(0, items, step):
        chunk = slice(start, start + step)
        count = min(step, items - start)
        # One fragment load per operand, reused by all four products.
        if a_ready:
            a_q = a_items[chunk]
        else:
            a_q = _load(a_items[chunk], a_ws[:count], tmp, round_into)
        b_src = b_items[chunk]
        if inv is not None:
            b_src = _divided(b_src, b_values[chunk], scale, inv, tmp, b_ws[:count])
        b_q = _load(b_src, b_ws[:count], tmp, round_into)
        acc_re, acc_im, scratch = accumulators[:, :count]
        a_re, a_im = a_q[:, REAL], a_q[:, IMAG]
        b_re, b_im = b_q[:, REAL], b_q[:, IMAG]
        c_re = c_im = None
        if c_items is not None:
            c_q = np.asarray(c_items[chunk], dtype=np.float32)
            c_re, c_im = c_q[:, REAL], c_q[:, IMAG]
        re, im = planes[chunk, ..., REAL], planes[chunk, ..., IMAG]
        _mma_step(a_re, b_re, c_re, None, acc_re, scratch)  # step 1
        _mma_step(a_re, b_im, c_im, None, acc_im, scratch)  # step 2
        np.negative(b_im, out=b_im)                         # step 3
        _mma_step(a_im, b_im, acc_re, None, re, scratch)    # step 4
        _mma_step(a_im, b_re, acc_im, None, im, scratch)    # step 5
        if restore is not None:
            np.multiply(out[chunk], restore, out=out[chunk])
    return out.reshape(lead + (m, n))


def complex_mma_f16_batched(
    a,
    b,
    c_planar=None,
    backend: ArrayBackend | None = None,
    *,
    scale=None,
    restore_scale: bool = False,
):
    """Batched 5-step complex MMA: (..., m, k) x (..., k, n) -> (..., m, n).

    Executes the identical schedule as :func:`complex_mma_f16` — operands
    rounded through float16 once, four float32-accumulated products with
    the Im(B) register negation — with each step a batched ``matmul`` over
    the leading dims (on NumPy, one cache-sized chunk of them at a time):
    the vectorized hot path of the float16 GEMM.

    Each operand is planar real (..., 2, rows, cols) or interleaved complex
    (..., rows, cols); A may also be a :class:`RoundedPlanes` from
    :func:`round_operand`, which is not rounded again. ``c_planar`` is an
    optional (..., 2, m, n) accumulator. With an interleaved B the result
    is interleaved complex64 (..., m, n), otherwise planar float32
    (..., 2, m, n) (on NumPy a view of complex64 storage); either way a
    fresh array. ``scale`` (interleaved B only) computes the product of A
    and ``b / scale`` cast to complex64, and ``restore_scale`` multiplies
    the complex64 output by ``scale`` again, bit for bit as those two
    whole-array expressions would.
    """
    return _batched_schedule(a, b, c_planar, "float16", backend, scale, restore_scale)


def complex_mma_tf32_batched(
    a,
    b,
    c_planar=None,
    backend: ArrayBackend | None = None,
    *,
    scale=None,
    restore_scale: bool = False,
):
    """Batched 5-step schedule with TensorFloat-32 fragments (experimental §VI).

    Same operands, options and result layout as
    :func:`complex_mma_f16_batched`; only the rounding differs.
    """
    return _batched_schedule(a, b, c_planar, "tf32", backend, scale, restore_scale)
