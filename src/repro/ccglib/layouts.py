"""Matrix layout conventions of the ccglib data path.

ccglib separates complex data into planar real/imaginary components
(paper §VI: kernels "require a transpose of the input data because the
complex data have to be separated into their real and imaginary
components, instead of the more usual interleaved storage format").

Host-side (user-facing) formats:

* ``interleaved``: ordinary NumPy ``complex64``/``complex128`` arrays, shape
  ``(batch, M, K)`` for A and ``(batch, K, N)`` for B;
* ``planar``: real arrays with a leading complex axis of length 2, shape
  ``(batch, 2, M, K)`` and ``(batch, 2, K, N)``.

Device-side the GEMM consumes planar data, with the B operand reordered
K-major by the transpose kernel (see :mod:`repro.ccglib.transpose`).

Every conversion accepts an optional :class:`~repro.backend.ArrayBackend`
and runs in that backend's namespace; the default is the NumPy reference,
bit-identical to the pre-backend implementation. The planar/interleaved
conversions are single fused vectorized expressions (one ``stack`` /
one complex combine), never per-element loops.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.errors import ShapeError

#: index of the real plane along the complex axis.
REAL = 0
#: index of the imaginary plane along the complex axis.
IMAG = 1


def _is_complex(array, xp) -> bool:
    """Complex-dtype test that never copies the array off its device."""
    return np.issubdtype(np.dtype(array.dtype), np.complexfloating)


def to_planar(array, dtype=None, backend: ArrayBackend | None = None):
    """Convert an interleaved complex array to planar layout.

    Input shape ``(..., R, C)`` complex; output shape ``(..., 2, R, C)``
    real with ``out[..., REAL, :, :]`` the real part. ``dtype`` optionally
    quantizes the planes (e.g. ``np.float16`` for the 16-bit data path).
    """
    be = get_backend(backend)
    xp = be.xp
    array = be.asarray(array)
    if not _is_complex(array, xp):
        raise ShapeError(f"to_planar expects a complex array, got {array.dtype}")
    planar = xp.stack([array.real, array.imag], axis=-3)
    if dtype is not None:
        planar = planar.astype(dtype)
    return planar


def to_interleaved(planar, backend: ArrayBackend | None = None):
    """Convert a planar array ``(..., 2, R, C)`` back to complex64/128."""
    be = get_backend(backend)
    xp = be.xp
    planar = be.asarray(planar)
    if planar.ndim < 3 or planar.shape[-3] != 2:
        raise ShapeError(
            f"planar array must have a complex axis of length 2 third-from-last, "
            f"got shape {planar.shape}"
        )
    out_dtype = xp.complex128 if planar.dtype == xp.float64 else xp.complex64
    imag_dtype = xp.float64 if out_dtype == xp.complex128 else xp.float32
    return (
        planar[..., REAL, :, :] + 1j * planar[..., IMAG, :, :].astype(imag_dtype)
    ).astype(out_dtype)


def ensure_batched(array, expected_ndim: int, backend: ArrayBackend | None = None):
    """Add a singleton batch axis if ``array`` is one batch item.

    Returns ``(batched_array, had_batch)`` so results can be un-batched.
    """
    be = get_backend(backend)
    array = be.asarray(array)
    if array.ndim == expected_ndim:
        return array, True
    if array.ndim == expected_ndim - 1:
        return array[None, ...], False
    raise ShapeError(
        f"expected {expected_ndim}D (batched) or {expected_ndim - 1}D array, "
        f"got {array.ndim}D with shape {array.shape}"
    )
