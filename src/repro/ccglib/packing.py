"""Packing/unpacking kernels for the 1-bit data path.

"For 1-bit precision, the input data must be packed, i.e. 32 consecutive
1-bit samples must be stored in a single 32-bit integer. Packing and
unpacking kernels are provided to handle this. [They] are relatively
straightforward, and [...] bound by memory bandwidth as they only move data
around." (paper §III)

The functional implementation quantizes to the sign bit and packs along the
K axis; the cost model charges the kernel at the device's achievable memory
bandwidth, reading the full-precision input and writing the 32x smaller
packed output. Two functional implementations exist:

* :func:`pack_sign_planar` — the production path: fully vectorized
  (batched packbits on NumPy, shift-and-or word combine elsewhere), runs
  on any :class:`~repro.backend.ArrayBackend`;
* :func:`pack_sign_planar_scalar` — a deliberately scalar Python loop
  mirroring the per-thread CUDA packing kernel one word at a time. It is
  the readable specification of the bit layout and the baseline the
  ``backend-micro`` bench pins the vectorized path's speedup against.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import Bound, KernelCost
from repro.util.bits import (
    PACK_WORD_BITS,
    pack_bits,
    pad_to_words,
    sign_to_bits,
    unpack_bits,
)
from repro.util.validation import round_up


class PackDirection(enum.Enum):
    """Mirror of ccglib's packing API: forward packs, backward unpacks."""

    PACK = "pack"
    UNPACK = "unpack"


def _pad_k(bits, k_pad_to, xp):
    """Pad the last (K) axis with binary 0 (decimal -1) up to ``k_pad_to``."""
    if k_pad_to is not None:
        k = bits.shape[-1]
        if k_pad_to < k:
            raise ShapeError(f"k_pad_to {k_pad_to} smaller than K {k}")
        pad = [(0, 0)] * (bits.ndim - 1) + [(0, k_pad_to - k)]
        bits = xp.pad(bits, pad, constant_values=0)
    return bits


def pack_sign_planar(values_planar, k_pad_to: int | None = None, backend: ArrayBackend | None = None):
    """Quantize a planar real array to sign bits and pack the last axis.

    ``values_planar``: (..., K) real values; the sign is kept (>= 0 -> +1).
    ``k_pad_to`` optionally pads K up to a tensor-core fragment multiple
    *before* packing; padding bits are binary 0 (decimal -1) per §III-D.
    Output: (..., W) uint32 with ``W = padded_K / 32``.

    Fully vectorized on every backend; the NumPy path is bit-identical to
    the scalar reference :func:`pack_sign_planar_scalar`.
    """
    be = get_backend(backend)
    values_planar = be.asarray(values_planar)
    bits = sign_to_bits(values_planar, backend=be)
    bits = _pad_k(bits, k_pad_to, be.xp)
    bits = pad_to_words(bits, axis=-1, pad_bit=0, backend=be)
    return pack_bits(bits, axis=-1, backend=be)


def pack_sign_planar_scalar(
    values_planar: np.ndarray, k_pad_to: int | None = None
) -> np.ndarray:
    """Scalar reference for :func:`pack_sign_planar` (NumPy only).

    One Python iteration per output word, one shift-and-or per sample —
    a direct transliteration of the per-thread CUDA packing kernel, where
    each thread reads 32 consecutive samples and ballots them into one
    ``uint32``. Bit-for-bit identical to the vectorized path; kept as the
    executable specification of the bit layout (sample ``i`` -> bit
    ``31 - (i % 32)``) and as the baseline the ``backend-micro`` bench
    measures the vectorized speedup against. Never use it for real data.
    """
    values_planar = np.asarray(values_planar)
    bits = np.asarray(sign_to_bits(values_planar))
    bits = _pad_k(bits, k_pad_to, np)
    bits = np.asarray(pad_to_words(bits, axis=-1, pad_bit=0))
    rows = bits.reshape(-1, bits.shape[-1])
    n_words = bits.shape[-1] // PACK_WORD_BITS
    out = np.empty((rows.shape[0], n_words), dtype=np.uint32)
    for r in range(rows.shape[0]):
        for w in range(n_words):
            word = 0
            for i in range(PACK_WORD_BITS):
                word |= int(rows[r, w * PACK_WORD_BITS + i]) << (PACK_WORD_BITS - 1 - i)
            out[r, w] = word
    return out.reshape(bits.shape[:-1] + (n_words,))


def unpack_sign_planar(words, k_valid: int, backend: ArrayBackend | None = None):
    """Unpack packed sign words back to ±1 int8 values (inverse transport)."""
    be = get_backend(backend)
    bits = unpack_bits(words, axis=-1, count=k_valid, backend=be)
    return (bits.astype(be.xp.int8) * 2 - 1).astype(be.xp.int8)


def packing_cost(
    device: Device,
    n_values: int,
    input_bytes_per_value: float,
    direction: PackDirection = PackDirection.PACK,
) -> KernelCost:
    """Analytic cost of a packing/unpacking kernel launch.

    Pure data movement: reads ``n_values`` at the input element size and
    writes one bit per value (or vice versa for unpacking). Runs at the
    device's achievable DRAM bandwidth (paper: "bound by memory bandwidth").
    """
    spec = device.spec
    full_bytes = n_values * input_bytes_per_value
    packed_bytes = round_up(int(n_values), PACK_WORD_BITS) / 8.0
    dram_bytes = full_bytes + packed_bytes
    bw = spec.mem_bandwidth_bytes() * spec.mem_efficiency
    time_s = dram_bytes / bw + spec.kernel_launch_overhead_s
    power = device.power.kernel_power(
        precision=None,
        tensor_utilization=0.0,
        dram_utilization=min(1.0, (dram_bytes / max(time_s, 1e-12)) / spec.mem_bandwidth_bytes()),
        smem_utilization=0.0,
    )
    return KernelCost(
        name=f"{direction.value}_bits",
        time_s=time_s,
        useful_ops=float(n_values),
        issued_ops=float(n_values),
        dram_bytes=dram_bytes,
        smem_bytes=0.0,
        bound=Bound.MEMORY,
        power_w=power.total_w,
        energy_j=power.total_w * time_s,
        detail={"n_values": float(n_values)},
    )

