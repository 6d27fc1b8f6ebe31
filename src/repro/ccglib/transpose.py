"""Transpose/tiling kernel: host layout -> device GEMM layout.

"The matrix-matrix multiplication kernel requires that the input matrices
are tiled in device memory. This can be handled by ccglib through a
transpose kernel." (paper §III). The kernel also performs the planar
separation of complex components the MMA kernels expect (§VI), and — for
the B operand — the K-major reordering that turns a (K, N) matrix into
rows of N with K contiguous, so 1-bit packing can run along K.

The functional implementation is a pure reindexing (strided views:
reshape + swapaxes/moveaxis + pad, materialized contiguously once at the
end); the cost model charges one read + one write of the matrix at DRAM
bandwidth (the paper: transpose is "bound by memory bandwidth"). All
entry points accept an optional :class:`~repro.backend.ArrayBackend` and
run in its namespace; the NumPy default is bit-identical to the
pre-backend implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import Bound, KernelCost
from repro.util.validation import round_up


def _ascontiguous(array, xp):
    """Materialize a strided view contiguously (no-op where unsupported)."""
    if hasattr(xp, "ascontiguousarray"):
        return xp.ascontiguousarray(array)
    return array


@dataclass(frozen=True)
class TiledMatrix:
    """A matrix reorganized into block tiles for the MMA kernel.

    ``tiles`` has shape (2, r_tiles, c_tiles, tile_r, tile_c): planar
    complex, tile-row-major. ``rows``/``cols`` keep the valid (unpadded)
    extent so results can be cropped after the GEMM.
    """

    tiles: np.ndarray
    rows: int
    cols: int
    tile_r: int
    tile_c: int


def tile_planar(
    planar,
    tile_r: int,
    tile_c: int,
    pad_value: float = 0.0,
    backend: ArrayBackend | None = None,
) -> TiledMatrix:
    """Tile a planar (2, R, C) matrix into (2, rt, ct, tile_r, tile_c).

    Rows/cols are padded up to tile multiples with ``pad_value`` (zero for
    float16 — tensor cores can represent it; the 1-bit path pads *bits*
    separately because zero is unrepresentable there).
    """
    be = get_backend(backend)
    xp = be.xp
    planar = be.asarray(planar)
    if planar.ndim != 3 or planar.shape[0] != 2:
        raise ShapeError(f"expected planar (2, R, C), got {planar.shape}")
    _, r, c = planar.shape
    rp, cp = round_up(r, tile_r), round_up(c, tile_c)
    if (rp, cp) != (r, c):
        planar = xp.pad(planar, ((0, 0), (0, rp - r), (0, cp - c)), constant_values=pad_value)
    tiles = planar.reshape(2, rp // tile_r, tile_r, cp // tile_c, tile_c)
    tiles = tiles.transpose(0, 1, 3, 2, 4)
    return TiledMatrix(
        tiles=_ascontiguous(tiles, xp), rows=r, cols=c, tile_r=tile_r, tile_c=tile_c
    )


def untile_planar(tiled: TiledMatrix, backend: ArrayBackend | None = None):
    """Exact inverse of :func:`tile_planar`, cropped to the valid extent."""
    be = get_backend(backend)
    xp = be.xp
    t = be.asarray(tiled.tiles)
    _, rt, ct, tr, tc = t.shape
    planar = t.transpose(0, 1, 3, 2, 4).reshape(2, rt * tr, ct * tc)
    return _ascontiguous(planar[:, : tiled.rows, : tiled.cols], xp)


def planar_to_kmajor(planar_kn, backend: ArrayBackend | None = None):
    """Reorder a planar B operand (..., 2, K, N) into K-major rows (..., 2, N, K).

    The GEMM and the 1-bit packing both consume B with K contiguous per
    output column; this is the "transpose" half of ccglib's transpose
    kernel (the tiling half is :func:`tile_planar`). Accepts one matrix
    ``(2, K, N)`` or a batch ``(batch, 2, K, N)`` — the reorder is a
    strided view (``swapaxes``) over the last two axes either way,
    materialized contiguously once.
    """
    be = get_backend(backend)
    xp = be.xp
    planar_kn = be.asarray(planar_kn)
    if planar_kn.ndim < 3 or planar_kn.shape[-3] != 2:
        raise ShapeError(f"expected planar (..., 2, K, N), got {planar_kn.shape}")
    return _ascontiguous(xp.swapaxes(planar_kn, -1, -2), xp)


def transpose_cost(device: Device, n_values: int, bytes_per_value: float) -> KernelCost:
    """Analytic cost of a transpose/tiling kernel: read + write at DRAM BW."""
    spec = device.spec
    dram_bytes = 2.0 * n_values * bytes_per_value
    bw = spec.mem_bandwidth_bytes() * spec.mem_efficiency
    time_s = dram_bytes / bw + spec.kernel_launch_overhead_s
    power = device.power.kernel_power(
        precision=None,
        tensor_utilization=0.0,
        dram_utilization=min(1.0, (dram_bytes / max(time_s, 1e-12)) / spec.mem_bandwidth_bytes()),
        smem_utilization=0.15,
    )
    return KernelCost(
        name="transpose",
        time_s=time_s,
        useful_ops=float(n_values),
        issued_ops=float(n_values),
        dram_bytes=dram_bytes,
        smem_bytes=float(n_values) * bytes_per_value,
        bound=Bound.MEMORY,
        power_w=power.total_w,
        energy_j=power.total_w * time_s,
        detail={"n_values": float(n_values)},
    )


def run_transpose_kernel(
    device: Device,
    planar_kn,
    n_values: int,
    bytes_per_value: float,
    backend: ArrayBackend | None = None,
):
    """Execute the B-operand transpose on a device; returns ``(out, cost)``.

    Passing ``planar_kn=None`` returns the launch cost without producing
    output (cost-only accounting, used when a higher-level functional path
    performs the data movement itself); with values it also returns the
    transposed array on functional devices.
    """
    cost = transpose_cost(device, n_values, bytes_per_value)
    if device.is_functional and planar_kn is not None:
        return planar_to_kmajor(planar_kn, backend=backend), cost
    return None, cost
