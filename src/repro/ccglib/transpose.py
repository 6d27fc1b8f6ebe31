"""Transpose/tiling kernel: host layout -> device GEMM layout.

"The matrix-matrix multiplication kernel requires that the input matrices
are tiled in device memory. This can be handled by ccglib through a
transpose kernel." (paper §III). The kernel also performs the planar
separation of complex components the MMA kernels expect (§VI), and — for
the B operand — the K-major reordering that turns a (K, N) matrix into
rows of N with K contiguous, so 1-bit packing can run along K.

The functional implementation is the K-major reorder, a pure reindexing
(a strided ``swapaxes`` view, materialized contiguously once); the device
tiling is a memory-layout detail the host GEMM does not need. The cost
model charges one read + one write of the matrix at DRAM bandwidth (the
paper: transpose is "bound by memory bandwidth"). The reorder accepts an
optional :class:`~repro.backend.ArrayBackend` and runs in its namespace.
"""

from __future__ import annotations

from repro.backend import ArrayBackend, get_backend
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import Bound, KernelCost


def _ascontiguous(array, xp):
    """Materialize a strided view contiguously (no-op where unsupported)."""
    if hasattr(xp, "ascontiguousarray"):
        return xp.ascontiguousarray(array)
    return array


def planar_to_kmajor(planar_kn, backend: ArrayBackend | None = None):
    """Reorder a planar B operand (..., 2, K, N) into K-major rows (..., 2, N, K).

    The GEMM and the 1-bit packing both consume B with K contiguous per
    output column; this is the "transpose" half of ccglib's transpose
    kernel. Accepts one matrix ``(2, K, N)`` or a batch ``(batch, 2, K,
    N)`` — the reorder is a strided view (``swapaxes``) over the last two
    axes either way, materialized contiguously once.
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

