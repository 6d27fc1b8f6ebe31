"""Simulated device global memory: buffers, allocation tracking, transfers.

Functional mode stores real NumPy arrays in :class:`DeviceBuffer` objects so
kernels can compute on them; dry-run mode allocates metadata only (shape,
dtype, nbytes) so paper-scale problems don't exhaust host RAM. Both modes
share allocation accounting, which lets tests assert that e.g. the ultrasound
pipeline fits in a 40 GB A100 before attempting a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryError_, ShapeError
from repro.gpusim.specs import GPUSpec


@dataclass
class DeviceBuffer:
    """A device-resident array.

    ``data`` is a real ndarray in functional mode and ``None`` in dry-run
    mode; ``shape``/``dtype``/``nbytes`` are always valid.
    """

    shape: tuple[int, ...]
    dtype: np.dtype
    nbytes: int
    data: np.ndarray | None = None
    label: str = ""


class MemoryPool:
    """Tracks allocations against the device's memory capacity."""

    def __init__(self, spec: GPUSpec):
        self._spec = spec
        self._allocated = 0
        self._buffers: list[DeviceBuffer] = []

    @property
    def capacity_bytes(self) -> int:
        return self._spec.mem_bytes

    def allocate(
        self,
        shape: tuple[int, ...],
        dtype,
        *,
        materialize: bool,
        label: str = "",
        fill: float | None = None,
    ) -> DeviceBuffer:
        """Allocate a buffer; raises :class:`MemoryError_` when over capacity."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes < 0:
            raise ShapeError(f"invalid allocation shape {shape}")
        if self._allocated + nbytes > self.capacity_bytes:
            raise MemoryError_(
                f"{self._spec.name}: allocation of {nbytes} bytes exceeds device "
                f"memory ({self._allocated} of {self.capacity_bytes} in use)"
            )
        data = None
        if materialize:
            data = (
                np.zeros(shape, dtype=dtype)
                if fill is None
                else np.full(shape, fill, dtype=dtype)
            )
        buf = DeviceBuffer(shape=tuple(shape), dtype=dtype, nbytes=nbytes, data=data, label=label)
        self._allocated += nbytes
        self._buffers.append(buf)
        return buf

    def upload(self, host_array: np.ndarray, *, materialize: bool, label: str = "") -> DeviceBuffer:
        """Copy a host array to the device (functional) or register its
        shape/dtype (dry-run)."""
        buf = self.allocate(
            host_array.shape, host_array.dtype, materialize=materialize, label=label
        )
        if materialize:
            np.copyto(buf.data, host_array)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release a buffer's accounting; idempotent."""
        if buf in self._buffers:
            self._buffers.remove(buf)
            self._allocated -= buf.nbytes
            buf.data = None
