"""Multi-stage shared-memory pipeline model (paper §III-C).

On NVIDIA Ampere and later, ccglib overlaps tensor-core computation with
asynchronous global->shared copies through a multi-stage buffer: "While data
is being copied to one buffer, another buffer can be copied to the register
file and used for computations." The number of buffers is a tuning
parameter; it is "automatically set to one on AMD GPUs, which do not support
these asynchronous copies" — AMD instead hides latency through wavefront
occupancy.

Here the buffer is modelled by :func:`overlap_factor`, the analytic
overlap efficiency used by the kernel performance model. float16 stages are
kilobytes-large, so two stages cover DRAM latency and deeper pipelines only
add shared-memory pressure and synchronization cost; int1 stages are tiny (a
128+64-tile stage is ~12 KiB even at K-chunk 256), so deeper pipelines keep
winning — this is why Table III tunes A100 int1 to 4 buffers but all float16
kernels to 2.
"""

from __future__ import annotations

from repro.ccglib.precision import Precision
from repro.errors import KernelConfigError
from repro.gpusim.arch import ArchCapabilities

#: overlap efficiency by (precision family, num_buffers) on NVIDIA.
_NVIDIA_OVERLAP: dict[Precision, dict[int, float]] = {
    Precision.FLOAT16: {1: 0.70, 2: 0.93, 3: 0.92, 4: 0.90},
    Precision.TF32: {1: 0.70, 2: 0.93, 3: 0.92, 4: 0.90},
    Precision.INT1: {1: 0.65, 2: 0.90, 3: 0.92, 4: 0.93},
}

#: AMD: no async copies; overlap comes from occupancy (modelled separately
#: by the occupancy factor), leaving a constant issue-efficiency here.
_AMD_OVERLAP = 0.92


def overlap_factor(caps: ArchCapabilities, precision: Precision, num_buffers: int) -> float:
    """Fraction of ideal MMA issue rate achieved by the copy/compute overlap."""
    if num_buffers < 1:
        raise KernelConfigError(f"num_buffers must be >= 1, got {num_buffers}")
    if not caps.async_copies:
        if num_buffers != 1:
            raise KernelConfigError(
                f"{caps.arch.value}: multi-stage buffers require asynchronous "
                "copies; num_buffers is fixed to 1 on AMD GPUs"
            )
        return _AMD_OVERLAP
    table = _NVIDIA_OVERLAP[precision]
    return table[min(num_buffers, max(table))]
