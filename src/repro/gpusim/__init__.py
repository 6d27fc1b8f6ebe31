"""Simulated GPU substrate: architectures, device catalog, execution models.

This package is the documented substitution for the physical GPUs of the
paper's evaluation (see the README's introduction and subsystem map). It
provides:

* :mod:`~repro.gpusim.arch` — architecture capability tables (fragment
  layouts, 1-bit support, async copies, WMMA interface factors);
* :mod:`~repro.gpusim.specs` — the seven-device catalog (AD4000, A100,
  GH200, W7700, MI210, MI300X, MI300A) with Table-I-calibrated clocks;
* :mod:`~repro.gpusim.tensorcore` — bit-exact functional fragment MMA;
* :mod:`~repro.gpusim.device` — a device: its spec, functional or dry-run
  execution mode, and power model;
* the power and timing models consumed by the ccglib kernels.
"""

from repro.gpusim.arch import (
    Architecture,
    ArchCapabilities,
    BitOp,
    FragmentShape,
    Vendor,
    capabilities,
    FRAG_FLOAT16_16x16x16,
    FRAG_INT1_8x8x128,
    FRAG_INT1_16x8x256,
)
from repro.gpusim.specs import (
    GPUSpec,
    GPU_CATALOG,
    INT1_GPUS,
    get_spec,
    AD4000,
    A100,
    GH200,
    W7700,
    MI210,
    MI300X,
    MI300A,
)
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.timing import KernelCost, Bound, combine_costs

__all__ = [
    "Architecture",
    "ArchCapabilities",
    "BitOp",
    "FragmentShape",
    "Vendor",
    "capabilities",
    "FRAG_FLOAT16_16x16x16",
    "FRAG_INT1_8x8x128",
    "FRAG_INT1_16x8x256",
    "GPUSpec",
    "GPU_CATALOG",
    "INT1_GPUS",
    "get_spec",
    "AD4000",
    "A100",
    "GH200",
    "W7700",
    "MI210",
    "MI300X",
    "MI300A",
    "Device",
    "ExecutionMode",
    "KernelCost",
    "Bound",
    "combine_costs",
]
