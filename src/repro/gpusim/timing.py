"""Kernel cost records produced by the analytical timing model.

Every kernel launch on a simulated :class:`~repro.gpusim.device.Device`
yields a :class:`KernelCost` describing how long it ran, why (which resource
bound it), how much data it moved, and how much energy it consumed. The
benchmark harness, the auto-tuner's energy metrics (TOPs/J) and the
roofline analysis all consume these records instead of wall-clock time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Bound(enum.Enum):
    """The limiting resource of a kernel execution (roofline vocabulary)."""

    COMPUTE = "compute"
    MEMORY = "memory"
    SHARED = "shared"
    LAUNCH = "launch"


@dataclass(frozen=True)
class KernelCost:
    """Cost of one kernel launch on the simulated device.

    Attributes
    ----------
    name:
        Kernel identity, e.g. ``"gemm_float16"`` or ``"pack_bits"``.
    time_s:
        Predicted execution time in seconds.
    useful_ops:
        Application-level operations performed (the paper counts
        ``8 * M * N * K`` for a complex GEMM, §IV-A).
    issued_ops:
        Operations actually issued to the tensor pipes, including padding
        waste and instruction doubling (AND-mode int1 issues 2x, §III-E).
    dram_bytes:
        Bytes moved to/from device global memory.
    smem_bytes:
        Bytes moved through shared memory / LDS.
    bound:
        Which resource limited the execution time.
    power_w:
        Average power draw during the kernel.
    energy_j:
        ``power_w * time_s``.
    detail:
        Free-form numbers for reports (component times, utilizations...).
    """

    name: str
    time_s: float
    useful_ops: float
    issued_ops: float
    dram_bytes: float
    smem_bytes: float
    bound: Bound
    power_w: float
    energy_j: float
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        """Useful-operation throughput (the paper's TOPs/s metric)."""
        return self.useful_ops / self.time_s if self.time_s > 0 else 0.0

    @property
    def ops_per_joule(self) -> float:
        """Energy efficiency (the paper's TOPs/J metric)."""
        return self.useful_ops / self.energy_j if self.energy_j > 0 else 0.0

    @property
    def arithmetic_intensity(self) -> float:
        """Useful ops per DRAM byte — x-axis of the paper's Fig 3."""
        return self.useful_ops / self.dram_bytes if self.dram_bytes > 0 else float("inf")


def combine_costs(name: str, costs: list[KernelCost]) -> KernelCost:
    """Aggregate sequentially executed kernel costs into one record.

    Time and energy add; throughput is recomputed from the totals; the bound
    is taken from the component that contributed the most time.
    """
    if not costs:
        raise ValueError("combine_costs needs at least one cost")
    time_s = sum(c.time_s for c in costs)
    energy = sum(c.energy_j for c in costs)
    dominant = max(costs, key=lambda c: c.time_s)
    return KernelCost(
        name=name,
        time_s=time_s,
        useful_ops=sum(c.useful_ops for c in costs),
        issued_ops=sum(c.issued_ops for c in costs),
        dram_bytes=sum(c.dram_bytes for c in costs),
        smem_bytes=sum(c.smem_bytes for c in costs),
        bound=dominant.bound,
        power_w=energy / time_s if time_s > 0 else 0.0,
        energy_j=energy,
        detail={"n_kernels": float(len(costs))},
    )
