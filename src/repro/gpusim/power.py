"""Device power model.

The paper measures GPU power through PMT (NVML on NVIDIA, rocm-smi on AMD)
while kernels run, and reports energy efficiency as TeraOps/J (§IV-A). We
model average kernel power as a linear mix of utilization terms::

    P = idle + tensor_w[prec] * u_tensor + memory_w * u_dram + shared_w * u_smem

where each ``u`` is the fraction of the corresponding resource's sustained
bandwidth actually consumed while the kernel runs. Coefficients per GPU are
fitted so that the tuned kernels of paper Table III land on the published
TOPs/J values (e.g. A100 float16: 173 TOPs/s at 0.8 TOPs/J implies ~216 W).

The shared-memory term is what creates the two-dimensional spread in the
auto-tuning scatter of Fig 2: configurations with redundant shared-memory
traffic draw more power at equal throughput and are therefore strictly less
energy efficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerError
from repro.gpusim.specs import GPUSpec


@dataclass(frozen=True)
class PowerSample:
    """Average power breakdown of one kernel execution."""

    total_w: float
    idle_w: float
    tensor_w: float
    memory_w: float
    shared_w: float


class PowerModel:
    """Evaluates the linear power model of a device."""

    def __init__(self, spec: GPUSpec):
        self._spec = spec

    def tensor_coefficient(self, precision: str) -> float:
        try:
            return self._spec.power.tensor_w[precision]
        except KeyError as exc:
            raise PowerError(f"{self._spec.name} has no power coefficient for {precision}") from exc

    def kernel_power(
        self,
        precision: str | None,
        tensor_utilization: float,
        dram_utilization: float,
        smem_utilization: float,
    ) -> PowerSample:
        """Average power of a kernel given its resource utilizations.

        Utilizations are clamped to [0, 1]; the total is additionally capped
        at the device TDP (real boards enforce a power limit).
        """
        ut = min(max(tensor_utilization, 0.0), 1.0)
        um = min(max(dram_utilization, 0.0), 1.0)
        us = min(max(smem_utilization, 0.0), 1.0)
        coeffs = self._spec.power
        tensor_term = self.tensor_coefficient(precision) * ut if precision else 0.0
        memory_term = coeffs.memory_w * um
        shared_term = coeffs.shared_w * us
        total = coeffs.idle_w + tensor_term + memory_term + shared_term
        if total > self._spec.tdp_w:
            # Power capping: scale dynamic terms down to the TDP envelope.
            scale = (self._spec.tdp_w - coeffs.idle_w) / max(total - coeffs.idle_w, 1e-12)
            tensor_term *= scale
            memory_term *= scale
            shared_term *= scale
            total = self._spec.tdp_w
        return PowerSample(
            total_w=total,
            idle_w=coeffs.idle_w,
            tensor_w=tensor_term,
            memory_w=memory_term,
            shared_w=shared_term,
        )
