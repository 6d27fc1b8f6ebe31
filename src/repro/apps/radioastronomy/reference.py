"""Reference LOFAR beamformer on the normal (non-tensor) GPU cores.

The Fig 7 baseline: "This configuration is also run using the reference
LOFAR beamformer on an A100 GPU. It runs in float32 precision on the normal
GPU cores. Note that we have removed the calculation of beamformer weights
from the reference beamformer, to be able to fairly compare" (paper §V-B).
This models the Cobalt-style production kernel [12].

Functionally it computes the identical weighted sum in complex64 (so tests
can compare TCBF output against it); its cost model charges the normal
float32 pipelines at the device's conventional-kernel efficiency
(:attr:`~repro.gpusim.specs.GPUSpec.fp32_efficiency`, ~50% of fp32 peak for
a well-tuned complex GEMM-like kernel) against the same DRAM traffic model.
"""

from __future__ import annotations

import numpy as np

from repro.ccglib.perfmodel import GemmProblem
from repro.ccglib.precision import complex_ops
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import Bound, KernelCost


class ReferenceBeamformer:
    """float32 beamformer on the conventional cores (the Fig 7 baseline)."""

    def __init__(
        self,
        device: Device,
        n_beams: int,
        n_stations: int,
        n_samples: int,
        n_channels: int,
        n_polarizations: int = 1,
    ):
        self.device = device
        self.n_beams = n_beams
        self.n_stations = n_stations
        self.n_samples = n_samples
        self.batch = n_channels * n_polarizations
        self.problem = GemmProblem(batch=self.batch, m=n_beams, n=n_samples, k=n_stations)

    def predict_cost(self) -> KernelCost:
        """Analytic cost of one block on the float32 cores."""
        spec = self.device.spec
        ops = complex_ops(self.batch, self.n_beams, self.n_samples, self.n_stations)
        t_math = ops / (spec.fp32_peak_ops() * spec.fp32_efficiency)
        # Same minimal traffic as the tensor-core kernel, at float32 width.
        in_bytes = (
            self.batch
            * (self.n_beams + self.n_samples)
            * self.n_stations
            * 2
            * 4.0
        )
        out_bytes = self.batch * self.n_beams * self.n_samples * 2 * 4.0
        dram_bytes = in_bytes + out_bytes
        t_dram = dram_bytes / (spec.mem_bandwidth_bytes() * spec.mem_efficiency)
        t_body = max(t_math, t_dram)
        time_s = t_body + spec.kernel_launch_overhead_s
        util_fp32 = min(1.0, (ops / time_s) / spec.fp32_peak_ops())
        # The fp32 FMA pipelines draw comparable power to the tensor pipes
        # at equal utilization; reuse the float16 coefficient as the
        # core-power proxy.
        power = self.device.power.kernel_power(
            precision="float16",
            tensor_utilization=util_fp32,
            dram_utilization=min(1.0, (dram_bytes / time_s) / spec.mem_bandwidth_bytes()),
            smem_utilization=0.3 * util_fp32,
        )
        cost = KernelCost(
            name="reference_beamformer_fp32",
            time_s=time_s,
            useful_ops=ops,
            issued_ops=ops,
            dram_bytes=dram_bytes,
            smem_bytes=0.0,
            bound=Bound.COMPUTE if t_body == t_math else Bound.MEMORY,
            power_w=power.total_w,
            energy_j=power.total_w * time_s,
            detail={"t_math": t_math, "t_dram": t_dram, "util_fp32": util_fp32},
        )
        return cost

    def form_beams(
        self, weights: np.ndarray | None = None, data: np.ndarray | None = None
    ) -> tuple[np.ndarray | None, KernelCost]:
        """Run the reference beamformer (functional: exact complex64 GEMM)."""
        cost = self.predict_cost()
        if not self.device.is_functional:
            return None, cost
        if weights is None or data is None:
            raise ShapeError("functional reference beamforming requires operands")
        beams = np.einsum(
            "cbs,cst->cbt",
            weights.astype(np.complex64),
            data.astype(np.complex64),
        )
        return beams.astype(np.complex64), cost
