"""Device catalog: the seven GPUs of the paper's evaluation.

Each :class:`GPUSpec` combines public datasheet numbers (SM/CU count, clocks,
memory bandwidth, theoretical tensor-core peaks — the "Theoretical peak"
column of paper Table I) with behavioural parameters calibrated against the
paper's published measurements:

* ``sustained_clock_fraction`` reproduces the measured/theoretical ratios of
  Table I. The AD4000 and W7700 boost beyond vendor spec (fraction > 1,
  Table I footnote a); the MI300X/A cannot sustain maximum clocks
  (fraction < 1, footnote b).
* ``gemm_efficiency`` is the fraction of sustained tensor-core throughput the
  tuned ccglib matrix-multiply kernel reaches on large matrices; fitted to
  Table III (e.g. A100 float16: 173 TOPs/s of a 308 TOPs/s sustained peak).
* the power-model coefficients are fitted to the TOPs/J column of Table III
  (see :mod:`repro.gpusim.power`).

These calibration constants are data, not physics: they stand in for the
microarchitectural detail a cycle-accurate simulator would model, and they
are the documented substitution for running on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeviceError
from repro.gpusim.arch import Architecture, ArchCapabilities, capabilities
from repro.util.units import tera, giga


@dataclass(frozen=True)
class PowerCoefficients:
    """Linear power model coefficients in Watts (see gpusim.power)."""

    idle_w: float
    #: dynamic power at full tensor-pipe utilization, per precision.
    tensor_w: dict[str, float]
    #: dynamic power at full DRAM bandwidth utilization.
    memory_w: float
    #: dynamic power at full shared-memory bandwidth utilization.
    shared_w: float


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one simulated GPU."""

    name: str
    arch: Architecture
    n_sm: int
    clock_mhz: float
    #: measured sustained clock as a fraction of ``clock_mhz`` (Table I fit).
    sustained_clock_fraction: float
    #: theoretical tensor-core peak in TOPs/s at spec clock, per precision
    #: (the "Theoretical peak" entries of paper Table I).
    tensor_peak_tops: dict[str, float]
    #: theoretical fp32 peak of the normal (non-tensor) cores, TFLOPs/s.
    fp32_tflops: float
    #: fraction of fp32 peak a well-tuned conventional kernel reaches; used
    #: by the reference (non-tensor-core) beamformer of Fig 7.
    fp32_efficiency: float
    mem_bandwidth_gbs: float
    #: achievable fraction of theoretical DRAM bandwidth (Fig 3: NVIDIA GPUs
    #: run very close to the memory roofline, AMD a bit further away).
    mem_efficiency: float
    mem_bytes: int
    smem_per_sm_bytes: int
    l2_bytes: int
    max_blocks_per_sm: int
    tdp_w: float
    power: PowerCoefficients
    #: tuned-kernel efficiency relative to sustained tensor peak, fitted to
    #: Table III per precision.
    gemm_efficiency: dict[str, float]
    #: pipeline ramp-up/drain depth in K-chunks: how much in-flight K work
    #: the device needs before its tensor pipes saturate. Large many-CU
    #: parts (MI300) need far more, which is why the short-K LOFAR workload
    #: "is still too small to fully saturate this GPU" (paper SV-B).
    ramp_chunks: float = 2.0
    kernel_launch_overhead_s: float = 4e-6
    notes: str = ""

    @property
    def caps(self) -> ArchCapabilities:
        return capabilities(self.arch)

    @property
    def sustained_clock_hz(self) -> float:
        return self.clock_mhz * 1e6 * self.sustained_clock_fraction

    def theoretical_peak_ops(self, precision: str) -> float:
        """Theoretical tensor peak at spec clock, ops/s (Table I right values)."""
        self.caps.require_precision(precision)
        try:
            return self.tensor_peak_tops[precision] * tera
        except KeyError as exc:
            raise DeviceError(f"{self.name} has no {precision} tensor peak") from exc

    def mem_bandwidth_bytes(self) -> float:
        return self.mem_bandwidth_gbs * giga

    def smem_bandwidth_bytes(self) -> float:
        """Aggregate shared-memory bandwidth across all SMs at sustained clock."""
        return self.caps.smem_bytes_per_clock * self.n_sm * self.sustained_clock_hz

    def fp32_peak_ops(self) -> float:
        return self.fp32_tflops * tera


def _spec(**kw) -> GPUSpec:
    return GPUSpec(**kw)


#: NVIDIA RTX 4000 Ada ("AD4000"): workstation Ada card; boosts past spec
#: (Table I: 117 measured vs 107 theoretical float16).
AD4000 = _spec(
    name="AD4000",
    arch=Architecture.ADA,
    n_sm=48,
    clock_mhz=2175.0,
    sustained_clock_fraction=1.093,
    tensor_peak_tops={"float16": 107.0, "int1": 1710.0},
    fp32_tflops=26.7,
    fp32_efficiency=0.55,
    mem_bandwidth_gbs=360.0,
    mem_efficiency=0.92,
    mem_bytes=20 * 2**30,
    smem_per_sm_bytes=100 * 1024,
    l2_bytes=48 * 2**20,
    max_blocks_per_sm=24,
    tdp_w=135.0,
    power=PowerCoefficients(
        idle_w=15.0,
        tensor_w={"float16": 117.2, "int1": 126.9},
        memory_w=38.0,
        shared_w=12.0,
    ),
    gemm_efficiency={"float16": 0.8601, "int1": 0.8347},
    ramp_chunks=2.0,
    notes="workstation card, boosted clocks beyond vendor specification",
)

#: NVIDIA A100 (PCIe 40 GB): Ampere datacenter GPU.
A100 = _spec(
    name="A100",
    arch=Architecture.AMPERE,
    n_sm=108,
    clock_mhz=1410.0,
    sustained_clock_fraction=0.987,
    tensor_peak_tops={"float16": 312.0, "int1": 4992.0},
    fp32_tflops=19.5,
    fp32_efficiency=0.50,
    mem_bandwidth_gbs=1555.0,
    mem_efficiency=0.92,
    mem_bytes=40 * 2**30,
    smem_per_sm_bytes=164 * 1024,
    l2_bytes=40 * 2**20,
    max_blocks_per_sm=32,
    tdp_w=250.0,
    power=PowerCoefficients(
        idle_w=55.0,
        tensor_w={"float16": 247.8, "int1": 276.8},
        memory_w=60.0,
        shared_w=22.0,
    ),
    gemm_efficiency={"float16": 0.6089, "int1": 0.6745},
    ramp_chunks=3.0,
)

#: NVIDIA GH200 (Grace Hopper, H100 die, 96 GB HBM3): reaches only ~65% of
#: tensor peak through WMMA (Table I; WGMMA would be needed for full rate),
#: and emulates the deprecated 1-bit XOR op in software (§III-E).
GH200 = _spec(
    name="GH200",
    arch=Architecture.HOPPER,
    n_sm=132,
    clock_mhz=1980.0,
    sustained_clock_fraction=1.0,
    tensor_peak_tops={"float16": 990.0, "int1": 15800.0},
    fp32_tflops=67.0,
    fp32_efficiency=0.50,
    mem_bandwidth_gbs=4000.0,
    mem_efficiency=0.92,
    mem_bytes=96 * 2**30,
    smem_per_sm_bytes=228 * 1024,
    l2_bytes=50 * 2**20,
    max_blocks_per_sm=32,
    tdp_w=700.0,
    power=PowerCoefficients(
        idle_w=75.0,
        tensor_w={"float16": 585.2, "int1": 716.1},
        memory_w=110.0,
        shared_w=45.0,
    ),
    gemm_efficiency={"float16": 0.582, "int1": 0.8253},
    ramp_chunks=4.0,
    notes="1-bit theoretical peak assumed to scale from float16 as on Ampere/Ada",
)

#: AMD Radeon Pro W7700: workstation RDNA3 card, boosted clocks.
W7700 = _spec(
    name="W7700",
    arch=Architecture.RDNA3,
    n_sm=48,
    clock_mhz=2401.0,
    sustained_clock_fraction=1.035,
    tensor_peak_tops={"float16": 57.0},
    fp32_tflops=28.3,
    fp32_efficiency=0.50,
    mem_bandwidth_gbs=576.0,
    mem_efficiency=0.80,
    mem_bytes=16 * 2**30,
    smem_per_sm_bytes=64 * 1024,
    l2_bytes=64 * 2**20,
    max_blocks_per_sm=16,
    tdp_w=190.0,
    power=PowerCoefficients(
        idle_w=20.0,
        tensor_w={"float16": 160.4},
        memory_w=40.0,
        shared_w=14.0,
    ),
    gemm_efficiency={"float16": 0.8389},
    ramp_chunks=2.0,
    notes="workstation card, boosted clocks beyond vendor specification",
)

#: AMD Instinct MI210: CDNA2 datacenter GPU.
MI210 = _spec(
    name="MI210",
    arch=Architecture.CDNA2,
    n_sm=104,
    clock_mhz=1700.0,
    sustained_clock_fraction=0.961,
    tensor_peak_tops={"float16": 181.0},
    fp32_tflops=22.6,
    fp32_efficiency=0.50,
    mem_bandwidth_gbs=1638.0,
    mem_efficiency=0.80,
    mem_bytes=64 * 2**30,
    smem_per_sm_bytes=64 * 1024,
    l2_bytes=8 * 2**20,
    max_blocks_per_sm=16,
    tdp_w=300.0,
    power=PowerCoefficients(
        idle_w=85.0,
        tensor_w={"float16": 26.6},
        memory_w=30.0,
        shared_w=8.0,
    ),
    gemm_efficiency={"float16": 0.9385},
    ramp_chunks=3.0,
)

#: AMD Instinct MI300X: CDNA3; cannot sustain max clock under tensor load
#: (Table I footnote b).
MI300X = _spec(
    name="MI300X",
    arch=Architecture.CDNA3,
    n_sm=304,
    clock_mhz=2100.0,
    sustained_clock_fraction=0.922,
    tensor_peak_tops={"float16": 1307.0},
    fp32_tflops=163.4,
    fp32_efficiency=0.50,
    mem_bandwidth_gbs=5300.0,
    mem_efficiency=0.80,
    mem_bytes=192 * 2**30,
    smem_per_sm_bytes=64 * 1024,
    l2_bytes=256 * 2**20,
    max_blocks_per_sm=16,
    tdp_w=750.0,
    power=PowerCoefficients(
        idle_w=140.0,
        tensor_w={"float16": 983.4},
        memory_w=160.0,
        shared_w=60.0,
    ),
    gemm_efficiency={"float16": 0.5765},
    ramp_chunks=10.0,
)

#: AMD Instinct MI300A: same architecture as MI300X with fewer accelerator
#: complex dies; the paper notes the optimal tuning parameters are identical.
MI300A = _spec(
    name="MI300A",
    arch=Architecture.CDNA3,
    n_sm=228,
    clock_mhz=2100.0,
    sustained_clock_fraction=0.967,
    tensor_peak_tops={"float16": 981.0},
    fp32_tflops=122.6,
    fp32_efficiency=0.50,
    mem_bandwidth_gbs=5300.0,
    mem_efficiency=0.80,
    mem_bytes=128 * 2**30,
    smem_per_sm_bytes=64 * 1024,
    l2_bytes=256 * 2**20,
    max_blocks_per_sm=16,
    tdp_w=760.0,
    power=PowerCoefficients(
        idle_w=130.0,
        tensor_w={"float16": 879.6},
        memory_w=150.0,
        shared_w=55.0,
    ),
    gemm_efficiency={"float16": 0.6066},
    ramp_chunks=10.0,
)

#: Catalog in the order used throughout the paper's tables.
GPU_CATALOG: dict[str, GPUSpec] = {
    spec.name: spec for spec in (AD4000, A100, GH200, W7700, MI210, MI300X, MI300A)
}

#: GPUs with 1-bit tensor-core support (NVIDIA only).
INT1_GPUS: tuple[str, ...] = tuple(
    name for name, spec in GPU_CATALOG.items() if spec.caps.supports_precision("int1")
)


def get_spec(name: str) -> GPUSpec:
    """Look up a GPU by catalog name (case-insensitive)."""
    for key, spec in GPU_CATALOG.items():
        if key.lower() == name.lower():
            return spec
    raise DeviceError(f"unknown GPU {name!r}; known: {', '.join(GPU_CATALOG)}")
