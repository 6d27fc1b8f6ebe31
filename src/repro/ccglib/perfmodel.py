"""Analytical performance model of the ccglib matrix-multiply kernels.

This is the documented substitution for timing real kernels on real GPUs
(README introduction). One kernel execution is modelled as the maximum of three
resource bounds plus launch overhead::

    t = max(t_math, t_dram, t_smem) + t_launch

* ``t_math`` — tensor-core issue time: padded instruction ops over the
  device's sustained WMMA-reachable peak, divided by efficiency factors for
  wave quantization (partially filled last wave), occupancy-based latency
  hiding, pipeline overlap (:func:`repro.ccglib.pipeline.overlap_factor`),
  K-ramp (pipeline fill/drain, which keeps short-K workloads such as the
  512-receiver LOFAR case of Fig 7 from saturating large GPUs), and a
  per-device calibrated kernel efficiency
  (:attr:`repro.gpusim.specs.GPUSpec.gemm_efficiency`, fitted to Table III).
* ``t_dram`` — global-memory time from a tile-reuse traffic model: blocks
  resident in one wave form an approximately square super-tile whose A/B
  tiles are fetched once per wave (L2 captures intra-wave reuse); outputs
  are written once.
* ``t_smem`` — shared-memory bandwidth: every warp loads its warp-tile
  fragments from shared memory, so small warp tiles cause redundant
  traffic; this is the register-level data-reuse effect of paper §III-C.

Padding to block/fragment tiles inflates the issued ops and produces the
sawtooth of paper Figs 4 and 7. AND-mode 1-bit kernels issue twice the
instructions (paper §III-E, Table III footnote a).

The model also validates configurations (shared-memory capacity, register
budget, thread limits) so the auto-tuner sees the same restriction structure
the real Kernel-Tuner setup does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ccglib import pipeline
from repro.ccglib.precision import Precision, PrecisionTraits, complex_ops, tensor_peak_ops, traits
from repro.ccglib.tuning import TuneParams
from repro.errors import KernelConfigError
from repro.gpusim.arch import BitOp, FragmentShape
from repro.gpusim.power import PowerModel
from repro.gpusim.specs import GPUSpec
from repro.gpusim.timing import Bound, KernelCost
from repro.util.validation import ceil_div, round_up

#: extra registers per thread beyond accumulators/fragments (indices, ptrs).
OVERHEAD_REGISTERS = 40

#: exponent of the occupancy latency-hiding factor.
OCCUPANCY_EXPONENT = 0.6


@dataclass(frozen=True)
class GemmProblem:
    """Shape of one batched complex GEMM: C[b] = A[b] (M,K) x B[b] (K,N)."""

    batch: int
    m: int
    n: int
    k: int

    def useful_ops(self) -> float:
        return complex_ops(self.batch, self.m, self.n, self.k)


@dataclass(frozen=True)
class ConfigGeometry:
    """Derived per-configuration resource geometry."""

    warps_per_block: int
    threads_per_block: int
    regs_per_thread: int
    smem_per_block: int
    blocks_per_sm: int


def accumulator_registers(params: TuneParams, warp_size: int) -> int:
    """32-bit accumulator registers per thread: warp tile x complex / warp."""
    return (params.warp_m * params.warp_n * 2) // warp_size


def fragment_registers(params: TuneParams, tr: PrecisionTraits, warp_size: int) -> int:
    """Registers holding the A/B fragments of one K-chunk, per thread."""
    bytes_per_thread = (
        (params.warp_m + params.warp_n) * tr.stage_k * 2 * tr.input_bytes / warp_size
    )
    return max(1, math.ceil(bytes_per_thread / 4.0))


def shared_memory_per_block(params: TuneParams, tr: PrecisionTraits) -> int:
    """Bytes of shared memory: num_buffers stages of (A-tile + B-tile)."""
    stage = (params.block_m + params.block_n) * tr.stage_k * 2 * tr.input_bytes
    return math.ceil(params.num_buffers * stage)


def validate_config(
    spec: GPUSpec, precision: Precision, params: TuneParams, fragment: FragmentShape | None = None
) -> ConfigGeometry:
    """Check a tuning configuration against hardware restrictions.

    Raises :class:`KernelConfigError` describing the violated restriction;
    returns the derived geometry when valid. The auto-tuner uses the
    exception paths to prune the search space.
    """
    tr = traits(precision)
    frag = fragment or tr.default_fragment
    caps = spec.caps
    caps.require_fragment(precision.value, frag) if precision is not Precision.TF32 else None

    if params.block_m % params.warp_m or params.block_n % params.warp_n:
        raise KernelConfigError(f"{params}: block tile not divisible by warp tile")
    if params.warp_m % frag.m or params.warp_n % frag.n:
        raise KernelConfigError(f"{params}: warp tile not a multiple of fragment {frag}")
    if not caps.async_copies and params.num_buffers != 1:
        raise KernelConfigError(
            f"{spec.name}: num_buffers must be 1 (no asynchronous copies on AMD)"
        )

    warps = params.warps_per_block
    threads = warps * caps.warp_size
    if not 1 <= warps <= 16:
        raise KernelConfigError(f"{params}: {warps} warps per block outside [1, 16]")
    if threads > caps.max_threads_per_block:
        raise KernelConfigError(
            f"{params}: {threads} threads exceed the {caps.max_threads_per_block} limit"
        )

    smem = shared_memory_per_block(params, tr)
    if smem > spec.smem_per_sm_bytes:
        raise KernelConfigError(
            f"{params}: {smem} B shared memory exceeds {spec.smem_per_sm_bytes} B"
        )

    regs = (
        accumulator_registers(params, caps.warp_size)
        + fragment_registers(params, tr, caps.warp_size)
        + OVERHEAD_REGISTERS
    )
    if regs > caps.max_registers_per_thread:
        raise KernelConfigError(
            f"{params}: {regs} registers/thread exceed {caps.max_registers_per_thread}"
        )

    blocks_by_smem = spec.smem_per_sm_bytes // smem
    blocks_by_warps = caps.max_warps_per_sm // warps
    blocks_by_regs = caps.registers_per_sm // max(regs * threads, 1)
    blocks_per_sm = min(blocks_by_smem, blocks_by_warps, blocks_by_regs, spec.max_blocks_per_sm)
    if blocks_per_sm < 1:
        raise KernelConfigError(f"{params}: zero resident blocks per SM")

    return ConfigGeometry(
        warps_per_block=warps,
        threads_per_block=threads,
        regs_per_thread=regs,
        smem_per_block=smem,
        blocks_per_sm=blocks_per_sm,
    )


def resolve_bit_op(spec: GPUSpec, precision: Precision, bit_op: BitOp | None) -> BitOp | None:
    """Pick the bit op ccglib would use (paper §III-E auto-switch)."""
    if precision is not Precision.INT1:
        return None
    return bit_op or spec.caps.preferred_bit_op


def model_gemm(
    spec: GPUSpec,
    precision: Precision,
    problem: GemmProblem,
    params: TuneParams,
    bit_op: BitOp | None = None,
    fragment: FragmentShape | None = None,
) -> KernelCost:
    """Predict time/energy of one GEMM kernel launch.

    Returns a :class:`~repro.gpusim.timing.KernelCost` whose ``detail``
    carries every intermediate quantity for reports and tests.
    """
    tr = traits(precision)
    frag = fragment or tr.default_fragment
    geometry = validate_config(spec, precision, params, frag)
    caps = spec.caps
    bit_op = resolve_bit_op(spec, precision, bit_op)

    # --- padded shapes and op counts ------------------------------------
    kc = frag.k if precision is Precision.INT1 else tr.stage_k
    mp = round_up(problem.m, params.block_m)
    np_ = round_up(problem.n, params.block_n)
    kp = round_up(problem.k, kc)
    useful_ops = problem.useful_ops()
    padded_ops = complex_ops(problem.batch, mp, np_, kp)
    instr_factor = 2.0 if (precision is Precision.INT1 and bit_op is BitOp.AND) else 1.0
    issued_ops = padded_ops * instr_factor

    # --- tensor-core issue bound -----------------------------------------
    if precision is Precision.TF32:
        rate = 1.0
        peak_theoretical = tensor_peak_ops(spec, precision)
    else:
        rate = caps.rate_factor(precision.value, frag, bit_op)
        peak_theoretical = tensor_peak_ops(spec, precision)
    peak_instr = (
        peak_theoretical
        * spec.sustained_clock_fraction
        * caps.wmma_interface_factor
        * rate
    )
    t_tc_ideal = issued_ops / peak_instr

    # --- grid geometry ----------------------------------------------------
    nbm, nbn = mp // params.block_m, np_ // params.block_n
    blocks_per_item = nbm * nbn
    total_blocks = problem.batch * blocks_per_item
    wave_size = spec.n_sm * geometry.blocks_per_sm
    waves = ceil_div(total_blocks, wave_size)
    wave_eff = total_blocks / (waves * wave_size)

    # --- efficiency factors ------------------------------------------------
    active_warps = geometry.warps_per_block * geometry.blocks_per_sm
    f_occ = min(1.0, (active_warps / caps.latency_warps) ** OCCUPANCY_EXPONENT)
    f_overlap = pipeline.overlap_factor(caps, precision, params.num_buffers)
    chunks = kp / kc
    f_ramp = chunks / (chunks + spec.ramp_chunks)
    f_kernel = spec.gemm_efficiency.get(
        "float16" if precision is Precision.TF32 else precision.value,
        spec.gemm_efficiency.get("float16", 0.7),
    )
    t_math = t_tc_ideal / (wave_eff * f_occ * f_overlap * f_ramp * f_kernel)

    # --- DRAM traffic -------------------------------------------------------
    if wave_size >= blocks_per_item:
        g_m, g_n = nbm, nbn
    else:
        g_m = min(nbm, max(1, round(math.sqrt(wave_size * nbm / nbn))))
        g_n = min(nbn, max(1, ceil_div(wave_size, g_m)))
    n_rects = total_blocks / (g_m * g_n)
    input_bytes = (
        n_rects
        * (g_m * params.block_m + g_n * params.block_n)
        * kp
        * 2
        * tr.input_bytes
    )
    output_bytes = problem.batch * mp * np_ * 2 * tr.output_bytes
    dram_bytes = input_bytes + output_bytes
    t_dram = dram_bytes / (spec.mem_bandwidth_bytes() * spec.mem_efficiency)

    # --- shared-memory traffic ----------------------------------------------
    frag_reads = (
        kp
        * (
            params.block_m * (params.block_n // params.warp_n)
            + params.block_n * (params.block_m // params.warp_m)
        )
        * 2
        * tr.input_bytes
    )
    stage_writes = kp * (params.block_m + params.block_n) * 2 * tr.input_bytes
    smem_bytes = total_blocks * (frag_reads + stage_writes)
    t_smem = smem_bytes / spec.smem_bandwidth_bytes()

    # --- combine -------------------------------------------------------------
    t_body = max(t_math, t_dram, t_smem)
    time_s = t_body + spec.kernel_launch_overhead_s
    if t_body == t_math:
        bound = Bound.COMPUTE
    elif t_body == t_dram:
        bound = Bound.MEMORY
    else:
        bound = Bound.SHARED

    util_tensor = min(1.0, t_tc_ideal / time_s)
    util_dram = min(1.0, (dram_bytes / time_s) / spec.mem_bandwidth_bytes())
    util_smem = min(1.0, (smem_bytes / time_s) / spec.smem_bandwidth_bytes())
    power = PowerModel(spec).kernel_power(
        precision="int1" if precision is Precision.INT1 else "float16",
        tensor_utilization=util_tensor,
        dram_utilization=util_dram,
        smem_utilization=util_smem,
    )

    return KernelCost(
        name=f"gemm_{precision.value}" + (f"_{bit_op.value}" if bit_op else ""),
        time_s=time_s,
        useful_ops=useful_ops,
        issued_ops=issued_ops,
        dram_bytes=dram_bytes,
        smem_bytes=smem_bytes,
        bound=bound,
        power_w=power.total_w,
        energy_j=power.total_w * time_s,
        detail={
            "t_math": t_math,
            "t_dram": t_dram,
            "t_smem": t_smem,
            "t_tc_ideal": t_tc_ideal,
            "wave_eff": wave_eff,
            "f_occ": f_occ,
            "f_overlap": f_overlap,
            "f_ramp": f_ramp,
            "f_kernel": f_kernel,
            "blocks_per_sm": float(geometry.blocks_per_sm),
            "total_blocks": float(total_blocks),
            "waves": float(waves),
            "padded_m": float(mp),
            "padded_n": float(np_),
            "padded_k": float(kp),
            "util_tensor": util_tensor,
            "util_dram": util_dram,
            "util_smem": util_smem,
            "regs_per_thread": float(geometry.regs_per_thread),
            "smem_per_block": float(geometry.smem_per_block),
        },
    )


def theoretical_min_bytes(precision: Precision, problem: GemmProblem) -> float:
    """Theoretical DRAM traffic: read A and B once, write C once.

    Used by the roofline analysis (paper §IV-B computes arithmetic intensity
    from "the theoretical amount of bytes transferred to and from device
    memory").
    """
    tr = traits(precision)
    a = problem.batch * problem.m * problem.k * 2 * tr.input_bytes
    b = problem.batch * problem.k * problem.n * 2 * tr.input_bytes
    c = problem.batch * problem.m * problem.n * 2 * tr.output_bytes
    return a + b + c
