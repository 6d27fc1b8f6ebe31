"""Ablation benchmarks for the kernel design decisions of paper §III.

Not a paper figure — these quantify the *reasons* behind the paper's design
choices on the simulated devices:

1. complex decomposition: 4 MMAs + in-register negation vs a naive variant
   that writes four real partial products and combines them in a separate
   pass (extra global traffic + kernel launch);
2. 1-bit multiply op: XOR vs AND per NVIDIA architecture (the §III-E
   auto-switch);
3. 1-bit fragment layout: 8x8x128 (portable WMMA) vs 16x8x256 (PTX
   extension);
4. pipeline depth: num_buffers sweep at the tuned configuration.
"""

from __future__ import annotations

import dataclasses

from repro.bench.report import ExperimentResult
from repro.ccglib.perfmodel import GemmProblem, model_gemm
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TABLE_III, published_tuning
from repro.errors import KernelConfigError
from repro.gpusim.arch import BitOp, FRAG_INT1_8x8x128, FRAG_INT1_16x8x256
from repro.gpusim.specs import GPU_CATALOG, INT1_GPUS, get_spec
from repro.kerneltuner.tuner import PAPER_TUNING_PROBLEMS
from repro.util.formatting import render_table
from repro.util.units import tera


def _combine_pass_seconds(spec, problem: GemmProblem) -> float:
    """Extra pass of the naive complex decomposition: read 4 partials,
    write 2 outputs (float32 planes)."""
    n = problem.batch * problem.m * problem.n
    nbytes = n * 4 * 4.0 + n * 2 * 4.0
    return (
        nbytes / (spec.mem_bandwidth_bytes() * spec.mem_efficiency)
        + spec.kernel_launch_overhead_s
    )


def run() -> ExperimentResult:
    sections: list[str] = []
    tables: dict[str, tuple[list[str], list[list[object]]]] = {}
    findings: list[str] = []

    # 1. complex decomposition ------------------------------------------------
    problem = PAPER_TUNING_PROBLEMS[Precision.FLOAT16]
    rows = []
    for gpu, spec in GPU_CATALOG.items():
        params = published_tuning(gpu, Precision.FLOAT16).params
        fused = model_gemm(spec, Precision.FLOAT16, problem, params)
        naive_s = fused.time_s + _combine_pass_seconds(spec, problem)
        rows.append(
            [
                gpu,
                round(fused.ops_per_second / tera, 1),
                round(fused.useful_ops / naive_s / tera, 1),
                round(naive_s / fused.time_s - 1.0, 4),
            ]
        )
    headers = ["GPU", "fused TOPs/s", "naive TOPs/s", "combine-pass overhead"]
    tables["complex_decomposition"] = (headers, rows)
    sections.append(
        render_table(headers, rows, title="Complex MMA: register negation vs separate combine pass")
    )
    findings.append(
        "the in-register negation avoids a memory-bound combine pass worth "
        f"up to {max(r[3] for r in rows) * 100:.1f}% at the tuning size (grows "
        "for smaller K where the GEMM itself is cheaper)"
    )

    # 2. XOR vs AND per architecture ------------------------------------------
    problem1 = PAPER_TUNING_PROBLEMS[Precision.INT1]
    rows = []
    for gpu in INT1_GPUS:
        spec = get_spec(gpu)
        params = published_tuning(gpu, Precision.INT1).params
        xor = model_gemm(spec, Precision.INT1, problem1, params, bit_op=BitOp.XOR)
        and_ = model_gemm(spec, Precision.INT1, problem1, params, bit_op=BitOp.AND)
        auto = spec.caps.preferred_bit_op.value
        rows.append(
            [
                gpu,
                round(xor.ops_per_second / tera, 0),
                round(and_.ops_per_second / tera, 0),
                auto,
                round(max(xor.ops_per_second, and_.ops_per_second)
                      / min(xor.ops_per_second, and_.ops_per_second), 2),
            ]
        )
    headers = ["GPU", "XOR TOPs/s", "AND TOPs/s", "auto-selected", "best/worst"]
    tables["xor_vs_and"] = (headers, rows)
    sections.append(render_table(headers, rows, title="1-bit multiply op (paper §III-E)"))
    findings.append(
        "ccglib's auto-switch picks the faster op everywhere: XOR on "
        "Ada/Ampere (AND needs 2x instructions), AND on Hopper (XOR is "
        "software-emulated)"
    )

    # 3. fragment layout --------------------------------------------------------
    rows = []
    for gpu in INT1_GPUS:
        spec = get_spec(gpu)
        params = published_tuning(gpu, Precision.INT1).params
        op = spec.caps.preferred_bit_op
        small = model_gemm(spec, Precision.INT1, problem1, params, bit_op=op,
                           fragment=FRAG_INT1_8x8x128)
        big = model_gemm(spec, Precision.INT1, problem1, params, bit_op=op,
                         fragment=FRAG_INT1_16x8x256)
        rows.append(
            [
                gpu,
                round(small.ops_per_second / tera, 0),
                round(big.ops_per_second / tera, 0),
                round(big.ops_per_second / small.ops_per_second, 2),
            ]
        )
    headers = ["GPU", "8x8x128 TOPs/s", "16x8x256 TOPs/s", "speedup"]
    tables["fragment_layout"] = (headers, rows)
    sections.append(render_table(headers, rows, title="1-bit fragment layout (paper §III-A)"))
    findings.append(
        "the 16x8x256 PTX-extension layout is never slower than the WMMA "
        "8x8x128 layout — the paper's reason to default to it"
    )

    # 4. transpose-free interleaved kernel (paper §VI future work) --------------
    from repro.apps.ultrasound.imaging import UltrasoundBeamformer
    from repro.gpusim.device import Device, ExecutionMode

    rows = []
    for gpu in INT1_GPUS:
        for precision in (Precision.INT1, Precision.FLOAT16):
            dev_a = Device(gpu, ExecutionMode.DRY_RUN)
            dev_b = Device(gpu, ExecutionMode.DRY_RUN)
            baseline = UltrasoundBeamformer(
                dev_a, n_voxels=38880, k=524288, n_frames=8041,
                precision=precision,
            ).reconstruct().time_s
            fused = UltrasoundBeamformer(
                dev_b, n_voxels=38880, k=524288, n_frames=8041,
                precision=precision, fused_transpose=True,
            ).reconstruct().time_s
            rows.append([gpu, precision.value, round(baseline, 3), round(fused, 3),
                         round(baseline / fused - 1.0, 4)])
    headers = ["GPU", "precision", "with transpose (s)", "fused (s)", "saving"]
    tables["transpose_free"] = (headers, rows)
    sections.append(render_table(
        headers, rows,
        title="Transpose-free interleaved kernel prototype (paper §VI) on the "
        "recorded ultrasound dataset",
    ))
    findings.append(
        "fusing the transpose into an interleaved-input kernel (the §VI "
        "future-work item, as done in the tensor-core correlator) saves "
        f"up to {max(r[4] for r in rows) * 100:.1f}% at the recorded-dataset "
        "shape — a useful negative result: at beamforming K values the GEMM "
        "dominates and the transpose is convenience/latency, not throughput"
    )

    # 5. pipeline depth -----------------------------------------------------------
    rows = []
    for row in TABLE_III:
        spec = get_spec(row.gpu)
        problem_x = PAPER_TUNING_PROBLEMS[row.precision]
        entry: list[object] = [row.gpu, row.precision.value]
        for nbuf in (1, 2, 4):
            params = dataclasses.replace(row.params, num_buffers=nbuf)
            try:
                cost = model_gemm(spec, row.precision, problem_x, params)
                entry.append(round(cost.ops_per_second / tera, 1))
            except KernelConfigError:
                entry.append("n/a")
        rows.append(entry)
    headers = ["GPU", "precision", "1 buffer", "2 buffers", "4 buffers"]
    tables["pipeline_depth"] = (headers, rows)
    sections.append(render_table(headers, rows, title="Multi-stage buffer depth (paper §III-C)"))
    findings.append(
        "multi-stage async buffering is worth ~25-40% on NVIDIA (1 -> 2 "
        "stages); AMD devices reject num_buffers > 1 (no async copies)"
    )

    return ExperimentResult(
        name="ablations",
        title="Design-choice ablations (paper §III)",
        text="\n".join(sections),
        tables=tables,
        findings=findings,
    )
