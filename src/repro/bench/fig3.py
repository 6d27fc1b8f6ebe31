"""Experiment: paper Fig 3 — roofline analysis.

For every GPU, place the tuned kernel at the paper's four benchmark shapes
(float16/int1 x small/big) on the device roofline built from theoretical
memory bandwidth and *measured* tensor peaks. Verifies the paper's reading:
small sizes are memory-bound and sit close to the bandwidth slope
(especially on NVIDIA); big sizes are compute-bound at 50-85% of tensor
peak; and everywhere except small-size-on-workstation-GPUs the kernel beats
the theoretical float32-core maximum.
"""

from __future__ import annotations

from repro.bench.report import ExperimentResult
from repro.ccglib.perfmodel import model_gemm
from repro.ccglib.precision import Precision
from repro.gpusim.specs import GPU_CATALOG
from repro.kerneltuner.strategies import GreedyILS
from repro.kerneltuner.tuner import tune_gemm
from repro.roofline.model import FIG3_PROBLEMS, build_roofline, place_point
from repro.util.formatting import render_table
from repro.util.units import tera

WORKSTATION_GPUS = ("AD4000", "W7700")


def run() -> ExperimentResult:
    headers = [
        "GPU",
        "precision",
        "size",
        "AI (ops/byte)",
        "achieved TOPs/s",
        "roofline TOPs/s",
        "fraction",
        "bound",
        "beats fp32 peak",
    ]
    rows: list[list[object]] = []
    checks = {"small_mem": 0, "small_total": 0, "big_ok": 0, "big_total": 0}
    beats_fp32_except_ws_small = True
    for gpu, spec in GPU_CATALOG.items():
        roof = build_roofline(spec)
        for (precision, size), problem in FIG3_PROBLEMS.items():
            if precision is Precision.INT1 and not spec.caps.supports_precision("int1"):
                continue
            tuned = tune_gemm(
                spec, precision, problem=problem, strategy=GreedyILS(budget=100, seed=3)
            )
            cost = model_gemm(spec, precision, problem, tuned.best_params)
            point = place_point(spec, precision, problem, cost, size)
            fp32_peak = spec.fp32_peak_ops()
            beats = point.achieved_ops > fp32_peak
            if size == "small":
                checks["small_total"] += 1
                checks["small_mem"] += int(point.memory_bound)
                if not beats and gpu not in WORKSTATION_GPUS:
                    beats_fp32_except_ws_small = False
            else:
                checks["big_total"] += 1
                frac_peak = point.achieved_ops / roof.peaks_ops[point.ceiling]
                checks["big_ok"] += int(not point.memory_bound and 0.35 <= frac_peak <= 0.95)
                if not beats:
                    beats_fp32_except_ws_small = False
            rows.append(
                [
                    gpu,
                    precision.value,
                    size,
                    round(point.arithmetic_intensity, 1),
                    round(point.achieved_ops / tera, 1),
                    round(point.attainable_ops / tera, 1),
                    round(point.fraction_of_roofline, 3),
                    "memory" if point.memory_bound else "compute",
                    "yes" if beats else "no",
                ]
            )
    text = render_table(headers, rows, title="Roofline placement of the tuned kernels")
    findings = [
        f"{checks['small_mem']}/{checks['small_total']} small-size kernels are "
        "memory-bound (paper: 'For all GPUs, the small matrix size is memory-bound')",
        f"{checks['big_ok']}/{checks['big_total']} big-size kernels are compute-bound "
        "at an intermediate fraction of tensor peak (paper: 50-85%)",
        "the float32-core ceiling is beaten everywhere except small sizes on "
        f"workstation GPUs: {beats_fp32_except_ws_small}",
    ]
    return ExperimentResult(
        name="fig3",
        title="Roofline analysis of the GEMM kernel (paper Fig 3)",
        text=text,
        tables={"roofline": (headers, rows)},
        findings=findings,
    )
