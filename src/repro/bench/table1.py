"""Experiment: paper Table I — tensor-core micro-benchmarks.

Regenerates the measured-vs-theoretical throughput matrix over all seven
GPUs, both 1-bit fragment layouts and both multiply operands, and compares
against the paper's published measurements cell by cell.
"""

from __future__ import annotations

from repro.bench.report import ExperimentResult
from repro.cudapeak.microbench import run_table1
from repro.util.formatting import render_table

#: Paper Table I "Measured performance" values, keyed by
#: (gpu, precision, fragment string, bit op or None).
PAPER_TABLE1: dict[tuple[str, str, str, str | None], float] = {
    ("AD4000", "float16", "16x16x16", None): 117.0,
    ("A100", "float16", "16x16x16", None): 308.0,
    ("GH200", "float16", "16x16x16", None): 646.0,
    ("W7700", "float16", "16x16x16", None): 59.0,
    ("MI210", "float16", "16x16x16", None): 174.0,
    ("MI300X", "float16", "16x16x16", None): 1205.0,
    ("MI300A", "float16", "16x16x16", None): 949.0,
    ("AD4000", "int1", "8x8x128", "xor"): 1847.0,
    ("AD4000", "int1", "8x8x128", "and"): 1804.0,
    ("AD4000", "int1", "16x8x256", "xor"): 1865.0,
    ("AD4000", "int1", "16x8x256", "and"): 1865.0,
    ("A100", "int1", "8x8x128", "xor"): 2465.0,
    ("A100", "int1", "8x8x128", "and"): 2408.0,
    ("A100", "int1", "16x8x256", "xor"): 4942.0,
    ("A100", "int1", "16x8x256", "and"): 4942.0,
    ("GH200", "int1", "8x8x128", "xor"): 979.0,
    ("GH200", "int1", "8x8x128", "and"): 3894.0,
    ("GH200", "int1", "16x8x256", "xor"): 2361.0,
    ("GH200", "int1", "16x8x256", "and"): 10276.0,
}


def run() -> ExperimentResult:
    results = run_table1()
    headers = [
        "GPU",
        "precision",
        "fragment",
        "op",
        "measured TOPs/s",
        "theoretical TOPs/s",
        "paper TOPs/s",
        "ratio vs paper",
    ]
    rows: list[list[object]] = []
    max_dev = 0.0
    for r in results:
        op = r.bit_op.value if r.bit_op else None
        paper = PAPER_TABLE1.get((r.gpu, r.precision, str(r.fragment), op))
        ratio = r.measured_tops / paper if paper else float("nan")
        if paper:
            max_dev = max(max_dev, abs(ratio - 1.0))
        rows.append(
            [
                r.gpu,
                r.precision,
                str(r.fragment),
                op or "-",
                round(r.measured_tops, 0),
                round(r.theoretical_tops, 0),
                paper if paper is not None else "-",
                round(ratio, 3) if paper else "-",
            ]
        )
    text = render_table(headers, rows, title="Tensor-core micro-benchmarks (cudapeak)")
    findings = [
        f"all {sum(1 for r in rows if r[6] != '-')} published cells reproduced within "
        f"{max_dev * 100:.1f}% (clock/interface calibration)",
        "workstation GPUs (AD4000, W7700) exceed theoretical peak via boosted clocks",
        "GH200 reaches ~65% of peak through the WMMA interface",
        "XOR on GH200 is ~4.4x slower than AND (software emulation on Hopper)",
        "8x8x128 runs at half the 16x8x256 rate on A100, equal rate on AD4000",
        "1-bit rows are absent for AMD GPUs (int1 is NVIDIA-only)",
    ]
    return ExperimentResult(
        name="table1",
        title="Tensor core micro-benchmark results (paper Table I)",
        text=text,
        tables={"microbench": (headers, rows)},
        findings=findings,
    )
