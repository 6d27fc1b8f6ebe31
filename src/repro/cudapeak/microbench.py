"""Tensor-core micro-benchmarks, reproducing paper Table I.

"These micro-benchmarks do not load data from global memory, to avoid
memory throughput bottlenecks" (paper §III-A): each benchmark issues a long
stream of MMA instructions on register-resident fragments and reports the
achieved throughput. On the simulated devices the achieved rate is::

    measured = theoretical_peak * sustained_clock_fraction
             * wmma_interface_factor * fragment_rate * xor_penalty

which reproduces every structural effect of Table I: workstation GPUs
exceeding spec through boosted clocks, MI300X/A falling short through
throttling, the GH200 reaching only ~65% via WMMA, the small 1-bit fragment
running at half rate on Ampere, and software-emulated XOR on Hopper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnsupportedPrecisionError
from repro.gpusim.arch import (
    BitOp,
    FRAG_FLOAT16_16x16x16,
    FRAG_INT1_16x8x256,
    FRAG_INT1_8x8x128,
    FragmentShape,
)
from repro.gpusim.specs import GPUSpec, GPU_CATALOG
from repro.util.units import tera


@dataclass(frozen=True)
class MicrobenchResult:
    """One Table I cell: measured and theoretical throughput."""

    gpu: str
    precision: str
    fragment: FragmentShape
    bit_op: BitOp | None
    measured_tops: float
    theoretical_tops: float


def run_microbenchmark(
    spec: GPUSpec,
    precision: str,
    fragment: FragmentShape,
    bit_op: BitOp | None = None,
) -> MicrobenchResult:
    """Peak throughput of one (precision, fragment, bit-op) combination.

    Raises :class:`UnsupportedPrecisionError`/``UnsupportedFragmentError``
    exactly where the paper reports N/A cells (1-bit on AMD).
    """
    caps = spec.caps
    rate = caps.rate_factor(precision, fragment, bit_op)
    theoretical = spec.theoretical_peak_ops(precision)
    measured = theoretical * spec.sustained_clock_fraction * caps.wmma_interface_factor * rate
    return MicrobenchResult(
        gpu=spec.name,
        precision=precision,
        fragment=fragment,
        bit_op=bit_op,
        measured_tops=measured / tera,
        theoretical_tops=theoretical / tera,
    )


#: The benchmark matrix of Table I: float16 plus the four 1-bit variants
#: (two fragment layouts x two multiply operands, §III-A).
TABLE1_BENCHMARKS: tuple[tuple[str, FragmentShape, BitOp | None], ...] = (
    ("float16", FRAG_FLOAT16_16x16x16, None),
    ("int1", FRAG_INT1_8x8x128, BitOp.XOR),
    ("int1", FRAG_INT1_8x8x128, BitOp.AND),
    ("int1", FRAG_INT1_16x8x256, BitOp.XOR),
    ("int1", FRAG_INT1_16x8x256, BitOp.AND),
)


def run_table1(gpus: list[str] | None = None) -> list[MicrobenchResult]:
    """Run the full Table I benchmark matrix over the catalog.

    Unsupported combinations (1-bit on AMD) are skipped, matching the N/A
    cells of the paper's table.
    """
    results: list[MicrobenchResult] = []
    for name in gpus or list(GPU_CATALOG):
        spec = GPU_CATALOG[name]
        for precision, fragment, bit_op in TABLE1_BENCHMARKS:
            try:
                results.append(run_microbenchmark(spec, precision, fragment, bit_op))
            except UnsupportedPrecisionError:
                continue
    return results
