"""Kernel tuning parameters: the search space and the shipped defaults.

The GEMM kernels are "adaptive in the amount of work per thread block and
warp" (paper §III-C); optimal values per GPU were found by auto-tuning
(§IV-A) and are listed in paper Table III. "While a default set of
parameters is shipped with ccglib, a GPU-specific optimization is best" —
we ship exactly the Table III parameters as defaults and let
:mod:`repro.kerneltuner` re-derive per-device optima against the simulated
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ccglib.precision import Precision
from repro.gpusim.specs import GPUSpec
from repro.util.validation import round_up


@dataclass(frozen=True, order=True)
class TuneParams:
    """One point in the kernel tuning space.

    ``block_m``/``block_n``: output tile computed by one thread block (the
    paper's "M per block" / "N per block"); ``warp_m``/``warp_n``: sub-tile
    computed by one warp; ``num_buffers``: shared-memory pipeline depth.
    """

    block_m: int
    block_n: int
    warp_m: int
    warp_n: int
    num_buffers: int

    @property
    def warps_per_block(self) -> int:
        return (self.block_m // self.warp_m) * (self.block_n // self.warp_n)

    def __str__(self) -> str:
        return (
            f"bM{self.block_m}/wM{self.warp_m}/bN{self.block_n}/"
            f"wN{self.warp_n}/buf{self.num_buffers}"
        )


@dataclass(frozen=True)
class PublishedTuning:
    """A paper Table III row: tuned parameters plus the published metrics."""

    gpu: str
    precision: Precision
    params: TuneParams
    tops: float
    tops_per_joule: float


#: Paper Table III: "Matrix-matrix multiplication kernel performance, energy
#: efficiency, and optimal tuning parameter values."
TABLE_III: tuple[PublishedTuning, ...] = (
    PublishedTuning("AD4000", Precision.FLOAT16, TuneParams(256, 32, 32, 32, 2), 93.0, 0.7),
    PublishedTuning("A100", Precision.FLOAT16, TuneParams(256, 32, 64, 32, 2), 173.0, 0.8),
    PublishedTuning("GH200", Precision.FLOAT16, TuneParams(128, 64, 64, 32, 2), 335.0, 0.8),
    PublishedTuning("W7700", Precision.FLOAT16, TuneParams(256, 64, 128, 16, 1), 45.0, 0.3),
    PublishedTuning("MI210", Precision.FLOAT16, TuneParams(128, 64, 64, 32, 1), 147.0, 1.3),
    PublishedTuning("MI300X", Precision.FLOAT16, TuneParams(128, 128, 64, 32, 1), 603.0, 0.9),
    PublishedTuning("MI300A", Precision.FLOAT16, TuneParams(128, 128, 64, 32, 1), 518.0, 0.8),
    PublishedTuning("AD4000", Precision.INT1, TuneParams(256, 32, 128, 16, 2), 1400.0, 10.7),
    PublishedTuning("A100", Precision.INT1, TuneParams(128, 64, 32, 64, 4), 3080.0, 12.3),
    PublishedTuning("GH200", Precision.INT1, TuneParams(64, 128, 64, 32, 2), 3780.0, 6.0),
)


def published_tuning(gpu: str, precision: Precision) -> PublishedTuning | None:
    """Table III row for a device/precision, or None (e.g. int1 on AMD)."""
    for row in TABLE_III:
        if row.gpu.lower() == gpu.lower() and row.precision is precision:
            return row
    return None


#: Candidate values mirroring the ranges the paper's tuning explored.
BLOCK_M_VALUES: tuple[int, ...] = (32, 64, 128, 256)
BLOCK_N_VALUES: tuple[int, ...] = (32, 64, 128, 256)
WARP_M_VALUES: tuple[int, ...] = (16, 32, 64, 128)
WARP_N_VALUES: tuple[int, ...] = (16, 32, 64, 128)
NUM_BUFFER_VALUES: tuple[int, ...] = (1, 2, 4)


def default_params(spec: GPUSpec, precision: Precision) -> TuneParams:
    """Shipped default parameters for a device/precision.

    Table III values when available; otherwise a conservative generic
    configuration (the "default set of parameters shipped with ccglib").
    """
    row = published_tuning(spec.name, precision)
    if row is not None:
        return row.params
    nb = 2 if spec.caps.async_copies else 1
    return TuneParams(128, 64, 64, 32, nb)


def select_params(
    spec: GPUSpec, precision: Precision, m: int, n: int, params: TuneParams | None = None
) -> TuneParams:
    """Runtime parameter selection for a concrete problem shape.

    ccglib compiles kernels at run time "with knowledge of both the type of
    GPU used, and of all input parameters" (§III). When the problem is
    smaller than the default block tile, shrinking the tile avoids gross
    padding waste: a 16-beam problem should not run 256-row blocks.
    """
    p = params or default_params(spec, precision)
    bm, bn, wm, wn = p.block_m, p.block_n, p.warp_m, p.warp_n
    while bm // 2 >= round_up(m, wm) and bm // 2 >= wm:
        bm //= 2
    while bn // 2 >= round_up(n, wn) and bn // 2 >= wn:
        bn //= 2
    return TuneParams(bm, bn, wm, wn, p.num_buffers)
