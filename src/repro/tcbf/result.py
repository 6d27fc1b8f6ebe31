"""The shared beamforming result record.

Both applications used to ship their own result dataclass
(``BeamformOutput`` with a ``tflops`` accessor for LOFAR,
``ReconstructionResult`` with fps-style throughput accounting for
ultrasound). :class:`BeamformResult` unifies them: one output array, the
per-stage kernel costs in execution order, the end-to-end total, and the
domain accessors (``beams``/``frames`` aliases, ``tflops``/``tops``/``fps``)
in a single place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.gpusim.timing import KernelCost
from repro.util.units import tera


@dataclass
class BeamformResult:
    """Outcome of one beamformed block.

    Attributes
    ----------
    output:
        Complex output matrix — ``(batch, n_beams, n_samples)`` from a
        :class:`~repro.tcbf.plan.BeamformerPlan` (domain adapters may strip
        the batch axis), an array of the plan's backend. ``None`` in
        dry-run mode.
    costs:
        Per-kernel costs in execution order (``[transpose,] [pack,] gemm``).
    total:
        End-to-end cost of the block (every recorded stage combined; equals
        the GEMM cost when it is the only stage).
    n_frames:
        Samples/frames produced by this block — the denominator of the
        throughput accessors.
    """

    output: Any | None
    costs: list[KernelCost]
    total: KernelCost
    n_frames: int | None = None

    # -- domain aliases ------------------------------------------------------

    @property
    def beams(self) -> Any | None:
        """Radio-astronomy view of :attr:`output`."""
        return self.output

    @property
    def frames(self) -> Any | None:
        """Ultrasound view of :attr:`output`."""
        return self.output

    @property
    def cost(self) -> KernelCost:
        """The end-to-end total (kept for the historical LOFAR accessor)."""
        return self.total

    # -- throughput ----------------------------------------------------------

    @property
    def time_s(self) -> float:
        return self.total.time_s

    @property
    def tflops(self) -> float:
        """Sustained GEMM throughput over the end-to-end block time,
        TFLOPs/s (TOPs/s for int1).

        The numerator is the GEMM's application-level operation count alone:
        the helper kernels report element *moves* in ``useful_ops``, which
        are not FLOPs — mixing them in would inflate the paper's metric.
        """
        if self.total.time_s <= 0:
            return 0.0
        return self.costs[-1].useful_ops / self.total.time_s / tera

    #: int1 kernels report the same quantity as TOPs/s.
    tops = tflops

    @property
    def fps(self) -> float:
        """Sustained frames (samples) per second over the end-to-end cost."""
        if self.n_frames is None:
            raise ValueError("result does not carry a frame count")
        if self.total.time_s <= 0:
            return 0.0
        return self.n_frames / self.total.time_s
