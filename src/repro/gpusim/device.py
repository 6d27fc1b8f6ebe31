"""Simulated GPU device: execution log, streams, and the functional/dry-run split.

A :class:`Device` is the meeting point of the substrate models:

* it owns a :class:`~repro.gpusim.memory.MemoryPool` (functional mode
  materializes real arrays, dry-run mode tracks metadata only);
* kernels are "launched" by recording a
  :class:`~repro.gpusim.timing.KernelCost` computed by the kernel's
  analytical model — the device advances its simulated clock and keeps a
  power timeline that the PMT sensors sample;
* the clock and power models are exposed so kernel cost models can resolve
  sustained clocks and compute average power consistently.

This mirrors how the real library interacts with hardware: ccglib never
needs to know whether time comes from cudaEventElapsedTime or from a model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.gpusim.clock import ClockModel
from repro.gpusim.memory import DeviceBuffer, MemoryPool
from repro.gpusim.power import PowerModel
from repro.gpusim.specs import GPUSpec, get_spec
from repro.gpusim.timing import KernelCost


class ExecutionMode(enum.Enum):
    """Functional mode computes real results; dry-run only predicts cost."""

    FUNCTIONAL = "functional"
    DRY_RUN = "dry_run"


@dataclass(frozen=True)
class TimelineEntry:
    """One executed kernel on the device's simulated timeline."""

    start_s: float
    end_s: float
    cost: KernelCost


class Stream:
    """An in-order execution queue; kernels on one stream serialize."""

    def __init__(self, device: "Device"):
        self._device = device

    def launch(self, cost: KernelCost) -> TimelineEntry:
        return self._device.record_kernel(cost)


class Device:
    """One simulated GPU instance.

    Parameters
    ----------
    spec:
        A :class:`GPUSpec` or a catalog name like ``"A100"``.
    mode:
        ``ExecutionMode.FUNCTIONAL`` to compute real results (tests,
        examples) or ``ExecutionMode.DRY_RUN`` for paper-scale cost modelling
        (benchmark harness).
    """

    def __init__(self, spec: GPUSpec | str, mode: ExecutionMode = ExecutionMode.FUNCTIONAL):
        self.spec: GPUSpec = get_spec(spec) if isinstance(spec, str) else spec
        self.mode = mode
        self.memory = MemoryPool(self.spec)
        self.clock = ClockModel(self.spec)
        self.power = PowerModel(self.spec)
        self._now_s = 0.0
        self._timeline: list[TimelineEntry] = []
        self.default_stream = Stream(self)

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"Device({self.spec.name}, mode={self.mode.value})"

    @property
    def is_functional(self) -> bool:
        return self.mode is ExecutionMode.FUNCTIONAL

    # -- memory -----------------------------------------------------------

    def allocate(self, shape, dtype, label: str = "") -> DeviceBuffer:
        return self.memory.allocate(
            tuple(shape), dtype, materialize=self.is_functional, label=label
        )

    def upload(self, host_array: np.ndarray, label: str = "") -> DeviceBuffer:
        return self.memory.upload(host_array, materialize=self.is_functional, label=label)

    def free(self, buf: DeviceBuffer) -> None:
        self.memory.free(buf)

    # -- execution accounting ----------------------------------------------

    @property
    def now_s(self) -> float:
        """Current simulated device time."""
        return self._now_s

    @property
    def timeline(self) -> tuple[TimelineEntry, ...]:
        return tuple(self._timeline)

    def record_kernel(self, cost: KernelCost) -> TimelineEntry:
        """Advance device time by one kernel and log it."""
        entry = TimelineEntry(start_s=self._now_s, end_s=self._now_s + cost.time_s, cost=cost)
        self._now_s = entry.end_s
        self._timeline.append(entry)
        return entry

    def power_at(self, t_s: float) -> float:
        """Instantaneous power at simulated time ``t_s`` (idle between kernels).

        PMT sensors sample this to integrate energy the way NVML polling does.
        """
        for entry in self._timeline:
            if entry.start_s <= t_s < entry.end_s:
                return entry.cost.power_w
        return self.power.idle_w
