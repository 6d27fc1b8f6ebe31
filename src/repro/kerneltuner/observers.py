"""Observers: pluggable metrics attached to tuning runs.

Kernel Tuner "measures the run time of each configuration" and "it is
possible to extend Kernel Tuner with other metrics, either built-in or
custom. In addition to performance metrics, we measure the energy
consumption of the GPU using the Power Measurement Toolkit" (paper §IV-A).
The observers here mirror that: every evaluated configuration passes its
:class:`~repro.gpusim.timing.KernelCost` through the observer chain, which
extracts time, performance, power, and energy metrics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.gpusim.timing import KernelCost
from repro.util.units import tera


class Observer(abc.ABC):
    """Extracts named metrics from an executed kernel configuration."""

    @abc.abstractmethod
    def observe(self, cost: KernelCost) -> dict[str, float]:
        """Return metric name -> value for one kernel execution."""


class TimeObserver(Observer):
    """Kernel Tuner's built-in metric: execution time."""

    def observe(self, cost: KernelCost) -> dict[str, float]:
        return {"time_s": cost.time_s}


class PerformanceObserver(Observer):
    """Useful-operation throughput in TOPs/s (paper §IV-A definition:
    ``8 * M * N * K`` useful ops per second)."""

    def observe(self, cost: KernelCost) -> dict[str, float]:
        return {"tops": cost.ops_per_second / tera}


class PowerObserver(Observer):
    """Power/energy metrics from the kernel's modelled average power.

    The paper reads power through PMT (NVML / rocm-smi); here the
    :class:`~repro.gpusim.power.PowerModel` prices it per kernel.
    """

    def observe(self, cost: KernelCost) -> dict[str, float]:
        return {
            "power_w": cost.power_w,
            "energy_j": cost.energy_j,
            "tops_per_joule": cost.ops_per_joule / tera,
        }


@dataclass
class ObserverChain:
    """Runs every observer and merges the metric dictionaries."""

    observers: list[Observer] = field(default_factory=list)

    def collect(self, cost: KernelCost) -> dict[str, float]:
        metrics: dict[str, float] = {}
        for obs in self.observers:
            metrics.update(obs.observe(cost))
        return metrics


def default_observers() -> ObserverChain:
    """Time + performance + power, the paper's full observer set."""
    return ObserverChain([TimeObserver(), PerformanceObserver(), PowerObserver()])
