"""Observers: the metrics the tuner records per configuration."""

from __future__ import annotations

from repro.gpusim.timing import Bound, KernelCost
from repro.kerneltuner.observers import (
    ObserverChain,
    PerformanceObserver,
    PowerObserver,
    TimeObserver,
    default_observers,
)


def _cost() -> KernelCost:
    return KernelCost(
        name="k", time_s=1e-3, useful_ops=2e12, issued_ops=2e12, dram_bytes=1e9,
        smem_bytes=0.0, bound=Bound.COMPUTE, power_w=200.0, energy_j=0.2,
    )


class TestObservers:
    def test_time(self):
        assert TimeObserver().observe(_cost()) == {"time_s": 1e-3}

    def test_performance_in_tops(self):
        assert PerformanceObserver().observe(_cost())["tops"] == 2000.0

    def test_power(self):
        metrics = PowerObserver().observe(_cost())
        assert metrics["power_w"] == 200.0
        assert metrics["energy_j"] == 0.2
        assert metrics["tops_per_joule"] == 10.0

    def test_chain_merges(self):
        metrics = ObserverChain([TimeObserver(), PowerObserver()]).collect(_cost())
        assert set(metrics) == {"time_s", "power_w", "energy_j", "tops_per_joule"}

    def test_default_chain_complete(self):
        metrics = default_observers().collect(_cost())
        assert {"time_s", "tops", "power_w", "energy_j", "tops_per_joule"} <= set(metrics)

