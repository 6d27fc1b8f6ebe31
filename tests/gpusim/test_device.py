"""Device execution accounting: timeline, streams, power sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.timing import Bound, KernelCost, combine_costs


def _cost(t: float, power: float = 100.0, ops: float = 1e9) -> KernelCost:
    return KernelCost(
        name="k",
        time_s=t,
        useful_ops=ops,
        issued_ops=ops,
        dram_bytes=1e6,
        smem_bytes=0.0,
        bound=Bound.COMPUTE,
        power_w=power,
        energy_j=power * t,
    )


class TestTimeline:
    def test_advances(self):
        dev = Device("A100")
        dev.record_kernel(_cost(1e-3))
        dev.record_kernel(_cost(2e-3))
        assert dev.now_s == pytest.approx(3e-3)
        assert len(dev.timeline) == 2
        assert dev.timeline[1].start_s == pytest.approx(1e-3)

    def test_totals(self):
        dev = Device("A100")
        dev.record_kernel(_cost(1e-3, power=200.0))
        dev.record_kernel(_cost(5e-4, power=100.0))
        entries = dev.timeline
        assert sum(e.end_s - e.start_s for e in entries) == pytest.approx(dev.now_s)
        assert dev.now_s == pytest.approx(1.5e-3)
        assert sum(e.cost.energy_j for e in entries) == pytest.approx(0.25)
        assert sum(e.cost.useful_ops for e in entries) == pytest.approx(2e9)

    def test_power_at(self):
        dev = Device("A100")
        dev.record_kernel(_cost(1e-3, power=250.0))
        assert dev.power_at(0.5e-3) == 250.0
        assert dev.power_at(2e-3) == dev.power.idle_w


class TestModes:
    def test_functional_materializes(self):
        dev = Device("A100", ExecutionMode.FUNCTIONAL)
        assert dev.allocate((4,), np.float32).data is not None

    def test_dry_run_does_not(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        assert dev.allocate((4,), np.float32).data is None

    def test_upload_roundtrip(self, rng):
        dev = Device("GH200")
        host = rng.normal(size=6).astype(np.float32)
        buf = dev.upload(host)
        assert np.array_equal(buf.data, host)

    def test_spec_by_name(self):
        assert Device("mi210").spec.name == "MI210"


class TestStream:
    def test_launch_advances_the_device_clock(self):
        dev = Device("A100")
        dev.default_stream.launch(_cost(5e-3))
        assert dev.now_s == pytest.approx(5e-3)
        assert dev.timeline[0].end_s == pytest.approx(5e-3)


class TestCombineCosts:
    def test_sums_and_dominant_bound(self):
        a = _cost(1e-3)
        b = KernelCost(
            name="mem", time_s=5e-3, useful_ops=0, issued_ops=0, dram_bytes=1e9,
            smem_bytes=0, bound=Bound.MEMORY, power_w=50.0, energy_j=0.25e-3 * 1000,
        )
        total = combine_costs("pipeline", [a, b])
        assert total.time_s == pytest.approx(6e-3)
        assert total.bound is Bound.MEMORY
        assert total.energy_j == pytest.approx(a.energy_j + b.energy_j)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_costs("nothing", [])

    def test_derived_metrics(self):
        c = _cost(2.0, power=100.0, ops=4e12)
        assert c.ops_per_second == pytest.approx(2e12)
        assert c.ops_per_joule == pytest.approx(4e12 / 200.0)
        assert c.arithmetic_intensity == pytest.approx(4e12 / 1e6)
