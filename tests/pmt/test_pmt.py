"""Power Measurement Toolkit reproduction."""

from __future__ import annotations

import pytest

from repro.errors import PowerError
from repro.gpusim.device import Device
from repro.gpusim.timing import Bound, KernelCost
from repro.pmt.meter import PowerMeter
from repro.pmt.sensor import NVMLSensor, ROCmSMISensor, create_sensor


def _cost(t: float, power: float) -> KernelCost:
    return KernelCost(
        name="k", time_s=t, useful_ops=1e12 * t, issued_ops=1e12 * t, dram_bytes=0,
        smem_bytes=0, bound=Bound.COMPUTE, power_w=power, energy_j=power * t,
    )


class TestSensorFactory:
    def test_nvidia_gets_nvml(self):
        assert isinstance(create_sensor(Device("A100")), NVMLSensor)
        assert isinstance(create_sensor(Device("GH200")), NVMLSensor)

    def test_amd_gets_rocm_smi(self):
        assert isinstance(create_sensor(Device("MI300X")), ROCmSMISensor)
        assert isinstance(create_sensor(Device("W7700")), ROCmSMISensor)


class TestSensor:
    def test_sample_idle(self):
        dev = Device("A100")
        reading = create_sensor(dev).sample()
        assert reading.watts == dev.power.idle_w

    def test_sample_during_kernel(self):
        dev = Device("A100")
        dev.record_kernel(_cost(1e-3, 250.0))
        assert create_sensor(dev).sample(0.5e-3).watts == 250.0

    def test_integrate_exact(self):
        dev = Device("A100")
        dev.record_kernel(_cost(2e-3, 200.0))
        dev.record_kernel(_cost(1e-3, 100.0))
        sensor = create_sensor(dev)
        # kernels: 0.4 J + 0.1 J
        assert sensor.integrate_energy(0.0, 3e-3) == pytest.approx(0.5)

    def test_integrate_partial_kernel(self):
        dev = Device("A100")
        dev.record_kernel(_cost(2e-3, 200.0))
        sensor = create_sensor(dev)
        assert sensor.integrate_energy(0.5e-3, 1.5e-3) == pytest.approx(0.2)

    def test_integrate_includes_idle_gap(self):
        dev = Device("A100")
        dev.record_kernel(_cost(1e-3, 200.0))
        sensor = create_sensor(dev)
        # 1 ms kernel + 1 ms idle
        expected = 0.2 + dev.power.idle_w * 1e-3
        assert sensor.integrate_energy(0.0, 2e-3) == pytest.approx(expected)

    def test_reversed_interval(self):
        sensor = create_sensor(Device("A100"))
        with pytest.raises(PowerError):
            sensor.integrate_energy(1.0, 0.0)


class TestMeter:
    def test_read_delta(self):
        dev = Device("GH200")
        meter = PowerMeter(dev)
        begin = meter.read()
        dev.record_kernel(_cost(4e-3, 500.0))
        end = meter.read()
        assert PowerMeter.seconds(begin, end) == pytest.approx(4e-3)
        assert PowerMeter.joules(begin, end) == pytest.approx(2.0)
        assert PowerMeter.watts(begin, end) == pytest.approx(500.0)

    def test_ops_per_joule_paper_metric(self):
        dev = Device("A100")
        meter = PowerMeter(dev)
        begin = meter.read()
        dev.record_kernel(_cost(1e-3, 216.0))
        end = meter.read()
        # 1e9 useful ops over 0.216 J
        assert PowerMeter.ops_per_joule(1e9, begin, end) == pytest.approx(1e9 / 0.216)

    def test_errors(self):
        dev = Device("A100")
        meter = PowerMeter(dev)
        s = meter.read()
        with pytest.raises(PowerError):
            PowerMeter.watts(s, s)
        with pytest.raises(PowerError):
            PowerMeter.ops_per_joule(1.0, s, s)

    def test_matches_device_energy_accounting(self):
        # The meter must agree with the sum of kernel energies.
        dev = Device("MI300X")
        meter = PowerMeter(dev)
        begin = meter.read()
        kernels = [(1e-3, 600.0), (2e-3, 300.0), (5e-4, 150.0)]
        for t, p in kernels:
            dev.record_kernel(_cost(t, p))
        end = meter.read()
        assert PowerMeter.joules(begin, end) == pytest.approx(sum(t * p for t, p in kernels))
