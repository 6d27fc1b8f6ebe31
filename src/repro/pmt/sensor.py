"""Power sensors: the NVML / rocm-smi backends of the PMT reproduction.

"PMT supports power measurements of both NVIDIA GPUs through NVML, as well
as AMD GPUs through rocm-smi" (paper §IV-A, ref [8]). A sensor samples the
instantaneous power of a simulated device; the polling interval matches the
real counters (NVML updates at ~10-20 ms granularity, rocm-smi similar —
here both default to 10 ms but integrate the model's exact timeline, so
short kernels are not under-sampled the way real counters can be).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerError
from repro.gpusim.arch import Vendor
from repro.gpusim.device import Device


@dataclass(frozen=True)
class PowerReading:
    """One (timestamp, instantaneous watts) sample."""

    time_s: float
    watts: float


class PowerSensor:
    """Samples instantaneous device power at a simulated timestamp."""

    #: sensor poll interval in seconds.
    interval_s: float = 0.010

    def __init__(self, device: Device):
        self.device = device

    def sample(self, time_s: float | None = None) -> PowerReading:
        """Read instantaneous power at ``time_s`` (default: device 'now')."""
        t = self.device.now_s if time_s is None else time_s
        return PowerReading(time_s=t, watts=self.device.power_at(t))

    def integrate_energy(self, t0: float, t1: float) -> float:
        """Exact energy (J) consumed by the device between two timestamps.

        Integrates the device timeline piecewise instead of summing poll
        samples, which is the idealization of an infinitely fast counter.
        """
        if t1 < t0:
            raise PowerError(f"integration interval reversed: [{t0}, {t1}]")
        energy = 0.0
        covered = 0.0
        for entry in self.device.timeline:
            lo = max(t0, entry.start_s)
            hi = min(t1, entry.end_s)
            if hi > lo:
                energy += entry.cost.power_w * (hi - lo)
                covered += hi - lo
        # Idle draw for the uncovered remainder of the interval.
        energy += self.device.power.idle_w * max(0.0, (t1 - t0) - covered)
        return energy


class NVMLSensor(PowerSensor):
    """NVIDIA Management Library power counter model."""


class ROCmSMISensor(PowerSensor):
    """rocm-smi power counter model."""


def create_sensor(device: Device) -> PowerSensor:
    """PMT's factory: pick the backend matching the device vendor."""
    if device.spec.arch.vendor is Vendor.NVIDIA:
        return NVMLSensor(device)
    if device.spec.arch.vendor is Vendor.AMD:
        return ROCmSMISensor(device)
    raise PowerError(f"no power backend for {device.spec.arch}")  # pragma: no cover
