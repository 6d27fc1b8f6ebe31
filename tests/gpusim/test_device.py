"""The simulated device: modes, keeping nothing per kernel, cost records."""

from __future__ import annotations

import gc
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.apps.radioastronomy import ReferenceBeamformer, incoherent_beam
from repro.ccglib.gemm import Gemm
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.timing import Bound, KernelCost, combine_costs
from repro.serve import Batch, FleetDispatcher, PlacementDecision, PlacementKind, Request, Workload
from repro.tcbf import BeamformerPlan
from tests.conftest import random_complex, submit_and_drain


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


class TestModes:
    def test_functional_by_default(self):
        assert Device("A100").is_functional
        assert not Device("A100", ExecutionMode.DRY_RUN).is_functional

    def test_spec_by_name(self):
        assert Device("mi210").spec.name == "MI210"


# Every call that used to log its launch on the device, built once on tiny
# shapes; each function returns the repeated call.


def _gemm_run(rng):
    plan = Gemm(Device("A100"), Precision.INT1, 1, 8, 8, 256)
    a, b = random_complex(rng, (1, 8, 256)), random_complex(rng, (1, 256, 8))
    return lambda: plan.run(a, b)


def _int1_plan(device=None):
    return BeamformerPlan(
        device or Device("A100"), n_beams=8, n_receivers=64, n_samples=16,
        precision=Precision.INT1,
    )


def _prepare_weights(rng):
    plan, weights = _int1_plan(), random_complex(rng, (1, 8, 64))
    return lambda: plan.prepare_weights(weights)


def _execute_prepared_int1(rng):
    plan = _int1_plan()
    plan.prepare_weights(random_complex(rng, (1, 8, 64)))
    data = random_complex(rng, (1, 64, 16))
    return lambda: plan.execute(None, data)


def _execute_float16(rng):
    plan = BeamformerPlan(
        Device("A100"), n_beams=8, n_receivers=64, n_samples=16, batch=2,
        restore_output_scale=True,
    )
    weights, data = random_complex(rng, (2, 8, 64)), random_complex(rng, (2, 64, 16))
    return lambda: plan.execute(weights, data)


def _execute_dry_run(rng):
    return _int1_plan(Device("A100", ExecutionMode.DRY_RUN)).execute


def _serve_split(rng):
    # A fresh dispatcher per call over the same two devices: the split
    # leaves nothing behind on them or in the library.
    devices = [Device("A100", ExecutionMode.DRY_RUN) for _ in range(2)]
    wl = Workload(name="split", n_beams=64, n_receivers=48, n_samples=64, batch_per_request=4)
    decision = PlacementDecision(
        kind=PlacementKind.SPLIT, workload=wl, shard_extents=(2, 2), shard_worker_indices=(0, 1)
    )

    def call():
        request = Request(rid=0, workload=wl, arrival_s=0.0)
        batch = Batch(bid=0, workload=wl, requests=[request], formed_s=0.0, decision=decision)
        return submit_and_drain(FleetDispatcher(devices), batch)

    return call


def _incoherent_beam(rng):
    device, data = Device("A100"), random_complex(rng, (4, 16, 32))
    return lambda: incoherent_beam(device, data, 4, 16, 32)


def _reference_beamformer(rng):
    bf = ReferenceBeamformer(Device("A100"), 8, 16, 32, 2)
    weights, data = random_complex(rng, (2, 8, 16)), random_complex(rng, (2, 16, 32))
    return lambda: bf.form_beams(weights, data)


class TestKeepsNothingPerKernel:
    """A device is its spec, mode and power model: it logs no launch.

    Each kernel's cost goes back to the caller, so a long run keeps no more
    live memory than a short one.
    """

    @staticmethod
    def _live_repro_bytes() -> int:
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, str(Path(repro.__file__).parent / "*"))]
        )
        return sum(stat.size for stat in snapshot.statistics("filename"))

    @pytest.mark.parametrize("build", [
        _gemm_run, _prepare_weights, _execute_prepared_int1, _execute_float16,
        _execute_dry_run, _serve_split, _incoherent_beam, _reference_beamformer,
    ], ids=lambda build: build.__name__.lstrip("_"))
    def test_live_memory_does_not_grow_with_calls(self, rng, build):
        call = build(rng)
        call()
        tracemalloc.start()
        try:
            for _ in range(20):
                call()
            after_short = self._live_repro_bytes()
            for _ in range(200):
                call()
            after_long = self._live_repro_bytes()
        finally:
            tracemalloc.stop()
        assert abs(after_long - after_short) < 4096


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
