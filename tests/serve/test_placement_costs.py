"""The placer's cost table: one what-if plan per device model, not per device.

A :class:`~repro.gpusim.device.Device` is only its spec, its execution mode
and a power model of that spec, so every worker of one model predicts the
same costs. The table is keyed by (spec, mode, compatibility key, merged
extent): workers of one model, however they joined the fleet, share an
entry, while a spec with other numbers — even under the same name — and
the other execution mode get their own.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import UnknownWorkerError
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import get_spec
from repro.serve import FleetDispatcher, Workload
from repro.serve.dispatch import DeviceWorker
from repro.serve.placement import Placer

WORKLOAD = Workload(name="route", n_beams=64, n_receivers=32, n_samples=64)
EXTENTS = (1, 4)


def dry(gpu) -> Device:
    return Device(gpu, ExecutionMode.DRY_RUN)


@pytest.fixture
def plan_builds(monkeypatch) -> list[tuple[str, ExecutionMode, int]]:
    """Every ``Workload.make_plan`` call, as (device name, mode, extent)."""
    builds: list[tuple[str, ExecutionMode, int]] = []
    make_plan = Workload.make_plan

    def counting(self, device, n_requests=1):
        builds.append((device.name, device.mode, n_requests))
        return make_plan(self, device, n_requests)

    monkeypatch.setattr(Workload, "make_plan", counting)
    return builds


def price_all(placer: Placer, workers) -> list:
    return [placer.estimate(w, WORKLOAD, n) for w in workers for n in EXTENTS]


class TestOnePlanPerModel:
    def test_workers_of_one_model_share_one_plan_per_key(self, plan_builds):
        fleet = FleetDispatcher([dry("A100"), dry("A100")])
        first = price_all(fleet.placer, fleet.workers)
        scaled_up = fleet.add_worker(dry("A100"), now=1e-3)
        again = price_all(fleet.placer, fleet.workers)
        assert plan_builds == [("A100", ExecutionMode.DRY_RUN, n) for n in EXTENTS]
        # The scaled-up worker reads the same entries, not equal copies.
        by_extent = dict(zip(EXTENTS, first[: len(EXTENTS)]))
        for n in EXTENTS:
            assert fleet.placer.estimate(scaled_up, WORKLOAD, n) is by_extent[n]
        assert again[-len(EXTENTS) :] == first[: len(EXTENTS)]

    def test_a_shared_price_equals_the_devices_own(self, plan_builds):
        fleet = FleetDispatcher([dry("A100")])
        price_all(fleet.placer, fleet.workers)
        scaled_up = fleet.add_worker(dry("A100"), now=1e-3)
        own = Placer()
        own.attach([scaled_up], fleet.cache)
        for n in EXTENTS:
            assert fleet.placer.estimate(scaled_up, WORKLOAD, n) == own.estimate(
                scaled_up, WORKLOAD, n
            )

    def test_each_model_gets_its_own_entry(self, plan_builds):
        fleet = FleetDispatcher([dry("A100"), dry("GH200"), dry("A100")])
        costs = price_all(fleet.placer, fleet.workers)
        assert sorted(plan_builds) == sorted(
            (gpu, ExecutionMode.DRY_RUN, n) for gpu in ("A100", "GH200") for n in EXTENTS
        )
        assert costs[0] != costs[2]  # A100 vs GH200 at one extent

    def test_a_respecified_model_of_the_same_name_is_priced_apart(self, plan_builds):
        a100 = get_spec("A100")
        slower = dataclasses.replace(a100, clock_mhz=a100.clock_mhz / 2)
        assert slower.name == a100.name
        fleet = FleetDispatcher([dry(a100), dry(slower)])
        # Large enough to be compute-bound, so the clock shows in the GEMM.
        big = Workload(name="big", n_beams=1024, n_receivers=1024, n_samples=4096)
        stock, halved = (fleet.placer.estimate(w, big, 1) for w in fleet.workers)
        assert len(plan_builds) == 2
        assert halved.gemm_s > stock.gemm_s

    def test_execution_modes_do_not_share_an_entry(self, plan_builds):
        placer = Placer()
        functional = DeviceWorker(Device("A100"), 0)
        dry_run = DeviceWorker(dry("A100"), 1)
        for worker in (functional, dry_run, functional, dry_run):
            placer.estimate(worker, WORKLOAD, 1)
        assert plan_builds == [
            ("A100", ExecutionMode.FUNCTIONAL, 1),
            ("A100", ExecutionMode.DRY_RUN, 1),
        ]


class TestWorkerMap:
    def test_lookups_follow_the_fleet(self):
        fleet = FleetDispatcher([dry("A100"), dry("GH200"), dry("A100")])
        assert fleet.worker_by_index(2) is fleet.workers[2]
        fleet.crash(0, now=1e-3)  # list positions now differ from indices
        survivors = {w.index: w for w in fleet.workers}
        assert {i: fleet.worker_by_index(i) for i in survivors} == survivors
        newcomer = fleet.add_worker(dry("A100"), now=2e-3)
        assert fleet.worker_by_index(newcomer.index) is newcomer

    @pytest.mark.parametrize("index", [0, 3, -1])
    def test_a_gone_or_unknown_index_raises_a_named_error(self, index):
        fleet = FleetDispatcher([dry("A100"), dry("GH200")])
        fleet.crash(0, now=1e-3)
        with pytest.raises(UnknownWorkerError):
            fleet.worker_by_index(index)
