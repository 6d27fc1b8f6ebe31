"""The placement layer: capability routing, shape buckets, in-service splits.

The tentpole contract of the placement PR: every request receives an
explicit PlacementDecision, int1 work never lands on a device without 1-bit
MMA, nearby shapes pad-and-merge into buckets priced by the cost model, and
requests larger than any single device shard across the fleet instead of
being shed — all deterministic, all consistent with the functional path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.radioastronomy.beamformer import service_workload as _lofar_pipeline
from repro.apps.ultrasound.imaging import service_workload as _ultrasound_pipeline
from repro.errors import DeviceError, ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    Batch,
    BatchingPolicy,
    BeamformingService,
    FleetDispatcher,
    PlacementDecision,
    PlacementKind,
    Request,
    Workload,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serve.batching import MAX_PAD_FRACTION
from repro.serve.placement import split_extent_weighted
from tests.conftest import random_complex, submit_and_drain

def lofar_workload(**kwargs):
    """The LOFAR adapter's bare kernel (the documented migration unwrap)."""
    return _lofar_pipeline(**kwargs).kernel


def ultrasound_workload(**kwargs):
    """The ultrasound adapter's bare kernel (the documented migration unwrap)."""
    return _ultrasound_pipeline(**kwargs).kernel


BIG_SLO = SLO(p99_latency_s=1e6)


def workload(name="wl", **overrides) -> Workload:
    kwargs = dict(name=name, n_beams=64, n_receivers=32, n_samples=64)
    kwargs.update(overrides)
    return Workload(**kwargs)


def dry(gpu: str = "A100") -> Device:
    return Device(gpu, ExecutionMode.DRY_RUN)


def fleet(*gpus: str) -> FleetDispatcher:
    return FleetDispatcher([dry(g) for g in gpus])


def make_batch(bid, wl, n, formed_s=0.0, decision=None) -> Batch:
    requests = [Request(rid=bid * 1000 + i, workload=wl, arrival_s=formed_s) for i in range(n)]
    return Batch(bid=bid, workload=wl, requests=requests, formed_s=formed_s, decision=decision)


class TestCapability:
    def test_int1_needs_nvidia(self):
        from repro.ccglib.precision import Precision

        int1 = workload(precision=Precision.INT1)
        assert int1.supported_by(dry("A100").spec)
        assert int1.supported_by(dry("GH200").spec)
        assert not int1.supported_by(dry("MI300X").spec)
        assert not int1.supported_by(dry("W7700").spec)

    def test_float16_runs_anywhere(self):
        wl = workload()
        for gpu in ("A100", "GH200", "MI300X", "MI210", "W7700", "AD4000"):
            assert wl.supported_by(dry(gpu).spec)

    def test_capable_workers_filter(self):
        from repro.ccglib.precision import Precision

        mixed = fleet("GH200", "MI300X")
        int1 = workload(precision=Precision.INT1)
        capable = mixed.placer.capable_workers(int1)
        assert [w.device.name for w in capable] == ["GH200"]
        assert len(mixed.placer.capable_workers(workload())) == 2

    def test_shed_decision_when_no_capable_device(self):
        from repro.ccglib.precision import Precision

        amd = fleet("MI300X")
        decision, _ = amd.placer.place(workload(precision=Precision.INT1), BatchingPolicy())
        assert decision.kind is PlacementKind.SHED
        assert decision.reason == "capability"
        assert amd.placer.decisions == {"shed": 1}

    def test_submit_rejects_infeasible_batch(self):
        from repro.ccglib.precision import Precision

        amd = fleet("MI300X")
        with pytest.raises(DeviceError, match="no device"):
            amd.submit(make_batch(0, workload(precision=Precision.INT1), 1))


class TestFootprint:
    def test_footprint_scales_with_requests(self):
        wl = workload()
        assert wl.footprint_bytes(4) == pytest.approx(4 * wl.footprint_bytes(1))

    def test_normal_requests_fit(self):
        f = fleet("A100")
        assert f.placer.fits(f.workers[0], workload(), 8)

    def test_oversized_request_does_not_fit(self):
        f = fleet("A100")
        giant = lofar_workload(n_samples=256, n_channels=150_000)
        assert not f.placer.fits(f.workers[0], giant)


class TestDecisions:
    def test_route_is_the_default(self):
        f = fleet("A100")
        decision, _ = f.placer.place(workload(), BatchingPolicy())
        assert decision.kind is PlacementKind.ROUTE
        assert decision.workload == workload()

    def test_merge_pads_to_bucket_edge(self):
        f = fleet("A100")
        policy = BatchingPolicy(sample_buckets=(128,))
        decision, _ = f.placer.place(workload(n_samples=110), policy)
        assert decision.kind is PlacementKind.MERGE
        assert decision.workload.n_samples == 128
        # Beyond the largest edge: exact shape, plain route.
        decision, _ = f.placer.place(workload(n_samples=200), policy)
        assert decision.kind is PlacementKind.ROUTE

    def test_pad_budget_bounds_bucket_overhead(self):
        # A 64-sample request must not be padded 32x just because a 2048
        # edge exists: beyond MAX_PAD_FRACTION the exact shape wins.
        f = fleet("A100")
        policy = BatchingPolicy(sample_buckets=(2048,))
        decision, _ = f.placer.place(workload(n_samples=64), policy)
        assert decision.kind is PlacementKind.ROUTE
        assert policy.bucket_samples(64) == 64
        assert policy.bucket_samples(1792) == 2048  # 14% < the 25% budget
        # 2048 / 1.25 = 1638.4: 1639 pads by 24.95%, 1638 would pad 25.03%;
        # a pad of exactly 25% is inside the budget.
        assert MAX_PAD_FRACTION == 0.25
        assert policy.bucket_samples(1639) == 2048
        assert policy.bucket_samples(1638) == 1638
        assert BatchingPolicy(sample_buckets=(80,)).bucket_samples(64) == 80

    def test_exact_edge_shape_routes_unpadded(self):
        f = fleet("A100")
        policy = BatchingPolicy(sample_buckets=(64,))
        decision, _ = f.placer.place(workload(n_samples=64), policy)
        assert decision.kind is PlacementKind.ROUTE

    def test_split_across_memory_proportional_shards(self):
        mixed = fleet("GH200", "MI300X")  # 96 vs 192 GB
        giant = lofar_workload(n_samples=256, n_channels=350_000)
        decision, _ = mixed.placer.place(giant, BatchingPolicy())
        assert decision.kind is PlacementKind.SPLIT
        assert sum(decision.shard_extents) == 350_000
        # The MI300X (2x the memory) takes ~2x the channels and, being the
        # larger device, comes first in the shard assignment.
        by_index = dict(zip(decision.shard_worker_indices, decision.shard_extents))
        assert by_index[1] > by_index[0]
        assert by_index[1] == pytest.approx(2 * by_index[0], rel=0.01)

    def test_unsplittable_oversize_sheds_for_capacity(self):
        f = fleet("A100", "A100")
        giant = lofar_workload(n_samples=30_000_000, n_channels=1)  # batch axis of 1
        assert not giant.splittable
        decision, _ = f.placer.place(giant, BatchingPolicy())
        assert decision.kind is PlacementKind.SHED
        assert decision.reason == "capacity"

    def test_estimates_never_execute_a_kernel(self, kernel_runs):
        f = fleet("A100", "GH200")
        wl = workload()
        for worker in f.workers:
            f.placer.estimate(worker, wl, 8)
        f.placer.place(wl, BatchingPolicy(sample_buckets=(128,)))
        assert kernel_runs == []

    def test_estimate_is_memoized(self):
        f = fleet("A100")
        first = f.placer.estimate(f.workers[0], workload(), 4)
        assert f.placer.estimate(f.workers[0], workload(), 4) is first


class TestWorkerSelection:
    def test_homogeneous_fleet_reduces_to_least_loaded(self):
        f = fleet("A100", "A100", "A100")
        wl = workload()
        batch = make_batch(0, wl, 2)
        assert f.placer.select_worker(batch, f.workers, 0.0).index == 0
        submit_and_drain(f, make_batch(1, wl, 2))  # loads worker 0
        assert f.placer.select_worker(batch, f.workers, 0.0).index == 1

    def test_heterogeneous_fleet_prefers_faster_device(self):
        # Same backlog (idle fleet): the worker with the smaller predicted
        # stage-in + GEMM wins, whatever its index.
        f = fleet("W7700", "GH200")
        batch = make_batch(0, lofar_workload(n_samples=2048), 8)
        costs = [f.placer.estimate(w, batch.workload, 8).service_s for w in f.workers]
        assert costs[1] < costs[0]  # the GH200 is far faster here
        assert f.placer.select_worker(batch, f.workers, 0.0).index == 1

    def test_backlog_eventually_overflows_to_slower_device(self):
        f = fleet("W7700", "GH200")
        wl = lofar_workload(n_samples=2048)
        submit_and_drain(f, *[make_batch(i, wl, 8) for i in range(12)])
        used = {e.worker_index for e in f.executions}
        assert used == {0, 1}  # the slow device still backfills under load


class TestSplitDispatch:
    def test_split_execution_spans_workers_and_takes_slowest(self):
        mixed = fleet("GH200", "MI300X")
        giant = lofar_workload(n_samples=256, n_channels=350_000)
        decision, _ = mixed.placer.place(giant, BatchingPolicy())
        batch = make_batch(0, giant, 1, decision=decision)
        [execution] = submit_and_drain(mixed, batch)
        assert execution.is_split
        assert len(execution.shards) == 2
        assert {s.device_name for s in execution.shards} == {"GH200", "MI300X"}
        assert execution.completion_s == max(s.completion_s for s in execution.shards)
        # Both workers' compute engines were really occupied.
        assert all(w.busy_s > 0 for w in mixed.workers)

    @staticmethod
    def _functional_split(rng, data_rows: int):
        """A 6-row workload split 4 + 2 over two A100s, plus its request data."""
        b, m, k, n = 6, 8, 16, 12
        weights = random_complex(rng, (b, m, k))
        data = random_complex(rng, (data_rows, k, n))
        wl = workload(
            n_beams=m, n_receivers=k, n_samples=n, batch_per_request=b,
            restore_output_scale=True, weights=weights,
        )
        decision = PlacementDecision(
            kind=PlacementKind.SPLIT,
            workload=wl,
            shard_extents=(4, 2),
            shard_worker_indices=(0, 1),
        )
        batch = Batch(
            bid=0,
            workload=wl,
            requests=[Request(rid=0, workload=wl, arrival_s=0.0, data=data)],
            formed_s=0.0,
            decision=decision,
        )
        return FleetDispatcher([Device("A100"), Device("A100")]), batch, weights, data

    def test_functional_split_matches_reference(self, rng, kernel_runs):
        f, batch, weights, data = self._functional_split(rng, data_rows=6)
        [execution] = submit_and_drain(f, batch)
        assert execution.outputs is not None and len(execution.outputs) == 1
        assert np.allclose(execution.outputs[0], weights @ data, atol=0.05)
        # Each shard's plan and GEMM ran on its own worker's device.
        shard_devices = [id(w.device) for w in f.workers]
        assert [(what, id(device)) for what, device in kernel_runs] == [
            (what, device) for device in shard_devices
            for what in ("BeamformerPlan.execute", "Gemm.run")
        ]

    def test_functional_split_rejects_oversized_data(self, rng):
        # 8 data rows for a 6-row workload: the merged path rejects this,
        # and the split path must too instead of beamforming the first 6
        # rows and silently dropping the rest.
        f, batch, _, _ = self._functional_split(rng, data_rows=8)
        with pytest.raises(ShapeError, match="data must be"):
            submit_and_drain(f, batch)

    def test_functional_split_uses_one_global_scale(self, rng):
        # The second shard's rows are 100x louder. A per-shard RMS would
        # normalize the two shards differently; one RMS over the whole block
        # gives the one-plan output byte for byte.
        f, batch, weights, data = self._functional_split(rng, data_rows=6)
        data[4:] *= 100.0
        [execution] = submit_and_drain(f, batch)
        single = batch.workload.make_plan(Device("A100")).execute(weights, data)
        assert execution.outputs[0].tobytes() == single.output.tobytes()


class TestWeightedSplit:
    def test_proportional_to_weights(self):
        assert split_extent_weighted(300, [1.0, 2.0]) == [100, 200]
        assert split_extent_weighted(10, [1.0, 1.0]) == [5, 5]

    def test_largest_remainder_is_deterministic(self):
        # 10 over 1:1:1 -> remainder goes to the lowest indices.
        assert split_extent_weighted(10, [1.0, 1.0, 1.0]) == [4, 3, 3]

    def test_covers_total_and_no_empty_shards(self):
        extents = split_extent_weighted(7, [1000.0, 1.0, 1.0])
        assert sum(extents) == 7
        assert all(e >= 1 for e in extents)
        assert extents[0] == max(extents)

    def test_errors(self):
        with pytest.raises(ShapeError):
            split_extent_weighted(5, [])
        with pytest.raises(ShapeError):
            split_extent_weighted(5, [1.0, -1.0])
        with pytest.raises(ShapeError):
            split_extent_weighted(1, [1.0, 1.0])
        with pytest.raises(ShapeError, match="cannot split"):
            split_extent_weighted(3, [1.0] * 4)

    def test_equal_weights_even(self):
        assert split_extent_weighted(256, [1.0] * 2) == [128, 128]
        assert split_extent_weighted(256, [1.0] * 4) == [64, 64, 64, 64]
        assert split_extent_weighted(1, [1.0]) == [1]

    def test_equal_weights_front_load_the_remainder(self):
        assert split_extent_weighted(5, [1.0] * 2) == [3, 2]
        assert split_extent_weighted(10, [1.0] * 3) == [4, 3, 3]

    @given(
        total=st.integers(min_value=1, max_value=10_000),
        parts=st.integers(min_value=1, max_value=64),
        weight=st.sampled_from([1.0, 3.0, 2**40]),
    )
    def test_equal_weights_remainder_invariants(self, total, parts, weight):
        # Equal weights give exact coverage, near-equality, a front-loaded
        # remainder and no empty shard.
        if total < parts:
            with pytest.raises(ShapeError):
                split_extent_weighted(total, [weight] * parts)
            return
        sizes = split_extent_weighted(total, [weight] * parts)
        assert len(sizes) == parts
        assert sum(sizes) == total
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        # The first total % parts shards carry the remainder, in order.
        extra = total % parts
        assert sizes == sorted(sizes, reverse=True)
        assert sizes.count(max(sizes)) == (extra if extra else parts)


class TestBucketedBatching:
    def test_policy_validation(self):
        with pytest.raises(ShapeError, match="ascending"):
            BatchingPolicy(sample_buckets=(128, 64))
        with pytest.raises(ShapeError, match="ascending"):
            BatchingPolicy(sample_buckets=(64, 64))
        with pytest.raises(ShapeError):
            BatchingPolicy(sample_buckets=(0, 64))
        # 65 -> 128 is 97% padding: over the budget, exact shape wins.
        assert BatchingPolicy(sample_buckets=(64, 128)).bucket_samples(65) == 65
        assert BatchingPolicy(sample_buckets=(64, 128)).bucket_samples(120) == 128

    def test_padded_to_validation(self):
        with pytest.raises(ShapeError, match="pad"):
            workload(n_samples=64).padded_to(32)
        assert workload(n_samples=64).padded_to(64) is not None

    def test_nearby_shapes_share_one_launch(self):
        nearby = [lofar_workload(n_samples=n) for n in (1900, 1980, 2048)]
        trace = merge_arrivals(
            *[
                poisson_arrivals(wl, 50_000.0, 0.002, seed=7 + i)
                for i, wl in enumerate(nearby)
            ]
        )
        service = BeamformingService(
            [dry()],
            policy=BatchingPolicy(
                max_batch=32, max_wait_s=1e-3, sample_buckets=(2048,)
            ),
            slo=BIG_SLO,
        )
        report = service.run(trace)
        assert report.n_completed == len(trace)
        sample_mixes = [{r.workload.n_samples for e in report.executions for r in e.batch.requests}]
        # At least one launch merged more than one exact shape.
        mixed_launches = [
            e
            for e in report.executions
            if len({r.workload.n_samples for r in e.batch.requests}) > 1
        ]
        assert mixed_launches, sample_mixes
        # Every merged launch executed at the bucket edge and paid for it.
        for e in mixed_launches:
            assert e.batch.workload.n_samples == 2048
            assert e.batch.padded_ops > 0
        assert report.padded_ops_fraction > 0
        assert report.placements.get("merge", 0) > 0

    def test_functional_bucket_merge_trims_back_exact_outputs(self, rng):
        m, k = 8, 16
        weights = random_complex(rng, (1, m, k))
        short = workload(
            n_beams=m, n_receivers=k, n_samples=10,
            include_transpose=False, restore_output_scale=True, weights=weights,
        )
        long = workload(
            n_beams=m, n_receivers=k, n_samples=12,
            include_transpose=False, restore_output_scale=True, weights=weights,
        )
        requests = [
            Request(rid=0, workload=short, arrival_s=0.0,
                    data=random_complex(rng, (1, k, 10))),
            Request(rid=1, workload=long, arrival_s=1e-6,
                    data=random_complex(rng, (1, k, 12))),
        ]
        service = BeamformingService(
            [Device("A100")],
            policy=BatchingPolicy(max_batch=2, max_wait_s=1e-3, sample_buckets=(12,)),
            slo=BIG_SLO,
        )
        report = service.run(requests)
        assert report.n_completed == 2
        for outcome in report.outcomes:
            reference = weights @ outcome.request.data
            assert outcome.output.shape == reference.shape
            assert np.allclose(outcome.output, reference, atol=0.05)


class TestServiceEndToEnd:
    def test_int1_never_lands_on_amd(self):
        imaging = ultrasound_workload(n_voxels=1024, k=512, n_frames=32)
        beams = lofar_workload()
        trace = merge_arrivals(
            poisson_arrivals(imaging, 20_000.0, 0.003, seed=3),
            poisson_arrivals(beams, 100_000.0, 0.003, seed=4),
        )
        service = BeamformingService(
            [dry("GH200"), dry("MI300X")], policy=BatchingPolicy(max_batch=8),
            slo=BIG_SLO,
        )
        report = service.run(trace)
        int1_launches = [e for e in report.executions if e.batch.workload.precision.value == "int1"]
        assert int1_launches
        assert all(e.device_name == "GH200" for e in int1_launches)
        amd_launches = [e for e in report.executions if e.device_name == "MI300X"]
        assert amd_launches  # float16 work backfilled the AMD device

    def test_capability_shed_on_amd_only_fleet(self):
        imaging = ultrasound_workload(n_voxels=1024, k=512, n_frames=32)
        trace = poisson_arrivals(imaging, 10_000.0, 0.002, seed=9)
        service = BeamformingService([dry("MI300X")], slo=BIG_SLO)
        report = service.run(trace)
        assert report.n_completed == 0
        assert report.shed_rate == 1.0
        assert report.placements == {"shed": len(trace)}
        # The shed is attributed to the requests' own class.
        assert report.shed_share(imaging.priority) == 1.0

    def test_oversized_request_is_served_not_shed(self):
        giant = lofar_workload(n_samples=256, n_channels=100_000)
        background = lofar_workload()
        trace = merge_arrivals(
            poisson_arrivals(background, 50_000.0, 0.002, seed=5),
            [Request(rid=0, workload=giant, arrival_s=0.001)],
        )
        service = BeamformingService(
            [dry("A100"), dry("A100")], policy=BatchingPolicy(max_batch=8),
            slo=BIG_SLO,
        )
        report = service.run(trace)
        assert report.n_completed == len(trace)
        assert report.n_split_batches == 1
        giant_outcome = next(
            o for o in report.outcomes
            if o.request.workload.batch_per_request == 100_000
        )
        assert giant_outcome.completion_s is not None
        split = next(e for e in report.executions if e.is_split)
        assert len(split.shards) == 2
        assert report.placements.get("split") == 1

    def test_held_batches_do_not_block_other_devices(self):
        from repro.ccglib.precision import Precision

        mixed = fleet("A100", "MI210")
        int1 = workload("nv_only", precision=Precision.INT1)
        f16 = workload("anywhere")
        mixed.submit(make_batch(0, int1, 1))
        mixed.submit(make_batch(1, int1, 1))
        mixed.submit(make_batch(2, f16, 1))
        placed = mixed.drain(0.0)
        # int1 #0 takes the A100; int1 #1 is held (A100 busy, MI210
        # incapable); the float16 batch still reaches the MI210.
        assert [e.batch.bid for e in placed] == [0, 2]
        assert placed[0].device_name == "A100"
        assert placed[1].device_name == "MI210"
        assert mixed.has_queued()
        assert mixed.held_requests == 1
        later = mixed.next_accept_s()
        placed2 = mixed.drain(later)
        assert [e.batch.bid for e in placed2] == [1]
        assert placed2[0].device_name == "A100"

    def test_held_batch_does_not_jump_a_more_urgent_arrival(self):
        from repro.ccglib.precision import Precision

        mixed = fleet("A100", "MI210")
        int1_batch = workload("nv_batch", precision=Precision.INT1, priority=1)
        int1_live = workload("nv_live", precision=Precision.INT1, priority=0)
        f16 = workload("anywhere", priority=1)
        # Fill the A100 and park a priority-1 int1 batch in the held list.
        mixed.submit(make_batch(0, int1_batch, 1))
        mixed.submit(make_batch(1, int1_batch, 1))
        mixed.submit(make_batch(2, f16, 1))
        mixed.drain(0.0)
        assert mixed.held_requests == 1
        # A more urgent int1 batch arrives while #1 is held: when the A100
        # frees, strict priority must still hold — the later priority-0
        # batch dispatches before the held priority-1 one.
        mixed.submit(make_batch(3, int1_live, 1))
        later = mixed.next_accept_s()
        placed = mixed.drain(later)
        assert [e.batch.bid for e in placed] == [3]
        assert mixed.held_requests == 1  # the stale batch kept waiting
        final = mixed.drain(mixed.next_accept_s())
        assert [e.batch.bid for e in final] == [1]

    def test_held_work_counts_toward_admission_estimates(self):
        from repro.ccglib.precision import Precision

        mixed = fleet("A100", "MI210")
        int1 = workload("nv_only", precision=Precision.INT1)
        mixed.submit(make_batch(0, int1, 2))
        mixed.submit(make_batch(1, int1, 2))
        mixed.submit(make_batch(2, int1, 2))
        mixed.drain(0.0)  # one placed, the rest held (single capable device)
        assert mixed.held_requests == 4
        assert mixed.held_service_s(0) > 0.0
        # The scheduler is empty, so without the held term the projection
        # would claim the queue drained.
        assert mixed.scheduler.queued_service_s(0) == 0.0

    def test_report_carries_placement_counters_and_devices(self):
        beams = lofar_workload()
        trace = poisson_arrivals(beams, 50_000.0, 0.002, seed=2)
        service = BeamformingService([dry("A100"), dry("GH200")], slo=BIG_SLO)
        report = service.run(trace)
        assert report.device_names == ["A100", "GH200"]
        assert report.placements.get("route") == len(trace)
        workers = report.by_worker()
        assert sum(w["requests"] for w in workers) == report.n_completed
        assert "placing:" in report.summary()

    def test_placement_run_is_deterministic(self):
        def one_run():
            imaging = ultrasound_workload(n_voxels=1024, k=512, n_frames=32)
            beams = lofar_workload(n_samples=1900)
            trace = merge_arrivals(
                poisson_arrivals(imaging, 20_000.0, 0.003, seed=13),
                poisson_arrivals(beams, 80_000.0, 0.003, seed=14),
            )
            service = BeamformingService(
                [dry("GH200"), dry("MI300X")],
                policy=BatchingPolicy(
                    max_batch=16, max_wait_s=5e-4, sample_buckets=(2048,)
                ),
                slo=BIG_SLO,
            )
            report = service.run(trace)
            return (
                report.latencies_s,
                report.n_batches,
                report.placements,
                [e.device_name for e in report.executions],
            )

        assert one_run() == one_run()
