"""Fleet dispatch: least-loaded routing, engine overlap, functional merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccglib import Precision
from repro.errors import DeviceError, ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import GPU_CATALOG
from repro.serve import Batch, FleetDispatcher, PlanCache, Request, Workload
from repro.serve.dispatch import least_loaded, merge_batch_operands, split_batched_output
from tests.conftest import random_complex, submit_and_drain


def workload(name="wl", **overrides) -> Workload:
    kwargs = dict(
        name=name, n_beams=64, n_receivers=32, n_samples=64,
        include_transpose=True,
    )
    kwargs.update(overrides)
    return Workload(**kwargs)


def make_batch(bid: int, wl: Workload, n: int, formed_s: float, data=None) -> Batch:
    requests = [
        Request(rid=bid * 100 + i, workload=wl, arrival_s=formed_s, data=data)
        for i in range(n)
    ]
    return Batch(bid=bid, workload=wl, requests=requests, formed_s=formed_s)


def dry_fleet(n: int) -> FleetDispatcher:
    return FleetDispatcher([Device("A100", ExecutionMode.DRY_RUN) for _ in range(n)])


#: A workload whose stage-in outlasts its GEMM (the default one's is shorter).
COPY_BOUND = workload(
    name="copy", n_beams=8, n_receivers=4096, n_samples=1024, precision=Precision.INT1,
)

#: One workload per bound engine, with the closed-form end of ``n`` equal
#: batches whose stage-in takes ``s`` and whose GEMM takes ``g``.
ENGINE_BOUNDS = [
    pytest.param(workload(), False, lambda n, s, g: s + n * g, id="compute-bound"),
    pytest.param(COPY_BOUND, True, lambda n, s, g: n * s + g, id="copy-bound"),
]


class TestRouting:
    def test_least_loaded_spreads_batches(self):
        fleet = dry_fleet(2)
        wl = workload()
        e0, e1 = submit_and_drain(fleet, make_batch(0, wl, 2, 0.0), make_batch(1, wl, 2, 0.0))
        # Worker 0 is busy after the first batch; the second goes to 1.
        assert e0.worker_index == 0
        assert e1.worker_index == 1

    def test_tie_breaks_on_lowest_index(self):
        fleet = dry_fleet(3)
        assert least_loaded(fleet.workers, 0.0).index == 0

    def test_mixed_mode_fleet_rejected(self):
        with pytest.raises(DeviceError):
            FleetDispatcher([Device("A100"), Device("A100", ExecutionMode.DRY_RUN)])
        with pytest.raises(ShapeError):
            FleetDispatcher([])

    def test_two_devices_halve_the_drain_time(self):
        # Pre-warm every device's plan so the comparison measures routing,
        # not the one-time per-device builds.
        wl = workload()
        cache = PlanCache()
        devices = [Device("A100", ExecutionMode.DRY_RUN) for _ in range(2)]
        for device in devices:
            cache.get(device, wl, 1)
        one = FleetDispatcher(devices[:1], cache=cache)
        two = FleetDispatcher(devices, cache=cache)
        submit_and_drain(one, *[make_batch(i, wl, 1, 0.0) for i in range(8)])
        submit_and_drain(two, *[make_batch(i, wl, 1, 0.0) for i in range(8)])
        assert two.makespan_s() < one.makespan_s() * 0.62


class TestEngineOverlap:
    @pytest.mark.parametrize("wl", [workload(), COPY_BOUND], ids=["compute-bound", "copy-bound"])
    def test_stage_in_overlaps_previous_compute(self, wl):
        # Consecutive batches on one worker: batch 1's stage-in runs on the
        # copy engine while batch 0's GEMM runs on the compute engine.
        fleet = dry_fleet(1)
        e0, e1 = submit_and_drain(fleet, make_batch(0, wl, 4, 0.0), make_batch(1, wl, 4, 0.0))
        assert e1.start_s == pytest.approx(e0.start_s + e0.build_s + e0.stage_in_s)
        assert e1.start_s < e0.completion_s  # copy ran under compute
        assert e1.compute_start_s >= e0.completion_s  # GEMMs serialize

    @pytest.mark.parametrize("wl, copy_bound, makespan", ENGINE_BOUNDS)
    def test_equal_batches_end_at_the_bound_engine(self, wl, copy_bound, makespan):
        # Equal batches on one worker with a warm plan cache: when copying
        # dominates the run ends at the sum of the stage-ins plus the last
        # GEMM; when compute dominates, at the first stage-in plus the sum
        # of the GEMMs. Both when the engines get every batch at once and
        # when the dispatcher hands them over as the worker accepts.
        n = 5
        device = Device("A100", ExecutionMode.DRY_RUN)
        cache = PlanCache()
        entry, _ = cache.get(device, wl, 4)
        assert (entry.stage_in_s > entry.gemm_s) is copy_bound
        want = makespan(n, entry.stage_in_s, entry.gemm_s)
        worker = FleetDispatcher([device], cache=cache).workers[0]
        at_once = [worker.schedule(make_batch(i, wl, 4, 0.0), entry, 0.0, 0.0) for i in range(n)]
        assert at_once[-1].completion_s == pytest.approx(want)
        fleet = FleetDispatcher([device], cache=cache)
        drained = submit_and_drain(fleet, *[make_batch(i, wl, 4, 0.0) for i in range(n)])
        assert [e.build_s for e in drained] == [0.0] * n
        assert drained[-1].completion_s == pytest.approx(want)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    @pytest.mark.parametrize("wl, copy_bound, makespan", ENGINE_BOUNDS)
    def test_closed_form_holds_for_every_batch_count(self, wl, copy_bound, makespan, n):
        # Batch i ends at its own closed form, not only the last one: the
        # bound engine never idles once it has started.
        device = Device("A100", ExecutionMode.DRY_RUN)
        cache = PlanCache()
        entry, _ = cache.get(device, wl, 4)
        worker = FleetDispatcher([device], cache=cache).workers[0]
        ends = [
            worker.schedule(make_batch(i, wl, 4, 0.0), entry, 0.0, 0.0).completion_s
            for i in range(n)
        ]
        want = [makespan(i + 1, entry.stage_in_s, entry.gemm_s) for i in range(n)]
        assert ends == pytest.approx(want)

    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_run_ends_at_the_slower_engine(self, gpu):
        # On every device, equal batches end at max(s + n*g, n*s + g):
        # never before either engine has done all its work, and earlier
        # than running each stage-in and GEMM back to back.
        n, wl = 6, workload()
        device = Device(gpu, ExecutionMode.DRY_RUN)
        cache = PlanCache()
        entry, _ = cache.get(device, wl, 4)
        s, g = entry.stage_in_s, entry.gemm_s
        worker = FleetDispatcher([device], cache=cache).workers[0]
        last = [worker.schedule(make_batch(i, wl, 4, 0.0), entry, 0.0, 0.0) for i in range(n)][-1]
        assert last.completion_s == pytest.approx(max(s + n * g, n * s + g))
        assert last.completion_s < n * (s + g)
        assert worker.busy_s == pytest.approx(n * g)

    def test_no_stage_in_runs_gemms_back_to_back(self):
        # Without a transpose a float16 workload stages nothing: the copy
        # engine has no work to hide, and the GEMMs run back to back.
        n, wl = 4, workload(include_transpose=False)
        device = Device("A100", ExecutionMode.DRY_RUN)
        cache = PlanCache()
        entry, _ = cache.get(device, wl, 4)
        assert entry.stage_in_s == 0.0
        worker = FleetDispatcher([device], cache=cache).workers[0]
        ends = [
            worker.schedule(make_batch(i, wl, 4, 0.0), entry, 0.0, 0.0).completion_s
            for i in range(n)
        ]
        assert ends == pytest.approx([(i + 1) * entry.gemm_s for i in range(n)])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batches_complete_in_submission_order(self, n):
        wl = workload()
        drained = submit_and_drain(dry_fleet(1), *[make_batch(i, wl, 2, 0.0) for i in range(n)])
        assert [e.batch.bid for e in drained] == list(range(n))
        ends = [e.completion_s for e in drained]
        assert ends == sorted(ends)
        assert len(set(ends)) == n
        for prev, nxt in zip(drained, drained[1:]):
            assert nxt.compute_start_s >= prev.completion_s

    def test_build_serializes_before_stage_in(self):
        fleet = dry_fleet(1)
        [e] = submit_and_drain(fleet, make_batch(0, workload(), 2, 1.0))
        assert e.build_s > 0.0  # cold cache
        assert e.compute_start_s >= e.start_s + e.build_s + e.stage_in_s
        assert e.completion_s == pytest.approx(e.compute_start_s + e.gemm_s)

    def test_warm_cache_has_no_build_charge(self):
        fleet = dry_fleet(1)
        wl = workload()
        _, e = submit_and_drain(fleet, make_batch(0, wl, 2, 0.0), make_batch(1, wl, 2, 0.0))
        assert e.build_s == 0.0

    def test_idle_worker_starts_at_ready_time(self):
        fleet = dry_fleet(1)
        [e] = submit_and_drain(fleet, make_batch(0, workload(), 1, 5.0))
        assert e.ready_s == 5.0
        assert e.start_s == 5.0

    def test_utilization_accounting(self):
        fleet = dry_fleet(2)
        wl = workload()
        submit_and_drain(fleet, make_batch(0, wl, 2, 0.0))
        utils = fleet.utilizations()
        assert utils[0] > 0.0
        assert utils[1] == 0.0


class TestFunctionalMerge:
    def test_outputs_scatter_back_per_request(self, rng):
        wl = workload(
            n_beams=8, n_receivers=16, n_samples=8,
            include_transpose=False, restore_output_scale=True,
            weights=random_complex(rng, (1, 8, 16)),
        )
        fleet = FleetDispatcher([Device("A100")])
        data = [random_complex(rng, (1, 16, 8)) for _ in range(3)]
        batch = Batch(
            bid=0,
            workload=wl,
            requests=[
                Request(rid=i, workload=wl, arrival_s=0.0, data=d)
                for i, d in enumerate(data)
            ],
            formed_s=0.0,
        )
        [execution] = submit_and_drain(fleet, batch)
        assert execution.outputs is not None and len(execution.outputs) == 3
        for d, out in zip(data, execution.outputs):
            assert np.allclose(out, wl.weights @ d, atol=0.05)

    def test_functional_requires_weights_and_data(self, rng):
        bare = workload(n_beams=8, n_receivers=16, n_samples=8)
        fleet = FleetDispatcher([Device("A100")])
        with pytest.raises(ShapeError, match="weight set"):
            submit_and_drain(
                fleet, make_batch(0, bare, 1, 0.0, data=random_complex(rng, (1, 16, 8)))
            )
        armed = workload(
            name="armed", n_beams=8, n_receivers=16, n_samples=8,
            weights=random_complex(rng, (1, 8, 16)),
        )
        with pytest.raises(ShapeError, match="data block"):
            submit_and_drain(fleet, make_batch(1, armed, 1, 0.0))


class TestBatchMergeHelpers:
    def test_merge_then_split_round_trip(self, rng):
        # merge_batch_operands stacks requests; split_batched_output hands
        # each request back exactly its slice.
        w = random_complex(rng, (2, 4, 8))
        blocks = [random_complex(rng, (2, 8, 6)) for _ in range(3)]
        mw, md = merge_batch_operands(w, blocks)
        assert mw.shape == (6, 4, 8)
        assert md.shape == (6, 8, 6)
        out = np.einsum("bmk,bkn->bmn", mw, md)
        parts = split_batched_output(out, [2, 2, 2])
        for block, part in zip(blocks, parts):
            assert np.allclose(part, np.einsum("bmk,bkn->bmn", w, block))

    def test_merge_accepts_2d_weights(self, rng):
        w = random_complex(rng, (4, 8))
        blocks = [random_complex(rng, (8, 6)) for _ in range(2)]
        mw, md = merge_batch_operands(w, blocks)
        assert mw.shape == (2, 4, 8)
        assert md.shape == (2, 8, 6)

    def test_merge_rejects_incompatible_blocks(self, rng):
        w = random_complex(rng, (2, 4, 8))
        with pytest.raises(ShapeError):
            merge_batch_operands(w, [])
        with pytest.raises(ShapeError):
            merge_batch_operands(w, [random_complex(rng, (2, 7, 6))])  # bad K
        with pytest.raises(ShapeError):
            merge_batch_operands(
                w, [random_complex(rng, (2, 8, 6)), random_complex(rng, (2, 8, 5))]
            )

    def test_split_validates_extents(self, rng):
        out = random_complex(rng, (6, 4, 5))
        with pytest.raises(ShapeError):
            split_batched_output(out, [])
        with pytest.raises(ShapeError):
            split_batched_output(out, [4, 0, 2])
        with pytest.raises(ShapeError):
            split_batched_output(out, [4, 4])
        parts = split_batched_output(out, [4, 2])
        assert [p.shape[0] for p in parts] == [4, 2]
        # Views, not copies: the serving layer returns slices of the block.
        assert parts[0].base is not None

    def test_merge_single_element_batch(self, rng):
        # One request is a legal merge: weights repeat once, data pass through.
        weights = random_complex(rng, (1, 4, 8))
        block = random_complex(rng, (1, 8, 6))
        merged_w, merged_d = merge_batch_operands(weights, [block])
        assert merged_w.shape == (1, 4, 8)
        assert np.array_equal(merged_d, block)
        [back] = split_batched_output(merged_d, [1])
        assert np.array_equal(back, block)

    def test_merge_empty_request_list_rejected(self, rng):
        with pytest.raises(ShapeError, match="empty request list"):
            merge_batch_operands(random_complex(rng, (1, 4, 8)), [])

    def test_split_output_empty_extents_rejected(self, rng):
        with pytest.raises(ShapeError, match="empty extent list"):
            split_batched_output(random_complex(rng, (2, 4, 6)), [])

    def test_merge_repeats_the_weights_once_per_request(self, rng):
        w = random_complex(rng, (2, 4, 8))
        mw, _ = merge_batch_operands(w, [random_complex(rng, (2, 8, 6)) for _ in range(3)])
        for i in range(3):
            assert np.array_equal(mw[2 * i : 2 * i + 2], w)

    def test_merge_rejects_a_per_request_batch_mismatch(self, rng):
        w = random_complex(rng, (2, 4, 8))
        with pytest.raises(ShapeError, match="per-request batch and K must match"):
            merge_batch_operands(w, [random_complex(rng, (3, 8, 6))])

    def test_merge_keeps_the_request_order_of_2d_blocks(self, rng):
        blocks = [random_complex(rng, (8, 6)) for _ in range(3)]
        _, md = merge_batch_operands(random_complex(rng, (4, 8)), blocks)
        for block, row in zip(blocks, md):
            assert np.array_equal(row, block)

    def test_split_keeps_the_trailing_axes(self, rng):
        out = random_complex(rng, (5, 3, 7))
        parts = split_batched_output(out, [1, 3, 1])
        assert [p.shape for p in parts] == [(1, 3, 7), (3, 3, 7), (1, 3, 7)]
        assert np.array_equal(np.concatenate(parts), out)


class TestTieBreaking:
    """least_loaded(workers, now) must be index-stable, not list-order-lucky.

    The regression: picking ``min`` over float backlogs alone leaves the
    winner among equal backlogs to incidental list order. The key is
    pinned to (backlog, index) so equal-backlog ties always resolve to the
    lowest worker index — and replay determinism never depends on how the
    worker list happened to be built.
    """

    def test_idle_fleet_ties_resolve_to_lowest_index(self):
        fleet = dry_fleet(4)
        assert least_loaded(fleet.workers, 0.0).index == 0

    def test_equal_nonzero_backlogs_tie_on_index(self):
        fleet = dry_fleet(3)
        wl = workload()
        # Identical batches give workers 0..2 byte-identical float backlogs.
        submit_and_drain(fleet, *[make_batch(i, wl, 2, 0.0) for i in range(3)])
        backlogs = [w.backlog_s(0.0) for w in fleet.workers]
        assert backlogs[0] == backlogs[1] == backlogs[2] > 0.0
        assert least_loaded(fleet.workers, 0.0).index == 0

    def test_routing_key_orders_backlog_before_index(self):
        fleet = dry_fleet(2)
        wl = workload()
        submit_and_drain(fleet, make_batch(0, wl, 4, 0.0))  # load worker 0
        assert least_loaded(fleet.workers, 0.0).index == 1

    def test_reversed_worker_list_same_winner(self):
        # The pin itself: even if the internal worker list is reordered,
        # the tie goes to the lowest *index*, not the first list element.
        fleet = dry_fleet(3)
        fleet.workers.reverse()
        assert [w.index for w in fleet.workers] == [2, 1, 0]
        assert least_loaded(fleet.workers, 0.0).index == 0

    def test_empty_worker_list_has_no_winner(self):
        assert least_loaded([], 0.0) is None

    def test_drain_path_uses_same_tie_break(self):
        from repro.serve import PriorityScheduler

        fleet = FleetDispatcher(
            [Device("A100", ExecutionMode.DRY_RUN) for _ in range(2)],
            scheduler=PriorityScheduler(),
        )
        wl = workload()
        fleet.submit(make_batch(0, wl, 1, 0.0))
        fleet.submit(make_batch(1, wl, 1, 0.0))
        placed = fleet.drain(0.0)
        assert [e.worker_index for e in placed] == [0, 1]


class TestSharedCache:
    def test_each_device_pays_its_own_build(self):
        # Plans hold device-resident state (prepared weights, timeline), so
        # even same-model GPUs fault in their own entry; repeats hit.
        cache = PlanCache()
        fleet = FleetDispatcher(
            [Device("A100", ExecutionMode.DRY_RUN) for _ in range(2)], cache=cache
        )
        wl = workload()
        # Worker 0 takes the first batch (a miss), worker 1 the second (its own miss).
        e0, e1 = submit_and_drain(fleet, make_batch(0, wl, 2, 0.0), make_batch(1, wl, 2, 0.0))
        assert (e0.worker_index, e1.worker_index) == (0, 1)
        assert e0.build_s > 0.0 and e1.build_s > 0.0
        assert cache.misses == 2
        [e2] = submit_and_drain(fleet, make_batch(2, wl, 2, 1.0))  # warm now
        assert e2.build_s == 0.0
        assert cache.hits == 1

    def test_functional_kernels_land_on_the_executing_device(self, rng, kernel_runs):
        # The regression behind the per-device cache key: worker 1's
        # batches must run on worker 1's device.
        wl = workload(
            n_beams=8, n_receivers=16, n_samples=8, include_transpose=False,
            weights=random_complex(rng, (1, 8, 16)),
        )
        devices = [Device("A100") for _ in range(2)]
        fleet = FleetDispatcher(devices)
        submit_and_drain(
            fleet,
            *[make_batch(i, wl, 1, 0.0, data=random_complex(rng, (1, 16, 8))) for i in range(4)],
        )
        assert {e.worker_index for e in fleet.executions} == {0, 1}
        executed = [id(device) for what, device in kernel_runs if what == "Gemm.run"]
        assert executed == [id(devices[e.worker_index]) for e in fleet.executions]


class TestDrainFallbackOnlyCapableWorker:
    """A draining worker that is the sole capable one must still serve.

    Direct unit coverage of the ``_candidates`` fallback behind
    ``refresh_candidates``/``begin_drain``: a batch admitted before the
    drain began, whose every capable worker is now draining, re-stamps
    onto the draining pool instead of stranding with zero candidates.
    """

    def _mixed_fleet(self):
        # Worker 0 (A100) is the only one capable of int1; worker 1
        # (MI300X) lacks the precision entirely.
        return FleetDispatcher(
            [Device("A100", ExecutionMode.DRY_RUN),
             Device("MI300X", ExecutionMode.DRY_RUN)]
        )

    def _int1(self):
        from repro.ccglib.precision import Precision

        return workload(name="bits", precision=Precision.INT1)

    def test_refresh_candidates_falls_back_to_draining_worker(self):
        fleet = self._mixed_fleet()
        batch = make_batch(0, self._int1(), 2, 0.0)
        fleet.submit(batch)
        assert batch.candidate_indices == (0,)
        fleet.begin_drain(0, now=0.0)
        # refresh_candidates ran inside begin_drain: the draining worker
        # stays stamped because nothing accepting is capable.
        assert batch.candidate_indices == (0,)

    def test_held_batch_keeps_draining_worker_after_refresh(self):
        fleet = self._mixed_fleet()
        wl = self._int1()
        first = make_batch(0, wl, 2, 0.0)
        second = make_batch(1, wl, 2, 0.0)
        fleet.submit(first)
        fleet.submit(second)
        placed = fleet.drain(0.0)
        assert [e.batch.bid for e in placed] == [0]
        assert fleet._held and fleet._held[0].bid == 1  # worker 0 busy
        fleet.begin_drain(0, now=0.0)
        assert second.candidate_indices == (0,)

    def test_committed_batch_dispatches_on_the_draining_worker(self):
        fleet = self._mixed_fleet()
        batch = make_batch(0, self._int1(), 2, 0.0)
        fleet.submit(batch)
        fleet.begin_drain(0, now=0.0)
        [execution] = fleet.drain(0.0)
        assert execution.worker_index == 0
        assert execution.completion_s > 0.0

    def test_draining_worker_not_reaped_while_referenced(self):
        fleet = self._mixed_fleet()
        batch = make_batch(0, self._int1(), 2, 0.0)
        fleet.submit(batch)
        fleet.begin_drain(0, now=0.0)
        # Still referenced by the queued batch: retirement must wait.
        assert fleet.next_retire_s() is None
        assert fleet.reap(10.0) == []
        [execution] = fleet.drain(0.0)
        retired = fleet.reap(execution.completion_s)
        assert [w.index for w in retired] == [0]
