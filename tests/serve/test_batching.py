"""MicroBatcher: triggers, compatibility keys, deterministic flush order."""

from __future__ import annotations

import math

import pytest

from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import BatchingPolicy, MicroBatcher, Request, Workload


def workload(name="wl", **overrides) -> Workload:
    kwargs = dict(name=name, n_beams=8, n_receivers=16, n_samples=8)
    kwargs.update(overrides)
    return Workload(**kwargs)


def request(rid: int, wl: Workload, at: float) -> Request:
    return Request(rid=rid, workload=wl, arrival_s=at)


class TestSizeTrigger:
    def test_full_batch_flushes_immediately(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=3, max_wait_s=1.0))
        wl = workload()
        assert batcher.offer(request(0, wl, 0.0), 0.0) is None
        assert batcher.offer(request(1, wl, 0.1), 0.1) is None
        batch = batcher.offer(request(2, wl, 0.2), 0.2)
        assert batch is not None
        assert [r.rid for r in batch.requests] == [0, 1, 2]
        assert batch.formed_s == 0.2
        assert batcher.depth() == 0

    def test_max_batch_one_is_naive(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=1, max_wait_s=1.0))
        batch = batcher.offer(request(0, workload(), 0.5), 0.5)
        assert batch is not None and batch.n_requests == 1
        assert batch.formed_s == 0.5  # no wait

    def test_merged_batch_scales_with_per_request_extent(self):
        wl = workload(batch_per_request=4)
        batcher = MicroBatcher(BatchingPolicy(max_batch=2, max_wait_s=1.0))
        batcher.offer(request(0, wl, 0.0), 0.0)
        batch = batcher.offer(request(1, wl, 0.0), 0.0)
        plan = batch.workload.make_plan(Device("A100", ExecutionMode.DRY_RUN), batch.n_requests)
        assert plan.batch == 8


class TestLatencyTrigger:
    def test_due_flushes_at_deadline_not_observation(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=8, max_wait_s=0.1))
        wl = workload()
        batcher.offer(request(0, wl, 0.0), 0.0)
        assert batcher.due(0.05) == []
        batches = batcher.due(0.5)  # observed late: timer fired at 0.1
        assert len(batches) == 1
        assert batches[0].formed_s == pytest.approx(0.1)

    def test_deadline_set_by_first_member(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=8, max_wait_s=0.1))
        wl = workload()
        batcher.offer(request(0, wl, 0.0), 0.0)
        batcher.offer(request(1, wl, 0.09), 0.09)
        assert batcher.next_deadline() == pytest.approx(0.1)

    def test_end_of_trace_due_drains_everything_in_deadline_order(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=8, max_wait_s=0.1))
        late, early = workload("late"), workload("early")
        batcher.offer(request(0, late, 0.05), 0.05)
        batcher.offer(request(1, early, 0.01), 0.01)
        batches = batcher.due(math.inf)
        assert [b.workload.name for b in batches] == ["early", "late"]
        assert batcher.depth() == 0


class TestCompatibility:
    def test_incompatible_workloads_never_share_a_batch(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=2, max_wait_s=1.0))
        a, b = workload("a"), workload("b")
        assert batcher.offer(request(0, a, 0.0), 0.0) is None
        assert batcher.offer(request(1, b, 0.0), 0.0) is None
        assert batcher.depth() == 2
        batch = batcher.offer(request(2, a, 0.0), 0.0)
        assert batch is not None
        assert {r.rid for r in batch.requests} == {0, 2}

    def test_weight_version_splits_generations(self):
        # A calibration bump must fence old and new requests apart.
        old = workload("cal", weights_version=0)
        new = workload("cal", weights_version=1)
        assert old.compat_key() != new.compat_key()
        batcher = MicroBatcher(BatchingPolicy(max_batch=2, max_wait_s=1.0))
        batcher.offer(request(0, old, 0.0), 0.0)
        assert batcher.offer(request(1, new, 0.0), 0.0) is None

    def test_same_shape_different_precision_split(self):
        from repro.ccglib.precision import Precision

        f16 = workload("x", precision=Precision.FLOAT16)
        i1 = workload("x", precision=Precision.INT1)
        assert f16.compat_key() != i1.compat_key()

    def test_request_equality_safe_with_array_data(self):
        import numpy as np

        wl = workload()
        a = Request(rid=0, workload=wl, arrival_s=0.0, data=np.zeros((2, 2)))
        b = Request(rid=0, workload=wl, arrival_s=0.0, data=np.ones((2, 2)))
        assert a == b  # data excluded from comparison, no ambiguous-truth error


class TestPolicyValidation:
    def test_invalid_policy(self):
        with pytest.raises(ShapeError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ShapeError):
            BatchingPolicy(max_wait_s=-1.0)

    def test_counters(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch=2, max_wait_s=0.1))
        wl = workload()
        batcher.offer(request(0, wl, 0.0), 0.0)
        batcher.offer(request(1, wl, 0.0), 0.0)  # size flush
        batcher.offer(request(2, wl, 0.2), 0.2)
        batcher.due(math.inf)  # timer flush
        assert batcher.n_offered == 3
        assert batcher.n_flushed_full == 1
        assert batcher.n_flushed_timer == 1
