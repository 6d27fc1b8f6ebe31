"""Critical-path latency attribution: hand-checked and exact.

Two layers of assurance:

* **hand-built scenarios** — outcomes and executions are constructed
  directly with times chosen on exact binary fractions, the six-segment
  decomposition is computed by hand in the comments, and every segment is
  asserted with ``==`` (no tolerances);
* **whole-run invariants** — across real traced runs (plain, priority,
  heterogeneous, autoscaled), every completed request's segments must sum
  *bit-exactly* to its recorded latency and no segment may be negative.
"""

from __future__ import annotations

import pytest

from repro.bench import serve_autoscale, serve_hetero, serve_priority
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    Request,
    Workload,
    poisson_arrivals,
)
from repro.serve.batching import Batch
from repro.serve.dispatch import BatchExecution
from repro.serve.obs.critical_path import SEGMENTS, attribute, blame
from repro.serve.service import RequestOutcome, StageLink
from tests.serve.test_service import overload_trace


def _workload(name: str, priority: int, tenant: str = "default") -> Workload:
    return Workload(
        name=name, n_beams=8, n_receivers=8, n_samples=64,
        priority=priority, tenant=tenant,
    )


def _completed(req: Request, batch_id: int, completion_s: float) -> RequestOutcome:
    """A completed one-stage request, as the service records it."""
    return RequestOutcome(
        request=req,
        admitted=True,
        batch_id=batch_id,
        completion_s=completion_s,
        stage_chain=(StageLink(req.stage, batch_id, req.arrival_s, completion_s),),
    )


def _execution(batch: Batch, worker_index: int, *, start_s: float,
               compute_start_s: float, completion_s: float,
               stage_in_s: float, build_s: float) -> BatchExecution:
    return BatchExecution(
        batch=batch,
        device_name="A100",
        worker_index=worker_index,
        ready_s=batch.formed_s,
        start_s=start_s,
        compute_start_s=compute_start_s,
        completion_s=completion_s,
        stage_in_s=stage_in_s,
        gemm_s=completion_s - compute_start_s,
        build_s=build_s,
    )


class TestHandBuiltTwoRequestScenario:
    """The satellite scenario: every segment derived by hand.

    Request A (priority 1) arrives at t=0, its batch forms at 0.25, and
    while it waits, request B (priority 0, formed *later* at 0.5) runs on
    the same worker over [0.5, 0.75) — a textbook preemption. A then
    starts at 1.0, pays a 0.125 s plan build, a 0.25 s stage-in, waits
    0.125 s for the compute engine, and computes over [1.5, 2.0).
    """

    def _scenario(self):
        req_a = Request(rid=1, workload=_workload("batchwork", priority=1), arrival_s=0.0)
        req_b = Request(rid=2, workload=_workload("urgent", priority=0), arrival_s=0.375)
        batch_a = Batch(bid=10, workload=req_a.workload, requests=[req_a], formed_s=0.25)
        batch_b = Batch(bid=20, workload=req_b.workload, requests=[req_b], formed_s=0.5)
        exec_a = _execution(
            batch_a, 0, start_s=1.0, compute_start_s=1.5, completion_s=2.0,
            stage_in_s=0.25, build_s=0.125,
        )
        exec_b = _execution(
            batch_b, 0, start_s=0.5, compute_start_s=0.5, completion_s=0.75,
            stage_in_s=0.0, build_s=0.0,
        )
        outcomes = [
            _completed(req_a, batch_id=10, completion_s=2.0),
            _completed(req_b, batch_id=20, completion_s=0.75),
        ]
        return outcomes, [exec_a, exec_b]

    def test_preempted_request_decomposes_exactly(self):
        outcomes, executions = self._scenario()
        path_a = attribute(outcomes, executions)[0]
        # By hand: wait_for_batch = 0.25 - 0.0; the queue window [0.25, 1.0)
        # is 0.75 s of which B's compute span [0.5, 0.75) is preemption
        # (strictly more urgent AND formed strictly later), leaving 0.5 s of
        # ordinary queueing plus the 0.125 s engine wait (1.5 - 1.375);
        # cold_build = 0.125, stage_in = 0.25, compute = 2.0 - 1.5.
        assert path_a.rid == 1 and path_a.bid == 10 and path_a.worker_index == 0
        assert path_a.latency_s == 2.0
        assert path_a.wait_for_batch_s == 0.25
        assert path_a.preempted_by_s == 0.25
        assert path_a.queued_behind_s == 0.625
        assert path_a.cold_build_s == 0.125
        assert path_a.stage_in_s == 0.25
        assert path_a.compute_s == 0.5
        assert path_a.total_s == path_a.latency_s

    def test_preemptor_itself_sees_no_preemption(self):
        outcomes, executions = self._scenario()
        path_b = attribute(outcomes, executions)[1]
        # By hand: B waits 0.125 s for its batch (0.5 - 0.375), starts the
        # instant it forms, skips build and stage-in, computes 0.25 s.
        # A's span [1.5, 2.0) is less urgent, so it cannot preempt B.
        assert path_b.rid == 2
        assert path_b.latency_s == 0.375
        assert path_b.wait_for_batch_s == 0.125
        assert path_b.preempted_by_s == 0.0
        assert path_b.queued_behind_s == 0.0
        assert path_b.cold_build_s == 0.0
        assert path_b.stage_in_s == 0.0
        assert path_b.compute_s == 0.25
        assert path_b.total_s == path_b.latency_s

    def test_blame_over_both_requests_is_the_segment_means(self):
        outcomes, executions = self._scenario()
        paths = attribute(outcomes, executions)
        report = blame(paths, q=0.0)  # cohort = every request
        assert report.n_requests == 2
        # Mean seconds per segment over {A, B}, computed by hand.
        assert report.seconds["wait_for_batch"] == (0.25 + 0.125) / 2
        assert report.seconds["preempted_by"] == 0.125
        assert report.seconds["queued_behind"] == 0.3125
        assert report.seconds["cold_build"] == 0.0625
        assert report.seconds["stage_in"] == 0.125
        assert report.seconds["compute"] == 0.375
        assert sum(report.shares.values()) == pytest.approx(1.0)
        # The summary leads with the biggest segment of the cohort.
        assert report.summary().split(": ")[1].startswith("compute")

    def test_earlier_formed_urgent_work_is_queueing_not_preemption(self):
        # Same shape, but B forms *before* A's batch: draining ahead of A
        # is ordinary queueing, so preempted_by must be zero.
        outcomes, executions = self._scenario()
        batch_a = executions[0].batch
        req_b = outcomes[1].request
        early_b = Batch(bid=20, workload=req_b.workload, requests=[req_b], formed_s=0.125)
        executions[1] = _execution(
            early_b, 0, start_s=0.5, compute_start_s=0.5, completion_s=0.75,
            stage_in_s=0.0, build_s=0.0,
        )
        assert early_b.formed_s < batch_a.formed_s
        path_a = attribute(outcomes, executions)[0]
        assert path_a.preempted_by_s == 0.0
        assert path_a.queued_behind_s == 0.875
        assert path_a.total_s == path_a.latency_s

    def test_missing_execution_raises(self):
        outcomes, executions = self._scenario()
        with pytest.raises(ShapeError, match="no execution records"):
            attribute(outcomes, executions[:1])

    def test_completed_outcome_without_chain_raises(self):
        outcomes, executions = self._scenario()
        outcomes[0].stage_chain = ()
        with pytest.raises(ShapeError, match="without a stage chain"):
            attribute(outcomes, executions)


class TestSplitCriticalShard:
    def test_split_follows_the_slowest_shard(self):
        req = Request(rid=7, workload=_workload("survey", priority=1), arrival_s=0.0)
        batch = Batch(bid=30, workload=req.workload, requests=[req], formed_s=0.5)
        fast = _execution(
            batch, 0, start_s=0.5, compute_start_s=0.75, completion_s=1.0,
            stage_in_s=0.25, build_s=0.0,
        )
        slow = _execution(
            batch, 1, start_s=1.0, compute_start_s=1.25, completion_s=2.0,
            stage_in_s=0.25, build_s=0.0,
        )
        top = BatchExecution(
            batch=batch, device_name="fleet", worker_index=-1, ready_s=0.5,
            start_s=0.5, compute_start_s=0.75, completion_s=2.0,
            stage_in_s=0.0, gemm_s=0.0, build_s=0.0, shards=[fast, slow],
        )
        outcomes = [_completed(req, batch_id=30, completion_s=2.0)]
        [path] = attribute(outcomes, [top])
        # The decomposition follows shard 1 (completes at 2.0 > 1.0):
        # wait 0.5, queue window 0.5, stage_in 0.25, compute 0.75.
        assert path.worker_index == 1
        assert path.wait_for_batch_s == 0.5
        assert path.queued_behind_s == 0.5
        assert path.stage_in_s == 0.25
        assert path.compute_s == 0.75
        assert path.total_s == path.latency_s == 2.0


def _assert_paths_exact(report):
    paths = report.request_paths()
    assert len(paths) == report.n_completed > 0
    for path in paths:
        assert path.total_s == path.latency_s  # bit-exact, not approx
        assert all(value >= 0.0 for value in path.segments().values())
    return paths


class TestWholeRunInvariants:
    """Acceptance bar: segments sum exactly on every traced real run."""

    def test_plain_serve_run(self):
        devices = [Device("A100", ExecutionMode.DRY_RUN)]
        service = BeamformingService(
            devices,
            policy=BatchingPolicy(max_batch=16, max_wait_s=200e-6),
            slo=SLO(p99_latency_s=5e-3),
        )
        report = service.run(overload_trace(horizon_s=0.005))
        _assert_paths_exact(report)
        tail = report.blame()
        assert tail is not None and set(tail.seconds) == set(SEGMENTS)
        assert sum(tail.shares.values()) == pytest.approx(1.0)

    def test_priority_overload_run_sees_preemption(self):
        report = serve_priority.overload_scenario(0.004)
        paths = _assert_paths_exact(report)
        # The scenario exists to preempt batch work under interactive load.
        assert any(p.preempted_by_s > 0 for p in paths if p.priority > 0)

    def test_heterogeneous_fleet_run(self):
        _assert_paths_exact(serve_hetero.mixed_scenario(0.004))

    def test_autoscaled_run_with_cold_builds(self):
        report = serve_autoscale.reactive_scenario(serve_autoscale.GOLDEN_HORIZON_S)
        paths = _assert_paths_exact(report)
        # Scale-ups fault in fresh plans: some request pays a cold build.
        assert any(p.cold_build_s > 0 for p in paths)

    def test_ultrasound_frames_run(self):
        from repro.apps.ultrasound.imaging import service_workload

        frames = service_workload(n_voxels=2048, k=512, n_frames=32).kernel
        rate = 2.0 / frames.make_plan(
            Device("A100", ExecutionMode.DRY_RUN), 1
        ).predict_block_cost().time_s
        service = BeamformingService(
            [Device("A100", ExecutionMode.DRY_RUN)],
            policy=BatchingPolicy(max_batch=8, max_wait_s=200e-6),
            slo=SLO(p99_latency_s=5e-3),
        )
        report = service.run(poisson_arrivals(frames, rate, 0.005, seed=3))
        _assert_paths_exact(report)

    def test_blame_none_when_nothing_completed(self):
        assert blame([]) is None
