"""Priority classes end to end through BeamformingService.

The acceptance bars of the priority-scheduling PR: class isolation under
overload, lowest-class-first shedding, weighted-fair tenant service, and
per-class batching-policy overrides — all on the same deterministic
discrete-event simulation the rest of the serving tier uses.
"""

from __future__ import annotations

from repro.apps.radioastronomy.beamformer import service_workload as _lofar_pipeline
from repro.apps.ultrasound.imaging import service_workload as _ultrasound_pipeline
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    merge_arrivals,
    poisson_arrivals,
)

def lofar_workload(**kwargs):
    """The LOFAR adapter's bare kernel (the documented migration unwrap)."""
    return _lofar_pipeline(**kwargs).kernel


def ultrasound_workload(**kwargs):
    """The ultrasound adapter's bare kernel (the documented migration unwrap)."""
    return _ultrasound_pipeline(**kwargs).kernel


SLO_5MS = SLO(p99_latency_s=5e-3)
INTERACTIVE_POLICY = BatchingPolicy(max_batch=4, max_wait_s=50e-6)
BATCH_POLICY = BatchingPolicy(max_batch=32, max_wait_s=1e-3)


def dry_fleet(n: int = 1) -> list[Device]:
    return [Device("A100", ExecutionMode.DRY_RUN) for _ in range(n)]


def interactive_workload():
    """Live ultrasound frames: priority 0, tenant 'clinic' (the defaults)."""
    return ultrasound_workload(n_voxels=4096, k=1024, n_frames=64)


def batch_workload(tenant: str = "astronomy"):
    """Offline pulsar reprocessing: priority 1 by default."""
    return lofar_workload(n_samples=2048, tenant=tenant)


def batched_capacity_hz(workload) -> float:
    merged = BATCH_POLICY.max_batch
    return merged / workload.make_plan(dry_fleet()[0], merged).predict_gemm_cost().time_s


def priority_service(tenant_weights=None, slo=SLO_5MS):
    return BeamformingService(
        dry_fleet(),
        policy=BATCH_POLICY,
        class_policies={0: INTERACTIVE_POLICY},
        slo=slo,
        tenant_weights=tenant_weights,
    )


def overload_trace(horizon_s: float = 0.006, seed: int = 11):
    """Interactive trickle + batch class at 5x the batched capacity."""
    interactive = interactive_workload()
    batch = batch_workload()
    rate = 5.0 * batched_capacity_hz(batch)
    return merge_arrivals(
        poisson_arrivals(interactive, 24000.0, horizon_s, seed=seed),
        poisson_arrivals(batch, rate, horizon_s, seed=seed + 1),
    )


class TestClassIsolation:
    def test_interactive_p99_holds_under_batch_overload(self):
        report = priority_service().run(overload_trace())
        by_class = {s.label: s for s in report.by_priority()}
        interactive = by_class["priority=0"]
        assert interactive.n_completed == interactive.n_offered  # nothing shed
        assert interactive.p99_latency_s <= SLO_5MS.p99_latency_s
        # The batch class, not the interactive one, absorbed the overload.
        assert by_class["priority=1"].shed_rate > 0.5

    def test_shedding_comes_from_lowest_class_only(self):
        report = priority_service().run(overload_trace())
        assert report.shed_rate > 0.0
        assert report.shed_share(1) >= 0.9
        assert report.shed_share(0) <= 0.1

    def test_batches_never_mix_priority_classes(self):
        service = priority_service()
        service.run(overload_trace(horizon_s=0.003))
        for execution in service.fleet.executions:
            priorities = {r.workload.priority for r in execution.batch.requests}
            tenants = {r.workload.tenant for r in execution.batch.requests}
            assert len(priorities) == 1
            assert len(tenants) == 1

    def test_class_policy_overrides_apply(self):
        service = priority_service()
        service.run(overload_trace(horizon_s=0.003))
        interactive_sizes = [
            e.batch.n_requests
            for e in service.fleet.executions
            if e.batch.priority == 0
        ]
        batch_sizes = [
            e.batch.n_requests
            for e in service.fleet.executions
            if e.batch.priority == 1
        ]
        assert interactive_sizes and batch_sizes
        assert max(interactive_sizes) <= INTERACTIVE_POLICY.max_batch
        assert max(batch_sizes) <= BATCH_POLICY.max_batch
        assert max(batch_sizes) > INTERACTIVE_POLICY.max_batch  # deep batching happened

    def test_preemption_charges_in_flight_wait_to_preemptor(self):
        # In-flight executions run to completion: an urgent batch never
        # starts its GEMM before already-started work frees the engine,
        # and its wait shows up as its own queue delay (non-destructive).
        service = priority_service()
        report = service.run(overload_trace(horizon_s=0.003))
        executions = sorted(service.fleet.executions, key=lambda e: e.compute_start_s)
        for prev, nxt in zip(executions, executions[1:]):
            assert nxt.compute_start_s >= prev.completion_s - 1e-12
        assert report.n_completed > 0

    def test_summary_includes_class_breakdown(self):
        report = priority_service().run(overload_trace(horizon_s=0.003))
        text = report.summary()
        assert "priority=0" in text
        assert "priority=1" in text
        assert "of all shedding" in text


class TestWeightedFairService:
    def test_three_to_one_tenant_weights_within_ten_percent(self):
        # Two equal-priority tenants, weights 3:1, both saturating the
        # device: dispatch service over the contended window must sit
        # within 10% of 3:1 (the PR's weighted-fair acceptance bar).
        horizon_s = 0.01
        wl_a = batch_workload(tenant="pulsar-a")
        wl_b = batch_workload(tenant="pulsar-b")
        rate = batched_capacity_hz(wl_a)
        trace = merge_arrivals(
            poisson_arrivals(wl_a, rate, horizon_s, seed=21),
            poisson_arrivals(wl_b, rate, horizon_s, seed=22),
        )
        service = priority_service(
            tenant_weights={"pulsar-a": 3.0, "pulsar-b": 1.0},
            slo=SLO(p99_latency_s=10.0),  # no shedding: measure the scheduler
        )
        service.run(trace)
        served = {"pulsar-a": 0, "pulsar-b": 0}
        for execution in service.fleet.executions:
            if execution.start_s <= horizon_s:  # both tenants still backlogged
                served[execution.batch.tenant] += execution.batch.n_requests
        ratio = served["pulsar-a"] / served["pulsar-b"]
        assert 2.7 <= ratio <= 3.3

    def test_unweighted_tenants_split_evenly(self):
        horizon_s = 0.006
        wl_a = batch_workload(tenant="x")
        wl_b = batch_workload(tenant="y")
        rate = batched_capacity_hz(wl_a)
        trace = merge_arrivals(
            poisson_arrivals(wl_a, rate, horizon_s, seed=31),
            poisson_arrivals(wl_b, rate, horizon_s, seed=32),
        )
        service = priority_service(slo=SLO(p99_latency_s=10.0))
        service.run(trace)
        served = {"x": 0, "y": 0}
        for execution in service.fleet.executions:
            if execution.start_s <= horizon_s:
                served[execution.batch.tenant] += execution.batch.n_requests
        ratio = served["x"] / served["y"]
        assert 0.85 <= ratio <= 1.18


class TestReplayDeterminism:
    def test_priority_run_is_bit_identical(self):
        first = priority_service(tenant_weights={"astronomy": 2.0}).run(overload_trace(seed=5))
        second = priority_service(tenant_weights={"astronomy": 2.0}).run(overload_trace(seed=5))
        assert first.latencies_s == second.latencies_s
        assert first.n_batches == second.n_batches
        assert [
            (s.label, s.n_offered, s.n_completed, s.p99_latency_s)
            for s in first.by_priority()
        ] == [
            (s.label, s.n_offered, s.n_completed, s.p99_latency_s)
            for s in second.by_priority()
        ]
