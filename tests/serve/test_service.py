"""BeamformingService end to end: acceptance bars of the serving tier."""

from __future__ import annotations

import numpy as np

from repro.apps.radioastronomy.beamformer import service_workload as _lofar_pipeline
from repro.apps.ultrasound.imaging import service_workload as _ultrasound_pipeline
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    AdmissionController,
    BatchingPolicy,
    BeamformingService,
    Request,
    poisson_arrivals,
)
from tests.conftest import random_complex

def lofar_workload(**kwargs):
    """The LOFAR adapter's bare kernel (the documented migration unwrap)."""
    return _lofar_pipeline(**kwargs).kernel


def ultrasound_workload(**kwargs):
    """The ultrasound adapter's bare kernel (the documented migration unwrap)."""
    return _ultrasound_pipeline(**kwargs).kernel


#: the serving scenario of the acceptance bar: small GPU-resident beam
#: blocks, one A100, 5 ms p99 SLO.
BEAM_BLOCK = lofar_workload()
SLO_5MS = SLO(p99_latency_s=5e-3)


def dry_fleet(n: int = 1) -> list[Device]:
    return [Device("A100", ExecutionMode.DRY_RUN) for _ in range(n)]


def overload_trace(factor: float = 5.0, horizon_s: float = 0.01, seed: int = 11):
    t_request = BEAM_BLOCK.make_plan(dry_fleet()[0], 1).predict_block_cost().time_s
    return poisson_arrivals(BEAM_BLOCK, factor / t_request, horizon_s, seed=seed)


def run_service(requests, max_batch, n_devices=1, slo=SLO_5MS, admission=None):
    service = BeamformingService(
        dry_fleet(n_devices),
        policy=BatchingPolicy(max_batch=max_batch, max_wait_s=200e-6),
        slo=slo,
        admission=admission,
    )
    return service.run(requests)


class TestAcceptanceBars:
    def test_batching_sustains_3x_naive_throughput_within_slo(self):
        # The PR's headline criterion: same Poisson overload, >= 3x the
        # naive per-request throughput, p99 inside the SLO.
        trace = overload_trace()
        naive = run_service(trace, max_batch=1)
        batched = run_service(trace, max_batch=32)
        assert batched.throughput_rps >= 3.0 * naive.throughput_rps
        assert batched.slo_attained
        assert batched.p99_latency_s <= SLO_5MS.p99_latency_s
        assert batched.shed_rate == 0.0

    def test_fixed_seed_simulation_is_deterministic(self):
        first = run_service(overload_trace(seed=7), max_batch=16)
        second = run_service(overload_trace(seed=7), max_batch=16)
        assert first.throughput_rps == second.throughput_rps
        assert first.p99_latency_s == second.p99_latency_s
        assert first.latencies_s == second.latencies_s
        assert first.n_batches == second.n_batches
        assert first.shed_rate == second.shed_rate

    def test_two_devices_scale_naive_throughput(self):
        trace = overload_trace()
        one = run_service(trace, max_batch=1, n_devices=1)
        two = run_service(trace, max_batch=1, n_devices=2)
        assert two.throughput_rps >= 1.8 * one.throughput_rps


class TestAdmissionControl:
    def test_overload_sheds_instead_of_unbounded_tail(self):
        trace = overload_trace()
        naive = run_service(trace, max_batch=1)
        assert naive.shed_rate > 0.3  # the front door did its job
        # What was admitted still met its deadline.
        assert naive.p99_latency_s <= SLO_5MS.admission_deadline_s * 1.05

    def test_no_shedding_when_capacity_is_ample(self):
        light = poisson_arrivals(BEAM_BLOCK, 1000.0, 0.01, seed=3)
        report = run_service(light, max_batch=8)
        assert report.shed_rate == 0.0
        assert report.n_completed == len(light)

    def test_run_is_single_shot(self):
        import pytest

        from repro.errors import ShapeError

        trace = overload_trace(horizon_s=0.002)
        service = BeamformingService(
            dry_fleet(), policy=BatchingPolicy(max_batch=8, max_wait_s=200e-6),
            slo=SLO_5MS,
        )
        service.run(trace)
        with pytest.raises(ShapeError, match="single-shot"):
            service.run(trace)

    def test_queue_depth_cap(self):
        trace = overload_trace()
        admission = AdmissionController(SLO(p99_latency_s=1e9), max_queue_depth=32)
        report = run_service(trace, max_batch=1, admission=admission)
        assert report.shed_rate > 0.0

    def test_every_offered_request_has_an_outcome(self):
        trace = overload_trace()
        report = run_service(trace, max_batch=8)
        assert report.n_offered == len(trace)
        assert [o.request.rid for o in report.outcomes] == [r.rid for r in trace]
        for outcome in report.outcomes:
            if outcome.admitted:
                assert outcome.completion_s is not None
                assert outcome.latency_s >= 0.0
            else:
                assert outcome.completion_s is None


class TestPlanCache:
    def test_steady_state_hits(self):
        report = run_service(overload_trace(), max_batch=32)
        assert report.cache_hit_rate > 0.9
        # Builds bounded by the distinct merged extents, not the launches.
        assert report.cache_misses <= 32
        assert report.n_batches > report.cache_misses

    def test_report_summary_renders(self):
        report = run_service(overload_trace(horizon_s=0.003), max_batch=8)
        text = report.summary()
        assert "p99" in text and "cache hit rate" in text and "shed" in text


class TestFunctionalService:
    def test_outputs_match_reference_through_batching(self, rng):
        b, m, k, n = 2, 8, 16, 12
        weights = random_complex(rng, (b, m, k))
        wl = lofar_workload(n_beams=m, n_stations=k, n_samples=n, n_channels=b, weights=weights)
        requests = [
            Request(
                rid=i, workload=wl, arrival_s=i * 1e-5,
                data=random_complex(rng, (b, k, n)),
            )
            for i in range(7)
        ]
        service = BeamformingService(
            [Device("A100")],
            policy=BatchingPolicy(max_batch=3, max_wait_s=1e-4),
            slo=SLO(p99_latency_s=1.0),
        )
        report = service.run(requests)
        assert report.n_completed == 7
        assert report.mean_batch_size > 1.0
        for outcome in report.outcomes:
            reference = weights @ outcome.request.data
            assert outcome.output.shape == reference.shape
            assert np.allclose(outcome.output, reference, atol=0.05)


class TestAppWorkloads:
    def test_lofar_entry_point_accounting(self):
        wl = lofar_workload()
        assert wl.include_transpose is False  # GPU-resident (paper §V-B)
        assert wl.restore_output_scale is True
        plan = wl.make_plan(dry_fleet()[0], 2)
        assert plan.batch == 2 * wl.batch_per_request

    def test_ultrasound_entry_point_accounting(self):
        from repro.ccglib.precision import Precision

        wl = ultrasound_workload(n_voxels=1024, k=512, n_frames=32)
        assert wl.include_transpose is True  # Fig 5 accounting
        assert wl.make_plan(dry_fleet()[0]).include_packing is True  # int1
        assert wl.precision is Precision.INT1
        report = BeamformingService(
            dry_fleet(),
            policy=BatchingPolicy(max_batch=4, max_wait_s=1e-4),
            slo=SLO(p99_latency_s=0.1),
        ).run(poisson_arrivals(wl, 2000.0, 0.005, seed=5))
        assert report.n_completed > 0
        assert report.slo_attained
