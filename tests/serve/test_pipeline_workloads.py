"""Pipeline (DAG) workloads end to end through the serving tier.

The acceptance bars of the pipeline PR, layer by layer:

* **topology** — :class:`PipelineWorkload` validation rejects cycles,
  duplicate stages, unknown or duplicate dependencies, and multi-source
  graphs at construction; ``.kernel`` is defined for single-stage
  pipelines only;
* **one lifecycle** — every request is a pipeline request: a bare
  workload and its :meth:`Workload.single_stage` pipeline replay
  bit-identically, with a one-link ``stage_chain`` on every completed
  outcome; inconsistent pipeline fields are rejected at construction;
* **end-to-end** — a multi-stage run releases every stage exactly once,
  completes at the last stage, and records a gating chain whose
  telescoping segments sum bit-exactly to the end-to-end latency — for
  bare, one-stage, three-stage and crash-retried requests alike;
* **locality** — stage-locality placement keeps more stage dispatches on
  the buffer-resident worker than stage-blind placement, at a no-worse
  tail, with both arms paying the same transfer physics;
* **recovery** — a mid-run crash under the default
  :class:`ResiliencePolicy` re-enters the pipeline at the lost stage and
  still completes every admitted request;
* **observability** — a traced run replays an untraced one bit-identically.
"""

from __future__ import annotations

import pytest

from repro.apps.radioastronomy.beamformer import pipeline_workload as radio_pipeline
from repro.apps.radioastronomy.beamformer import service_workload as lofar_service
from repro.apps.ultrasound.imaging import pipeline_workload as ultrasound_pipeline
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    FaultEvent,
    FaultKind,
    FaultPlan,
    PipelineWorkload,
    Placer,
    Request,
    ResiliencePolicy,
    Stage,
    Workload,
    crash_storm,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serve.obs.trace import TraceRecorder

POLICY = BatchingPolicy(max_batch=8, max_wait_s=100e-6)
SLO_WIDE = SLO(p99_latency_s=1.0)


def _fleet(n: int = 2, gpu: str = "A100") -> list[Device]:
    return [Device(gpu, ExecutionMode.DRY_RUN) for _ in range(n)]


def _stage_workload(name: str = "k") -> Workload:
    return Workload(name=name, n_beams=64, n_receivers=32, n_samples=128)


def _service(devices=None, **kwargs) -> BeamformingService:
    return BeamformingService(
        devices if devices is not None else _fleet(),
        policy=POLICY,
        slo=kwargs.pop("slo", SLO_WIDE),
        **kwargs,
    )


def _pipeline_trace(horizon_s: float = 0.002, rate: float = 20000.0, seed: int = 7):
    return poisson_arrivals(radio_pipeline(), rate, horizon_s, seed=seed)


def _diamond() -> PipelineWorkload:
    return PipelineWorkload(
        name="diamond",
        stages=(
            Stage(name="src", workload=_stage_workload()),
            Stage(name="left", workload=_stage_workload(), depends_on=("src",)),
            Stage(name="right", workload=_stage_workload(), depends_on=("src",)),
            Stage(name="sink", workload=_stage_workload(), depends_on=("left", "right")),
        ),
    )


class TestTopologyValidation:
    def test_cycle_is_rejected(self):
        with pytest.raises(ShapeError, match="cycle"):
            PipelineWorkload(
                name="cyclic",
                stages=(
                    Stage(name="src", workload=_stage_workload()),
                    Stage(name="a", workload=_stage_workload(), depends_on=("src", "b")),
                    Stage(name="b", workload=_stage_workload(), depends_on=("a",)),
                ),
            )

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ShapeError, match="duplicate stage names"):
            PipelineWorkload(
                name="dup",
                stages=(
                    Stage(name="a", workload=_stage_workload()),
                    Stage(name="a", workload=_stage_workload()),
                ),
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ShapeError, match="unknown stage"):
            PipelineWorkload(
                name="dangling",
                stages=(
                    Stage(name="a", workload=_stage_workload()),
                    Stage(name="b", workload=_stage_workload(), depends_on=("ghost",)),
                ),
            )

    def test_multiple_sources_rejected(self):
        with pytest.raises(ShapeError, match="exactly one source"):
            PipelineWorkload(
                name="twin",
                stages=(
                    Stage(name="a", workload=_stage_workload()),
                    Stage(name="b", workload=_stage_workload()),
                ),
            )

    def test_self_and_duplicate_dependencies_rejected(self):
        with pytest.raises(ShapeError, match="depends on itself"):
            Stage(name="a", workload=_stage_workload(), depends_on=("a",))
        with pytest.raises(ShapeError, match="duplicate dependency"):
            Stage(name="a", workload=_stage_workload(), depends_on=("b", "b"))

    def test_kernel_raises_on_multi_stage(self):
        pipeline = radio_pipeline()
        with pytest.raises(ShapeError, match="single-stage"):
            pipeline.kernel

    def test_single_stage_kernel_is_the_wrapped_workload(self):
        workload = _stage_workload()
        assert workload.single_stage().kernel is workload

    def test_diamond_topology_is_valid(self):
        diamond = _diamond()
        assert diamond.topo_order[0] == "src"
        assert diamond.topo_order[-1] == "sink"
        assert [s.name for s in diamond.stages if not diamond.successors(s.name)] == ["sink"]
        # Multi-stage pipelines qualify their stage workload names.
        assert diamond.stage("left").workload.name == "diamond/left"

    def test_pipeline_priority_and_tenant_inherited_by_every_stage(self):
        pipeline = radio_pipeline(priority=0, tenant="followup")
        assert all(s.workload.priority == 0 for s in pipeline.stages)
        assert all(s.workload.tenant == "followup" for s in pipeline.stages)


@pytest.mark.parametrize(
    "pipeline",
    [_diamond(), radio_pipeline(), ultrasound_pipeline()],
    ids=["diamond", "radio", "ultrasound"],
)
class TestTopologyLookups:
    """The precomputed lookups agree with a brute-force scan of ``stages``."""

    def test_lookups_match_brute_force(self, pipeline):
        stages = pipeline.stages
        assert pipeline.source == next(s for s in stages if not s.depends_on)
        for stage in stages:
            assert pipeline.stage(stage.name) is stage
            assert pipeline.stage_index(stage.name) == pipeline.topo_order.index(stage.name)
            assert pipeline.successors(stage.name) == tuple(
                s for s in stages if stage.name in s.depends_on
            )

    def test_unknown_names_raise(self, pipeline):
        for lookup in (pipeline.stage, pipeline.stage_index, pipeline.successors):
            with pytest.raises(ShapeError, match="has no stage 'ghost'"):
                lookup("ghost")


class TestRequestValidation:
    """Inconsistent pipeline fields are rejected when the request is built."""

    def test_workload_must_be_the_stages_workload(self):
        pipeline = radio_pipeline()
        with pytest.raises(ShapeError, match="is not the workload of stage 'channelize'"):
            Request(
                rid=0,
                workload=lofar_service().kernel,
                arrival_s=0.0,
                pipeline=pipeline,
                stage="channelize",
            )

    def test_stage_is_required_with_a_pipeline(self):
        pipeline = radio_pipeline()
        with pytest.raises(ShapeError, match="names no stage"):
            Request(rid=0, workload=pipeline.source.workload, arrival_s=0.0, pipeline=pipeline)

    def test_unknown_stage_is_rejected(self):
        pipeline = radio_pipeline()
        with pytest.raises(ShapeError, match="has no stage 'ghost'"):
            Request(
                rid=0,
                workload=pipeline.source.workload,
                arrival_s=0.0,
                pipeline=pipeline,
                stage="ghost",
            )

    def test_bare_and_pipeline_forms_fill_in_the_fields(self):
        bare = _stage_workload()
        request = Request(rid=0, workload=bare, arrival_s=0.0)
        assert request.pipeline == bare.single_stage()
        assert (request.stage, request.workload) == ("k", bare)
        pipeline = radio_pipeline()
        entry = Request(rid=1, workload=pipeline, arrival_s=0.0)
        assert entry.pipeline is pipeline
        assert entry.stage == "channelize"
        assert entry.workload is pipeline.source.workload


class TestSingleStageEquivalence:
    def test_single_stage_pipeline_replays_bare_workload_byte_identically(self):
        bare = lofar_service().kernel
        trace_bare = poisson_arrivals(bare, 30000.0, 0.002, seed=3)
        trace_pipe = poisson_arrivals(bare.single_stage(), 30000.0, 0.002, seed=3)
        a = _service().run(trace_bare)
        b = _service().run(trace_pipe)
        assert a.latencies_s == b.latencies_s
        assert a.n_batches == b.n_batches
        assert a.placements == b.placements
        # One-stage pipelines keep the bare workload name end to end.
        assert {e.batch.workload.name for e in b.executions} == {"lofar_beam_block"}
        # Every completed outcome carries exactly one link: its own stage,
        # batch, arrival and completion.
        for report in (a, b):
            completed = [o for o in report.outcomes if o.completion_s is not None]
            assert completed
            for o in completed:
                assert o.stage_chain == (
                    (o.request.stage, o.batch_id, o.request.arrival_s, o.completion_s),
                )
        assert a.request_paths() == b.request_paths()


class TestEndToEnd:
    def test_multi_stage_run_completes_every_admitted_request(self):
        report = _service().run(_pipeline_trace())
        assert report.n_offered > 0
        assert report.n_completed == report.n_admitted > 0
        counters = report.metrics.snapshot()["counters"]
        # Three stages per admitted request, released and completed once each.
        assert counters["service.stage_released"] == 3 * report.n_admitted
        assert counters["service.stage_completed"] == 3 * report.n_admitted

    def test_stage_chain_telescopes_and_sums_bit_exactly(self):
        report = _service().run(_pipeline_trace())
        completed = [o for o in report.outcomes if o.completion_s is not None]
        assert completed
        for outcome in completed:
            chain = outcome.stage_chain
            assert [link.stage for link in chain] == ["channelize", "beamform", "dedisperse"]
            assert chain[0].arrival_s == outcome.request.arrival_s
            for prev, nxt in zip(chain, chain[1:]):
                assert nxt.arrival_s == prev.completion_s  # telescoping links
            assert chain[-1].completion_s == outcome.completion_s
            # The boundaries are bit-exact (no gaps, no overlaps); the sum
            # of the per-link differences telescopes to the end-to-end
            # latency up to float-addition rounding of the partial sums.
            segments = sum(link.completion_s - link.arrival_s for link in chain)
            assert segments == pytest.approx(outcome.latency_s, rel=1e-12, abs=0.0)

    def test_same_stage_requests_coalesce_but_pipelines_never_mix(self):
        survey = radio_pipeline()
        imaging = ultrasound_pipeline()
        trace = merge_arrivals(
            poisson_arrivals(survey, 20000.0, 0.002, seed=5),
            poisson_arrivals(imaging, 20000.0, 0.002, seed=6),
        )
        report = _service().run(trace)
        names = {e.batch.workload.name for e in report.executions}
        assert names <= {
            "lofar_pulsar/channelize",
            "lofar_pulsar/beamform",
            "lofar_pulsar/dedisperse",
            "doppler_imaging/beamform",
            "doppler_imaging/doppler",
        }
        coalesced = [e for e in report.executions if e.batch.n_requests > 1]
        assert coalesced  # same-stage requests from different arrivals merged
        for execution in report.executions:
            pipelines = {r.pipeline.name for r in execution.batch.requests}
            stages = {r.stage for r in execution.batch.requests}
            assert len(pipelines) == 1
            assert len(stages) == 1


def _faulted_run():
    """Pipelines and bare blocks through a crash storm, absorbed by retries."""
    trace = merge_arrivals(
        _pipeline_trace(rate=30000.0, seed=19),
        poisson_arrivals(lofar_service().kernel, 30000.0, 0.002, seed=4),
    )
    service = _service(
        _fleet(3),
        faults=crash_storm(0.002, [0, 1, 2], n_crashes=1, seed=1),
        resilience=ResiliencePolicy(),
    )
    report = service.run(trace)
    assert report.n_retries > 0
    return report


CHAIN_RUNS = {
    "bare": lambda: _service().run(poisson_arrivals(lofar_service().kernel, 30000.0, 0.002)),
    "one-stage": lambda: _service().run(poisson_arrivals(lofar_service(), 30000.0, 0.002)),
    "three-stage": lambda: _service().run(_pipeline_trace()),
    "faulted-retries": _faulted_run,
}


@pytest.mark.parametrize("run", list(CHAIN_RUNS.values()), ids=list(CHAIN_RUNS))
def test_every_completed_chain_telescopes(run):
    """The one-lifecycle invariant, over every kind of request."""
    report = run()
    completed = [o for o in report.outcomes if o.completion_s is not None]
    assert completed
    for outcome in completed:
        chain = outcome.stage_chain
        assert [link.stage for link in chain] == list(outcome.request.pipeline.topo_order)
        assert chain[0].arrival_s == outcome.request.arrival_s
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.arrival_s == prev.completion_s
        assert chain[-1].completion_s == outcome.completion_s
        assert chain[-1].batch_id == outcome.batch_id
    for path in report.request_paths():
        assert path.total_s == path.latency_s  # bit-exact


class TestStageLocality:
    def _run(self, stage_locality: bool):
        trace = merge_arrivals(
            poisson_arrivals(radio_pipeline(), 25000.0, 0.002, seed=11),
            poisson_arrivals(ultrasound_pipeline(), 25000.0, 0.002, seed=12),
        )
        service = _service(
            [Device("GH200", ExecutionMode.DRY_RUN), Device("A100", ExecutionMode.DRY_RUN)],
            placer=Placer(stage_locality=stage_locality),
        )
        return service.run(trace)

    @staticmethod
    def _local_fraction(report) -> float:
        counters = report.metrics.snapshot()["counters"]
        local = counters.get("dispatch.stage_local", 0)
        remote = counters.get("dispatch.stage_remote", 0)
        return local / (local + remote)

    def test_locality_beats_stage_blind_on_residency_and_tail(self):
        locality = self._run(stage_locality=True)
        blind = self._run(stage_locality=False)
        assert self._local_fraction(locality) > self._local_fraction(blind)
        assert locality.p99_latency_s <= blind.p99_latency_s

    def test_locality_waits_for_the_resident_worker_by_policy(self):
        locality = self._run(stage_locality=True)
        blind = self._run(stage_locality=False)
        assert locality.metrics.snapshot()["counters"].get("dispatch.stage_waits", 0) > 0
        assert blind.metrics.snapshot()["counters"].get("dispatch.stage_waits", 0) == 0


class TestStageFailureRecovery:
    def _crash_plan(self) -> FaultPlan:
        return FaultPlan(events=(FaultEvent(t_s=1e-3, kind=FaultKind.CRASH, worker_index=0),))

    def test_crash_with_recovery_reenters_at_the_lost_stage(self):
        trace = _pipeline_trace(horizon_s=0.002, rate=30000.0, seed=19)
        resilient = _service(
            _fleet(3),
            faults=self._crash_plan(),
            resilience=ResiliencePolicy(),
        )
        report = resilient.run(trace)
        assert report.n_crashes == 1
        assert report.n_retries > 0
        # Every admitted pipeline request still completed end to end, and
        # every completed chain is whole (the retry re-entered mid-pipeline
        # rather than restarting or dropping the request).
        assert report.availability == 1.0
        for outcome in report.outcomes:
            if outcome.completion_s is not None:
                assert [link.stage for link in outcome.stage_chain] == [
                    "channelize",
                    "beamform",
                    "dedisperse",
                ]

    def test_crash_without_recovery_loses_pipeline_requests(self):
        trace = _pipeline_trace(horizon_s=0.002, rate=30000.0, seed=19)
        fragile = _service(
            _fleet(3), faults=self._crash_plan(), resilience=ResiliencePolicy.disabled()
        )
        report = fragile.run(trace)
        assert report.availability < 1.0


class TestTracedEquivalence:
    def test_traced_run_replays_untraced_bit_identically(self):
        plain = _service().run(_pipeline_trace())
        recorder = TraceRecorder()
        traced = _service(recorder=recorder).run(_pipeline_trace())
        assert traced.latencies_s == plain.latencies_s
        assert traced.n_batches == plain.n_batches
        assert traced.placements == plain.placements
        names = {type(e).__name__ for e in recorder.events}
        assert "StageStarted" in names
        assert "StageCompleted" in names
