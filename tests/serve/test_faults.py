"""Fault injection and recovery: crashes, stragglers, hedging, shards.

The contract under test, in three layers:

* **plan layer** — :class:`FaultEvent` / :class:`FaultPlan` /
  :func:`crash_storm` validation and bit-determinism;
* **zero-overhead** — a service handed ``faults=None`` or an *empty* plan
  replays the legacy paths byte-identically (every golden stays valid);
* **recovery layer** — a crash loses admitted work without recovery and
  loses nothing with the default :class:`ResiliencePolicy`; hedging bounds
  the straggler tail and bills its waste; a lost shard of a split request
  re-executes on a survivor; a replacement worker joins re-warmed.
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.apps.radioastronomy.beamformer import service_workload as _lofar_pipeline
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    FaultEvent,
    FaultKind,
    FaultPlan,
    ResiliencePolicy,
    Workload,
    crash_storm,
    poisson_arrivals,
)
from repro.serve.obs.events import HedgeLaunched, HedgeResolved, RequestFailed, WorkerSlowed
from repro.serve.obs.trace import TraceRecorder
from repro.serve.workload import Request

def lofar_workload(**kwargs):
    """The LOFAR adapter's bare kernel (the documented migration unwrap)."""
    return _lofar_pipeline(**kwargs).kernel


POLICY = BatchingPolicy(max_batch=32, max_wait_s=0.5e-3)
HORIZON_S = 4e-3
CRASH_T_S = 2e-3


def _service(n_workers: int = 2, gpu: str = "A100", **kwargs) -> BeamformingService:
    kwargs.setdefault("slo", SLO(p99_latency_s=3e-3, deadline_s=2e-3))
    return BeamformingService(
        [Device(gpu, ExecutionMode.DRY_RUN) for _ in range(n_workers)],
        policy=POLICY,
        **kwargs,
    )


@cache
def _trace() -> tuple[Request, ...]:
    """A fixed overload trace: ~70% of the two-worker batched capacity,
    heavy enough that a mid-run crash always finds batches in flight."""
    workload = lofar_workload(n_samples=2048)
    plan = workload.make_plan(Device("A100", ExecutionMode.DRY_RUN), POLICY.max_batch)
    rate = 0.7 * 2 * POLICY.max_batch / plan.predict_gemm_cost().time_s
    return tuple(poisson_arrivals(workload, rate, HORIZON_S, seed=5))


def _run(**kwargs):
    return _service(**kwargs).run(list(_trace()))


def _events(recorder: TraceRecorder, kind: type) -> list:
    """The recorded events of one type, in emission order."""
    return [e for e in recorder.events if isinstance(e, kind)]


_CRASH = FaultPlan((FaultEvent(t_s=CRASH_T_S, kind=FaultKind.CRASH, worker_index=0),))
_SLOW = FaultPlan(
    (
        FaultEvent(t_s=0.0, kind=FaultKind.SLOW_START, worker_index=0, factor=4.0),
        FaultEvent(t_s=3e-3, kind=FaultKind.SLOW_END, worker_index=0),
    )
)
_CRASH_REPLACE = FaultPlan(
    (
        FaultEvent(t_s=CRASH_T_S, kind=FaultKind.CRASH, worker_index=0),
        FaultEvent(
            t_s=CRASH_T_S,
            kind=FaultKind.REPLACE,
            device_name="A100",
            startup_s=100e-6,
        ),
    )
)


class TestFaultPlanValidation:
    def test_event_rejects_bad_fields(self):
        with pytest.raises(ShapeError):
            FaultEvent(t_s=-1.0, kind=FaultKind.CRASH, worker_index=0)
        with pytest.raises(ShapeError):
            FaultEvent(t_s=0.0, kind=FaultKind.SLOW_START, worker_index=0, factor=0.5)
        with pytest.raises(ShapeError):
            FaultEvent(t_s=0.0, kind=FaultKind.CRASH)  # no worker_index
        with pytest.raises(ShapeError):
            FaultEvent(t_s=0.0, kind=FaultKind.REPLACE)  # no device_name

    def test_plan_must_be_time_sorted(self):
        a = FaultEvent(t_s=1.0, kind=FaultKind.CRASH, worker_index=0)
        b = FaultEvent(t_s=0.5, kind=FaultKind.CRASH, worker_index=1)
        with pytest.raises(ShapeError):
            FaultPlan((a, b))
        assert len(FaultPlan((b, a))) == 2

    def test_empty_plan_counts_nothing(self):
        assert len(FaultPlan()) == 0
        assert not FaultPlan().events


class TestCrashStorm:
    def test_deterministic_for_fixed_seed(self):
        a = crash_storm(1.0, [0, 1, 2], seed=3)
        b = crash_storm(1.0, [0, 1, 2], seed=3)
        assert a == b
        assert a != crash_storm(1.0, [0, 1, 2], seed=4)

    def test_shape_and_bounds(self):
        plan = crash_storm(
            1.0, [0, 1, 2, 3], n_crashes=2, n_slow_windows=3, replace_device="A100"
        )
        assert all(0.0 <= e.t_s <= 1.0 + 0.1 for e in plan.events)
        kinds = [e.kind for e in plan.events]
        assert kinds.count(FaultKind.CRASH) == 2
        assert kinds.count(FaultKind.REPLACE) == 2
        assert kinds.count(FaultKind.SLOW_START) == 3
        assert kinds.count(FaultKind.SLOW_END) == 3
        # Crashed workers are distinct (drawn without replacement).
        crashed = [e.worker_index for e in plan.events if e.kind is FaultKind.CRASH]
        assert len(set(crashed)) == 2

    def test_validation(self):
        with pytest.raises(ShapeError):
            crash_storm(0.0, [0])
        with pytest.raises(ShapeError):
            crash_storm(1.0, [])
        with pytest.raises(ShapeError):
            crash_storm(1.0, [0], n_crashes=2)


class TestResiliencePolicy:
    def test_disabled_turns_everything_off(self):
        # Recovery is one on/off value; its effects (no retries, hedges,
        # shard recovery or re-warm) are checked against runs below.
        assert ResiliencePolicy().enabled
        assert ResiliencePolicy.disabled() == ResiliencePolicy(enabled=False)


class TestZeroFaultIdentity:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        plain = _run()
        empty = _run(faults=FaultPlan())
        assert empty.latencies_s == plain.latencies_s
        assert empty.summary() == plain.summary()
        assert empty.n_crashes == 0 and empty.n_retries == 0
        assert empty.wasted_device_seconds == 0.0

    def test_fault_free_report_is_fully_available(self):
        report = _run()
        assert report.availability == 1.0
        assert report.n_failed == 0


@cache
def _no_recovery():
    return _run(faults=_CRASH, resilience=ResiliencePolicy.disabled())


def _failure_reasons(**kwargs) -> list[str]:
    """Failure reason of every request the crash plan loses."""
    recorder = TraceRecorder()
    _run(faults=_CRASH, recorder=recorder, **kwargs)
    return [e.reason for e in _events(recorder, RequestFailed)]


@cache
def _resilient():
    return _run(faults=_CRASH)


@cache
def _hedged():
    return _run(faults=_SLOW)


@cache
def _replaced():
    return _run(faults=_CRASH_REPLACE)


class TestCrashRecovery:
    def test_crash_loses_admitted_work_without_recovery(self):
        report = _no_recovery()
        assert report.n_crashes == 1
        assert report.n_failed > 0
        assert report.availability < 1.0
        assert report.n_retries == 0
        # Lost requests stay admitted: the failure is charged to the
        # service, not laundered through the shed counter.
        assert report.n_admitted == report.n_offered

    def test_default_policy_recovers_every_request(self):
        report = _resilient()
        assert report.n_crashes == 1
        assert report.n_retries > 0
        assert report.n_failed == 0
        assert report.availability == 1.0

    def test_crash_emits_a_scale_event_and_wastes_burned_work(self):
        report = _resilient()
        kinds = [e.kind for e in report.scale_events]
        assert kinds.count("crash") == 1
        crash = next(e for e in report.scale_events if e.kind == "crash")
        assert crash.t_s == CRASH_T_S
        assert crash.provisioned == 1  # one worker left
        assert report.wasted_device_seconds > 0.0

    def test_faulted_replay_is_bit_deterministic(self):
        a = _resilient()
        b = _run(faults=_CRASH)
        assert b.latencies_s == a.latencies_s
        assert b.n_retries == a.n_retries
        assert b.wasted_device_seconds == a.wasted_device_seconds
        assert b.summary() == a.summary()

    def test_exhausted_retry_budget_fails_the_request(self):
        # Recovery off means a budget of 0: every displaced request fails
        # as retries_exhausted instead of re-entering the placer.
        reasons = _failure_reasons(resilience=ResiliencePolicy.disabled())
        assert reasons and set(reasons) == {"retries_exhausted"}
        assert _no_recovery().n_retries == 0

    def test_hopeless_deadline_fails_fast_instead_of_retrying(self):
        # A retry whose projected finish cannot fit inside the admission
        # deadline is a doomed launch; fail fast instead. At this tight
        # deadline some lost requests still fit and retry, the rest fail.
        recorder = TraceRecorder()
        report = _run(
            faults=_CRASH,
            slo=SLO(p99_latency_s=3e-3, deadline_s=0.8e-3),
            recorder=recorder,
        )
        reasons = [e.reason for e in _events(recorder, RequestFailed)]
        assert reasons and set(reasons) == {"deadline"}
        assert report.n_failed == len(reasons)
        assert report.n_retries > 0


class TestStragglersAndHedging:
    def test_slow_worker_triggers_hedges_that_win(self):
        report = _hedged()
        assert report.n_hedges > 0
        assert report.n_hedge_wins > 0
        # The losing duplicate's compute is billed, never hidden.
        assert report.wasted_device_seconds > 0.0
        assert report.n_failed == 0

    def test_hedging_off_means_no_hedges_and_a_worse_tail(self):
        unhedged = _run(faults=_SLOW, resilience=ResiliencePolicy.disabled())
        assert unhedged.n_hedges == 0
        assert unhedged.wasted_device_seconds == 0.0
        assert unhedged.p99_latency_s >= _hedged().p99_latency_s

    def test_slow_window_alone_loses_nothing(self):
        assert _hedged().availability == 1.0

    def test_overlapping_windows_keep_the_worker_slow_until_the_last_closes(self):
        # Two windows on worker 0 overlap over [1, 2] ms. Closing the first
        # must not restore full speed while the second is still open.
        plan = FaultPlan(
            (
                FaultEvent(t_s=0.0, kind=FaultKind.SLOW_START, worker_index=0, factor=4.0),
                FaultEvent(t_s=1e-3, kind=FaultKind.SLOW_START, worker_index=0, factor=4.0),
                FaultEvent(t_s=2e-3, kind=FaultKind.SLOW_END, worker_index=0),
                FaultEvent(t_s=3e-3, kind=FaultKind.SLOW_END, worker_index=0),
            )
        )
        recorder = TraceRecorder()
        report = _run(faults=plan, recorder=recorder)
        slowed = [(e.t_s, e.factor) for e in _events(recorder, WorkerSlowed)]
        assert slowed == [(0.0, 4.0), (1e-3, 4.0), (2e-3, 4.0), (3e-3, 1.0)]
        # The worker is still a straggler after the first window closes,
        # so batches landing on it there are still hedged.
        assert any(
            2e-3 < e.t_s < 3e-3 and e.primary_index == 0
            for e in _events(recorder, HedgeLaunched)
        )
        assert report.availability == 1.0


def _hedge_targets(gpus: tuple[str, ...], slow: tuple[int, ...], precision=None):
    """(primary, hedge) worker indices of every hedge in a two-request run.

    One request arrives at t=0 and one 1 µs later, each its own batch.
    Workers in ``slow`` run 4x slower from t=0, past the default straggler
    threshold of 2x; the others stay healthy.
    """
    extra = {} if precision is None else {"precision": precision}
    wl = Workload(name="wl", n_beams=64, n_receivers=32, n_samples=64, **extra)
    recorder = TraceRecorder()
    plan = FaultPlan(
        tuple(
            FaultEvent(t_s=0.0, kind=FaultKind.SLOW_START, worker_index=i, factor=4.0)
            for i in slow
        )
    )
    service = BeamformingService(
        [Device(gpu, ExecutionMode.DRY_RUN) for gpu in gpus],
        policy=BatchingPolicy(max_batch=1),
        slo=SLO(p99_latency_s=1.0),
        recorder=recorder,
        faults=plan,
    )
    service.run([Request(rid=i, workload=wl, arrival_s=t) for i, t in enumerate((0.0, 1e-6))])
    return [(e.primary_index, e.hedge_index) for e in _events(recorder, HedgeLaunched)]


class TestHedgeTarget:
    """Which worker a hedge duplicate lands on, not only how many run."""

    def test_least_loaded_healthy_candidate_ties_to_lowest_index(self):
        # Batch 0 lands on slow worker 0. Worker 1 is idle but slow too, so
        # the healthy idle workers 2 and 3 tie and 2 wins. Batch 1 then
        # lands on worker 1, and idle worker 3 beats worker 2, which is
        # busy with the first hedge.
        assert _hedge_targets(("A100",) * 4, slow=(0, 1)) == [(0, 2), (1, 3)]

    def test_hedge_stays_inside_the_batch_candidates(self):
        # The MI300X (worker 2) has no 1-bit MMA. It is idle, healthy and
        # below worker 3's index, yet every int1 duplicate goes to 3.
        from repro.ccglib.precision import Precision

        gpus = ("A100", "A100", "MI300X", "A100")
        targets = _hedge_targets(gpus, slow=(0, 1), precision=Precision.INT1)
        assert targets == [(0, 3), (1, 3)]

    def test_no_healthy_worker_means_no_hedge(self):
        assert _hedge_targets(("A100",) * 3, slow=(0, 1, 2)) == []


def _hedge_race(*extra: FaultEvent):
    """One 1024-cube request on two A100s, worker 0 4x slow from t=0: the
    primary lands on worker 0 and its hedge on worker 1."""
    recorder = TraceRecorder()
    slow = FaultEvent(t_s=0.0, kind=FaultKind.SLOW_START, worker_index=0, factor=4.0)
    workload = Workload(name="wl", n_beams=1024, n_receivers=1024, n_samples=1024)
    report = BeamformingService(
        [Device("A100", ExecutionMode.DRY_RUN) for _ in range(2)],
        policy=BatchingPolicy(max_batch=1),
        slo=SLO(p99_latency_s=1.0),
        recorder=recorder,
        faults=FaultPlan((slow, *extra)),
    ).run([Request(rid=0, workload=workload, arrival_s=0.0)])
    return report, recorder


class TestHedgeRaceSettledByACrash:
    """A crash that kills one side of a hedge race settles it: the race
    counts as resolved and the dead side's burned compute is its waste."""

    @staticmethod
    @cache
    def _crash_on(victim: int):
        uncrashed, _ = _hedge_race()
        hedge = uncrashed.executions[0]  # the healthy duplicate wins unharmed
        assert hedge.worker_index == 1
        mid = (hedge.compute_start_s + hedge.completion_s) / 2.0
        return _hedge_race(FaultEvent(t_s=mid, kind=FaultKind.CRASH, worker_index=victim))

    @pytest.mark.parametrize("victim, winner, survivor", [(0, "hedge", 1), (1, "primary", 0)])
    def test_the_survivor_wins_and_the_dead_side_is_billed(self, victim, winner, survivor):
        report, recorder = self._crash_on(victim)
        counters = report.metrics.snapshot()["counters"]
        assert counters["service.hedges"] == counters["service.hedge_resolved"] == 1
        (resolved,) = _events(recorder, HedgeResolved)
        assert resolved.winner == winner
        assert resolved.wasted_s > 0.0
        assert resolved.wasted_s == report.wasted_device_seconds
        assert report.n_hedge_wins == (winner == "hedge")
        assert report.n_completed == 1
        assert [e.worker_index for e in report.executions] == [survivor]


class TestShardRecovery:
    """An oversized survey request split across a 3-GH200 fleet, with one
    shard holder crashing mid-execution."""

    @staticmethod
    def _survey_service(**kwargs):
        return BeamformingService(
            [Device("GH200", ExecutionMode.DRY_RUN) for _ in range(3)],
            policy=POLICY,
            slo=SLO(p99_latency_s=120.0),
            **kwargs,
        )

    @classmethod
    def _run_survey(cls, **kwargs):
        survey = lofar_workload(n_samples=256, n_channels=350_000)
        return cls._survey_service(**kwargs).run(
            [Request(rid=0, workload=survey, arrival_s=0.0)]
        )

    @classmethod
    @cache
    def _crash_mid_split(cls) -> FaultPlan:
        baseline = cls._run_survey()
        execution = baseline.executions[0]
        assert execution.is_split
        victim = execution.shards[0].worker_index
        mid = (execution.start_s + execution.completion_s) / 2.0
        return FaultPlan((FaultEvent(t_s=mid, kind=FaultKind.CRASH, worker_index=victim),))

    def test_lost_shard_reexecutes_on_a_survivor(self):
        report = self._run_survey(faults=self._crash_mid_split())
        assert report.n_shard_recoveries == 1
        assert report.n_completed == 1
        assert report.availability == 1.0
        # The dead shard's burned compute is waste; the survivors' is not.
        assert report.wasted_device_seconds > 0.0

    def test_without_shard_recovery_the_split_is_lost(self):
        # Two surviving GH200s cannot hold the survey at all, so the
        # whole-request retry path finds no capable placement either:
        # shard recovery is the only way this request completes.
        report = self._run_survey(
            faults=self._crash_mid_split(),
            resilience=ResiliencePolicy.disabled(),
        )
        assert report.n_shard_recoveries == 0
        assert report.n_retries == 0
        assert report.n_failed == 1


class TestReplacement:
    def test_replacement_joins_and_the_fleet_recovers(self):
        report = _replaced()
        kinds = [e.kind for e in report.scale_events]
        assert kinds.count("crash") == 1
        assert kinds.count("replace") == 1
        replace = next(e for e in report.scale_events if e.kind == "replace")
        assert replace.device_name == "A100"
        assert replace.provisioned == 2  # back to full strength
        assert report.availability == 1.0

    def test_replacement_serves_traffic(self):
        report = _replaced()
        # Worker indices 0/1 are the seed fleet; the replacement takes 2.
        assert any(e.worker_index == 2 for e in report.executions)

    def test_rewarm_spares_the_replacement_cold_builds(self):
        # With recovery on, the replacement pre-builds the recent plans, so
        # its first batch runs warm; without, that batch pays the build.
        def first_on_replacement(report):
            return next(e for e in report.executions if e.worker_index == 2)

        cold = _run(faults=_CRASH_REPLACE, resilience=ResiliencePolicy.disabled())
        assert first_on_replacement(_replaced()).build_s == 0.0
        assert first_on_replacement(cold).build_s > 0.0
