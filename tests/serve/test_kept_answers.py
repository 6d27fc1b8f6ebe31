"""The serve loop's kept answers equal a brute-force scan at every turn.

:meth:`BeamformingService.run` asks the same questions on every event-loop
turn or arrival: the earliest unconfirmed completion, the earliest batcher
deadline, the queue depths admission reads, the held service time, whether
a drain can place anything, and whether a draining worker can retire. Each
answer is kept where it changes instead of rebuilt by a scan. A random
composition of faults, the autoscaler, pipelines and priority classes on
fleets of 1-4 workers must leave every kept answer equal to the scan it
replaced at every turn, and must end within a bound on the number of turns
(a livelock spins forever).

Floats that admission or the autoscaler compare are explicit left folds in
queue order: ``sum`` of floats compensates from Python 3.12 on, and
``0.1 + 0.2 + 0.3`` folded left is not the correctly rounded 0.6.
"""

from __future__ import annotations

from functools import reduce

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.radioastronomy.beamformer import pipeline_workload as radio_pipeline
from repro.apps.radioastronomy.beamformer import service_workload as lofar_service
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    Autoscaler,
    Batch,
    BatchingPolicy,
    BeamformingService,
    FleetDispatcher,
    Placer,
    ReactiveAutoscaler,
    Request,
    ResiliencePolicy,
    Workload,
    crash_storm,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serve.faults import MAX_RETRIES
from repro.serve.scheduler import PriorityScheduler

GPUS = ["A100", "GH200", "MI300X"]
HORIZON_S = 1e-3
#: a trickle keeps the autoscaler ticking this long, idle after the load.
TRICKLE_S = 3 * HORIZON_S
TICK_S = HORIZON_S / 10
POLICY = BatchingPolicy(max_batch=4, max_wait_s=50e-6)
#: the worst case per offered stage request: its arrival or release, a
#: flush, a launch's accept and confirm instants, for every retry.
TURNS_PER_STAGE = 4 * (1 + MAX_RETRIES)


def dry(name: str) -> Device:
    return Device(name, ExecutionMode.DRY_RUN)


def fold(values) -> float:
    """A left fold from 0.0, the order the serving tier adds in."""
    return reduce(lambda total, value: total + value, values, 0.0)


# -- the float folds -----------------------------------------------------------

LEFT_FOLD = (0.1 + 0.2) + 0.3


def _batch(
    bid: int, priority: int, service_s: float = 0.0, precision=Precision.FLOAT16
) -> Batch:
    workload = Workload(
        name=f"w-{precision.value}-{priority}",
        n_beams=64,
        n_receivers=32,
        n_samples=64,
        precision=precision,
        priority=priority,
    )
    batch = Batch(
        bid=bid,
        workload=workload,
        requests=[Request(rid=bid, workload=workload, arrival_s=0.0)],
        formed_s=0.0,
    )
    batch.predicted_service_s = service_s
    return batch


class TestFloatFolds:
    def test_left_fold_is_not_the_correctly_rounded_sum(self):
        assert LEFT_FOLD == 0.6000000000000001

    def test_scheduler_folds_class_sums_in_class_order(self):
        scheduler = PriorityScheduler()
        for bid, (priority, service_s) in enumerate([(0, 0.1), (1, 0.2), (2, 0.3)]):
            scheduler.enqueue(_batch(bid, priority, service_s))
        assert scheduler.queued_service_s(2) == LEFT_FOLD
        assert scheduler.queued_service_s(1) == 0.1 + 0.2

    def test_held_batches_fold_in_held_order(self):
        # int1 runs on the A100, not the MI300X: with the A100 busy, the
        # idle MI300X lets the drain pop each int1 batch, and it is held.
        fleet = FleetDispatcher([dry("A100"), dry("MI300X")])
        fleet.submit(_batch(0, 0, precision=Precision.INT1))
        assert fleet.drain(0.0)[0].worker_index == 0
        for bid in (1, 2, 3):
            fleet.submit(_batch(bid, bid - 1, precision=Precision.INT1))
        assert fleet.drain(0.0) == []
        assert [b.priority for b in fleet._held] == [0, 1, 2]
        for batch, service_s in zip(fleet._held, [0.1, 0.2, 0.3]):
            batch.predicted_service_s = service_s
        assert fleet.held_requests == 3
        assert fleet.held_service_s(2) == LEFT_FOLD
        assert fleet.held_service_s(0) == 0.1

    def test_autoscaler_signals_fold_class_pressure(self):
        service = BeamformingService([dry("A100")])
        for bid, (priority, service_s) in enumerate([(0, 0.1), (1, 0.2), (2, 0.3)]):
            batch = _batch(bid, priority, service_s)
            batch.candidate_indices = (0,)
            service.fleet.scheduler.enqueue(batch)
        assert service._signals(0.0).queued_service_s == LEFT_FOLD


# -- the kept answers, turn by turn -------------------------------------------


@st.composite
def scenarios(draw):
    """A fleet, an arrival trace and the features live on it."""
    gpus = draw(st.lists(st.sampled_from(GPUS), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**16))
    streams = []
    for priority in draw(st.sets(st.sampled_from([0, 1, 2]), min_size=1)):
        precision = draw(st.sampled_from([Precision.FLOAT16, Precision.INT1]))
        workload = Workload(
            name=f"blocks-{priority}",
            n_beams=64,
            n_receivers=32,
            n_samples=draw(st.sampled_from([64, 128])),
            precision=precision,
            priority=priority,
            tenant=draw(st.sampled_from(["a", "b"])),
        )
        rate_hz = draw(st.sampled_from([40e3, 120e3]))
        streams.append(poisson_arrivals(workload, rate_hz, HORIZON_S, seed=seed + priority))
    if draw(st.booleans()):
        survey = radio_pipeline(
            n_beams=64, n_stations=32, n_samples=64, n_channels=8, n_dms=16, priority=1
        )
        streams.append(poisson_arrivals(survey, 15e3, HORIZON_S, seed=seed + 7))
    slo = SLO(p99_latency_s=2e-3)
    if draw(st.booleans()):
        # Too large for any one device: split across workers at dispatch,
        # early enough that a crash can hit a shard in flight.
        oversized = lofar_service(n_samples=256, n_channels=350_000).kernel
        streams.append([Request(rid=0, workload=oversized, arrival_s=HORIZON_S / 20)])
        slo = SLO(p99_latency_s=120.0)
    autoscaler = None
    if draw(st.booleans()):
        trickle = Workload(name="trickle", n_beams=64, n_receivers=32, n_samples=64)
        streams.append(poisson_arrivals(trickle, 4e3, TRICKLE_S, seed=seed + 9))
        autoscaler = Autoscaler(
            ReactiveAutoscaler(up_pressure_s=20e-6, up_ticks=1, down_ticks=1),
            device_factory=lambda: dry("A100"),
            interval_s=TICK_S,
            max_workers=4,
            startup_s=HORIZON_S / 20,
        )
    trace = merge_arrivals(*streams)
    faults = None
    if draw(st.booleans()):
        faults = crash_storm(
            HORIZON_S,
            list(range(len(gpus))),
            n_crashes=draw(st.integers(1, len(gpus))),
            n_slow_windows=draw(st.integers(0, 2)),
            replace_device=draw(st.sampled_from(["", "A100"])),
            replace_startup_s=HORIZON_S / 20,
            seed=seed,
        )
    service = BeamformingService(
        [dry(g) for g in gpus],
        policy=POLICY,
        slo=slo,
        class_policies={0: BatchingPolicy(max_batch=2, max_wait_s=20e-6)},
        placer=Placer(stage_locality=draw(st.booleans())),
        autoscaler=autoscaler,
        faults=faults,
        resilience=draw(st.sampled_from([ResiliencePolicy(), ResiliencePolicy.disabled()])),
    )
    return service, trace


def check_kept_answers(service: BeamformingService, kept_confirm_s: float | None) -> None:
    """Every kept answer equals the scan it replaced."""
    pending = service._pending
    assert kept_confirm_s == min((p.completion_s for p in pending), default=None)
    batcher = service._batcher
    groups = list(batcher._groups.values())
    assert batcher.depth() == sum(len(g.requests) for g in groups)
    assert batcher.next_deadline() == min((g.deadline_s for g in groups), default=None)
    fleet = service.fleet
    scheduler = fleet.scheduler
    queued = list(scheduler.queued_batches())
    assert scheduler.depth_requests() == sum(b.n_requests for b in queued)
    assert fleet.held_requests == sum(b.n_requests for b in fleet._held)
    for priority in (0, 1, 2):
        assert fleet.held_service_s(priority) == fold(
            b.predicted_service_s for b in fleet._held if b.priority <= priority
        )
        assert scheduler.queued_service_s(priority) == fold(
            fold(b.predicted_service_s for b in c.batches())
            for p, c in scheduler._classes.items()
            if p <= priority
        )
    assert service.queued_requests() == (
        batcher.depth() + scheduler.depth_requests() + fleet.held_requests
    )
    assert fleet._n_draining == sum(w.draining for w in fleet.workers)
    times = [
        max(w._compute_free_s, w._drain_s)
        for w in fleet.workers
        if w.draining and not fleet._referenced(w.index)
    ]
    assert fleet.next_retire_s() == (min(times) if times else None)


def could_place(fleet: FleetDispatcher, now: float) -> bool:
    """Whether any queued or held batch has a candidate accepting at ``now``."""
    batches = [*fleet._held, *fleet.scheduler.queued_batches()]
    return any(w.accept_s <= now for b in batches for w in fleet._candidates(b))


def instrument(service: BeamformingService, bound: int) -> dict:
    """Check the kept answers on every turn; count turns and early drains.

    ``_next_confirm_s`` is the first source the loop asks each turn, so a
    wrapper on it sees the state every turn starts from; a wrapper on the
    dispatcher's ``_try_place`` tells whether a drain attempted anything.
    """
    stats = {"turns": 0, "attempts": 0, "early": 0}
    real_confirm = service._next_confirm_s
    fleet = service.fleet
    real_drain, real_try = fleet.drain, fleet._try_place

    def next_confirm_s():
        stats["turns"] += 1
        assert stats["turns"] <= bound, f"more than {bound} event-loop turns"
        kept = real_confirm()
        check_kept_answers(service, kept)
        return kept

    def try_place(batch, now):
        stats["attempts"] += 1
        return real_try(batch, now)

    def drain(now):
        placeable = could_place(fleet, now)
        before = stats["attempts"]
        placed = real_drain(now)
        if stats["attempts"] == before:
            stats["early"] += 1
            assert not placeable, "drain returned early with placeable work"
        return placed

    service._next_confirm_s = next_confirm_s
    fleet._try_place = try_place
    fleet.drain = drain
    return stats


class TestKeptAnswers:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios())
    def test_every_turn_reads_what_a_scan_would_find(self, scenario):
        service, trace = scenario
        n_stages = sum(r.pipeline.n_stages for r in trace)
        n_faults = len(service._faults)
        n_ticks = int(TRICKLE_S / TICK_S) + 1
        bound = TURNS_PER_STAGE * n_stages + 2 * n_faults + n_ticks + 16
        stats = instrument(service, bound)
        report = service.run(trace)
        assert report.n_offered == len(trace)
        assert stats["turns"] > 0 and stats["early"] > 0
        assert service._pending == []
        assert not service.fleet.has_queued()
