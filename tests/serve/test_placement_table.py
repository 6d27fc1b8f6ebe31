"""The placer's fleet-generation table: answers kept until the fleet changes.

Which workers can take a workload, how fast the best one is, and the
placement decision itself depend only on the workload and the worker set,
so the placer keeps them until the dispatcher reports a fleet change. Every
kept answer must equal what a fresh placer attached to the same workers
works out from scratch: after each of the four worker-set mutations
(``add_worker``, ``begin_drain``, ``crash``, ``reap``) and at every step of
a random interleaving of mutations and placements.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.apps.radioastronomy.beamformer import service_workload as lofar_pipeline
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    FleetDispatcher,
    PlacementKind,
    Workload,
    poisson_arrivals,
)
from repro.serve.placement import Placer

POLICY = BatchingPolicy(sample_buckets=(128,))

#: one workload per decision kind the fleets below can produce: route,
#: merge (110 samples pad to the 128 bucket), int1 (capability-shed on an
#: AMD-only fleet) and an oversized splittable survey (split, or
#: capacity-shed on a single device).
WORKLOADS = (
    Workload(name="route", n_beams=64, n_receivers=32, n_samples=64),
    Workload(name="merge", n_beams=64, n_receivers=32, n_samples=110),
    Workload(name="int1", n_beams=64, n_receivers=32, n_samples=64, precision=Precision.INT1),
    lofar_pipeline(n_samples=256, n_channels=350_000).kernel,
)


def dry(gpu: str) -> Device:
    return Device(gpu, ExecutionMode.DRY_RUN)


def fleet(*gpus: str) -> FleetDispatcher:
    return FleetDispatcher([dry(g) for g in gpus])


def answers(placer: Placer) -> list:
    """Every table-backed answer for :data:`WORKLOADS`, workers by index."""
    out = []
    for workload in WORKLOADS:
        decision, workers = placer.place(workload, POLICY)
        out.append((decision, [w.index for w in workers]))
        for include_draining in (False, True):
            capable = placer.capable_workers(workload, include_draining=include_draining)
            out.append([w.index for w in capable])
        for n_requests in (1, 4):
            out.append(placer.predicted_service_s(workload, n_requests))
    return out


def fresh_answers(dispatcher: FleetDispatcher) -> list:
    """The same answers from a placer that never saw an earlier fleet."""
    placer = Placer()
    placer.attach(dispatcher.workers, dispatcher.cache)
    return answers(placer)


def capable_indices(dispatcher, workload, include_draining=False) -> list[int]:
    return [
        w.index
        for w in dispatcher.placer.capable_workers(workload, include_draining=include_draining)
    ]


class TestEachMutationStartsAGeneration:
    def test_add_worker(self):
        f = fleet("MI300X")
        int1 = WORKLOADS[2]
        answers(f.placer)  # fill the table on the AMD-only fleet
        assert f.placer.place(int1, POLICY)[0].reason == "capability"
        f.add_worker(dry("A100"), now=1e-3)
        assert answers(f.placer) == fresh_answers(f)
        assert f.placer.place(int1, POLICY)[0].kind is PlacementKind.ROUTE

    def test_begin_drain(self):
        f = fleet("A100", "GH200")
        answers(f.placer)
        f.begin_drain(0, now=1e-3)
        assert answers(f.placer) == fresh_answers(f)
        assert capable_indices(f, WORKLOADS[0]) == [1]
        assert capable_indices(f, WORKLOADS[0], include_draining=True) == [0, 1]

    def test_crash(self):
        f = fleet("GH200", "MI300X")  # the survey needs both devices' memory
        answers(f.placer)
        assert f.placer.place(WORKLOADS[3], POLICY)[0].kind is PlacementKind.SPLIT
        f.crash(1, now=1e-3)
        assert answers(f.placer) == fresh_answers(f)
        assert f.placer.place(WORKLOADS[3], POLICY)[0].reason == "capacity"

    def test_reap(self):
        f = fleet("A100", "GH200")
        f.begin_drain(1, now=1e-3)
        answers(f.placer)
        assert capable_indices(f, WORKLOADS[0], include_draining=True) == [0, 1]
        assert [w.index for w in f.reap(now=2e-3)] == [1]
        assert answers(f.placer) == fresh_answers(f)
        assert capable_indices(f, WORKLOADS[0], include_draining=True) == [0]

    def test_an_idle_reap_keeps_the_generation(self):
        f = fleet("A100")
        decision, _ = f.placer.place(WORKLOADS[0], POLICY)
        assert f.reap(now=1e-3) == []
        assert f.placer.place(WORKLOADS[0], POLICY)[0] is decision


GPUS = ("A100", "GH200", "MI300X")
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(GPUS)),
        st.tuples(st.sampled_from(["drain", "crash", "place"]), st.integers(0, 7)),
        st.tuples(st.just("reap"), st.just(0)),
    ),
    max_size=10,
)


class TestRandomFleetHistories:
    @given(st.lists(st.sampled_from(GPUS), min_size=1, max_size=4), MUTATIONS)
    def test_every_step_matches_a_fresh_placer(self, gpus, steps):
        f = fleet(*gpus)
        now = 0.0
        for op, arg in steps:
            now += 1e-3
            if op == "add" and len(f.workers) < 4:
                f.add_worker(dry(arg), now=now)
            elif op == "drain" and f.accepting_workers:
                accepting = f.accepting_workers
                f.begin_drain(accepting[arg % len(accepting)].index, now=now)
            elif op == "crash" and len(f.workers) > 1:
                f.crash(f.workers[arg % len(f.workers)].index, now=now)
            elif op == "reap":
                f.reap(now)
            elif op == "place":
                f.placer.place(WORKLOADS[arg % len(WORKLOADS)], POLICY)
            assert answers(f.placer) == fresh_answers(f)


class TestSharedDecisions:
    def test_arrivals_of_one_workload_share_one_decision(self):
        f = fleet("A100")
        first, workers = f.placer.place(WORKLOADS[0], POLICY)
        again, again_workers = f.placer.place(WORKLOADS[0], POLICY)
        assert again is first and again_workers is workers
        assert f.placer.decisions == {"route": 2}  # every call still counts

    def test_the_decision_keeps_the_requests_own_instance(self):
        f = fleet("A100")
        twin = Workload(name="route", n_beams=64, n_receivers=32, n_samples=64)
        assert twin == WORKLOADS[0] and twin is not WORKLOADS[0]
        f.placer.place(WORKLOADS[0], POLICY)
        assert f.placer.place(twin, POLICY)[0].workload is twin

    def test_bucketed_arrivals_share_one_padded_workload_per_generation(self):
        f = fleet("A100")
        first, _ = f.placer.place(WORKLOADS[1], POLICY)
        assert first.kind is PlacementKind.MERGE and first.workload.n_samples == 128
        assert f.placer.place(WORKLOADS[1], POLICY)[0].workload is first.workload
        f.add_worker(dry("A100"), now=1e-3)
        later, _ = f.placer.place(WORKLOADS[1], POLICY)
        assert later.workload == first.workload and later.workload is not first.workload

    def test_a_bucketed_stream_executes_one_padded_workload(self):
        source = Workload(name="bucketed", n_beams=64, n_receivers=32, n_samples=110)
        service = BeamformingService(
            [dry("A100")],
            policy=BatchingPolicy(max_batch=4, max_wait_s=1e-4, sample_buckets=(128,)),
            slo=SLO(p99_latency_s=1.0),
        )
        report = service.run(poisson_arrivals(source, 20_000.0, 2e-3, seed=3))
        executed = {id(e.batch.workload) for e in report.executions}
        assert report.n_batches > 1 and len(executed) == 1
        assert report.executions[0].batch.workload.n_samples == 128
