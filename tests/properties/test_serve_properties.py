"""Property-based invariants of the serving tier's micro-batcher.

The discrete-event simulator's value rests on conservation: whatever
stream of requests arrives, in whatever interleaving of ``offer`` / ``due``
observations, every request comes back out exactly once, batches never mix
batching identities or priority classes, and time never runs backwards.
Seeded random request streams (mixed workload shapes, priorities, tenants,
bursty arrival gaps) drive those invariants through hypothesis.

Placement hands admission the eligible workers it found, so admission
prices a request without a second capability and fit pass. On random
mixed NVIDIA/AMD fleets with draining and crashed workers, those workers
must be exactly the ones admission used to work out for itself, in order,
and the latency projection must be the same float.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.precision import Precision
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    MicroBatcher,
    PlacementKind,
    Request,
    Workload,
)

#: small palette of batchable identities the random streams draw from.
SHAPES = [(8, 16, 8), (8, 16, 16), (4, 32, 8)]
PRIORITIES = [0, 1, 2]
TENANTS = ["a", "b", "c"]


@st.composite
def request_stream(draw):
    """A seeded random arrival stream over mixed workloads, plus knobs."""
    seed = draw(st.integers(0, 2**31))
    n_requests = draw(st.integers(1, 120))
    max_batch = draw(st.integers(1, 9))
    max_wait_us = draw(st.integers(0, 500))
    rng = np.random.default_rng(seed)
    requests = []
    t = 0.0
    for rid in range(n_requests):
        m, k, n = SHAPES[int(rng.integers(len(SHAPES)))]
        workload = Workload(
            name="prop",
            n_beams=m,
            n_receivers=k,
            n_samples=n,
            priority=PRIORITIES[int(rng.integers(len(PRIORITIES)))],
            tenant=TENANTS[int(rng.integers(len(TENANTS)))],
        )
        t += float(rng.exponential(100e-6))
        requests.append(Request(rid=rid, workload=workload, arrival_s=t))
    #: whether the replay observes `due` between arrivals (lazy vs eager).
    observe_due = draw(st.booleans())
    return requests, BatchingPolicy(max_batch=max_batch, max_wait_s=max_wait_us * 1e-6), observe_due


def replay(requests, policy, observe_due):
    """Push a stream through a MicroBatcher; returns every emitted batch."""
    interactive_override = BatchingPolicy(
        max_batch=max(1, policy.max_batch // 2),
        max_wait_s=policy.max_wait_s / 2,
    )
    batcher = MicroBatcher(policy, class_policies={0: interactive_override})
    batches = []
    for request in requests:
        now = request.arrival_s
        if observe_due:
            batches.extend(batcher.due(now))
        full = batcher.offer(request, now)
        if full is not None:
            batches.append(full)
    batches.extend(batcher.due(math.inf))
    return batcher, batches


class TestConservation:
    @given(request_stream())
    def test_no_request_lost_or_duplicated(self, stream):
        """Conservation: offer/due emit each request exactly once."""
        requests, policy, observe_due = stream
        batcher, batches = replay(requests, policy, observe_due)
        emitted = [r.rid for b in batches for r in b.requests]
        assert sorted(emitted) == [r.rid for r in requests]
        assert len(set(emitted)) == len(emitted)
        assert batcher.depth() == 0  # nothing left behind

    @given(request_stream())
    def test_counters_match_emissions(self, stream):
        requests, policy, observe_due = stream
        batcher, batches = replay(requests, policy, observe_due)
        assert batcher.n_offered == len(requests)
        assert batcher.n_flushed_full + batcher.n_flushed_timer == len(batches)


class TestBatchIdentity:
    @given(request_stream())
    def test_batches_never_mix_compat_keys(self, stream):
        requests, policy, observe_due = stream
        _, batches = replay(requests, policy, observe_due)
        for batch in batches:
            keys = {r.workload.compat_key() for r in batch.requests}
            assert len(keys) == 1

    @given(request_stream())
    def test_batches_never_mix_priorities_or_tenants(self, stream):
        requests, policy, observe_due = stream
        _, batches = replay(requests, policy, observe_due)
        for batch in batches:
            assert len({r.workload.priority for r in batch.requests}) == 1
            assert len({r.workload.tenant for r in batch.requests}) == 1
            assert batch.priority == batch.requests[0].workload.priority
            assert batch.tenant == batch.requests[0].workload.tenant

    @given(request_stream())
    def test_class_policy_bounds_batch_size(self, stream):
        requests, policy, observe_due = stream
        batcher, batches = replay(requests, policy, observe_due)
        for batch in batches:
            assert batch.n_requests <= batcher.policy_for(batch.priority).max_batch


class TestTimeSanity:
    @given(request_stream())
    def test_batching_delay_never_negative(self, stream):
        requests, policy, observe_due = stream
        _, batches = replay(requests, policy, observe_due)
        for batch in batches:
            assert batch.formed_s >= min(r.arrival_s for r in batch.requests)

    @given(request_stream())
    def test_members_arrive_before_batch_forms(self, stream):
        """Under the documented contract (due groups drained before each
        offer, as the service event loop guarantees), no batch forms
        before one of its members arrived."""
        requests, policy, _ = stream
        _, batches = replay(requests, policy, observe_due=True)
        for batch in batches:
            for request in batch.requests:
                assert request.arrival_s <= batch.formed_s + 1e-12


#: NVIDIA parts run int1; the AMD parts do not, so an AMD-only fleet sheds it.
GPUS = ["A100", "GH200", "AD4000", "MI300X", "MI210", "W7700"]
#: batch extents whose float16 footprint (about 11 MB per unit) runs from
#: one-device sizes past the largest device (MI300X, 192 GiB): the large
#: ones split across the fleet or shed for capacity.
EXTENTS = [1, 4, 5_000, 12_000, 25_000]


def eq_workload(n_samples, extent, precision=Precision.FLOAT16, priority=0):
    return Workload(
        name="eq",
        n_beams=512,
        n_receivers=256,
        n_samples=n_samples,
        batch_per_request=extent,
        precision=precision,
        priority=priority,
    )


@st.composite
def placement_case(draw):
    """A mixed fleet with some workers draining or crashed, and a request."""
    gpus = draw(st.lists(st.sampled_from(GPUS), min_size=1, max_size=4))
    state = st.sampled_from(["accepting", "accepting", "draining", "crashed"])
    states = draw(st.lists(state, min_size=len(gpus), max_size=len(gpus)))
    backlogs = draw(st.lists(st.floats(0.0, 5e-3), min_size=len(gpus), max_size=len(gpus)))
    workload = eq_workload(
        n_samples=draw(st.sampled_from([100, 110, 128, 200, 240, 2048])),
        extent=draw(st.sampled_from(EXTENTS)),
        precision=draw(st.sampled_from([Precision.FLOAT16, Precision.INT1])),
        priority=draw(st.sampled_from(PRIORITIES)),
    )
    return gpus, states, backlogs, workload


#: one fleet and request per decision kind, so every run reaches each kind.
KIND_CASES = {
    # Too large for the A100 alone: routed to the MI300X.
    "route": (["A100", "MI300X"], ["accepting", "accepting"], [0.0, 0.0], eq_workload(2048, 5_000)),
    # int1 on an AMD-only fleet: no capable worker.
    "shed-capability": (
        ["MI300X", "MI210"],
        ["accepting", "accepting"],
        [0.0, 0.0],
        eq_workload(2048, 4, Precision.INT1),
    ),
    # Padded to the 128-sample bucket; the draining A100 is not eligible.
    "merge": (["A100", "MI300X"], ["draining", "accepting"], [0.0, 1e-3], eq_workload(110, 4)),
    # Too large for any one device: split over the MI300X and the GH200.
    "split": (
        ["MI300X", "GH200", "A100"],
        ["accepting", "accepting", "crashed"],
        [0.0, 2e-3, 0.0],
        eq_workload(2048, 25_000),
    ),
    # Too large, and the only other worker crashed.
    "shed-capacity": (
        ["A100", "AD4000"],
        ["accepting", "crashed"],
        [0.0, 0.0],
        eq_workload(2048, 12_000),
    ),
}


def legacy_workers(service, workload):
    """Admission's old second pass, ``eligible_workers(workload) or
    capable_workers(workload)``, asking each workload for capability
    directly rather than through the placer."""
    placer = service.fleet.placer
    capable = [
        w for w in service.fleet.workers if workload.supported_by(w.device.spec) and w.accepting
    ]
    return [w for w in capable if placer.fits(w, workload)] or capable


def legacy_estimate_latency(service, now, decision):
    """The admission projection as admission worked it out before placement
    returned its workers: its own eligibility pass for route and merge."""
    if decision.is_shed:
        return float("inf")
    placer = service.fleet.placer
    priority = decision.workload.priority
    if decision.kind is PlacementKind.SPLIT:
        shard_workers = [service.fleet.worker_by_index(i) for i in decision.shard_worker_indices]
        backlog = max(w.backlog_s(now) for w in shard_workers)
        own_service = placer.predicted_split_service_s(decision)
        batching_wait = 0.0
        n_usable = len(decision.shard_worker_indices)
    else:
        candidates = legacy_workers(service, decision.workload)
        backlog = min(w.backlog_s(now) for w in candidates)
        own_service = min(placer.estimate(w, decision.workload, 1).service_s for w in candidates)
        batching_wait = service._batcher.policy_for(priority).max_wait_s
        n_usable = len(candidates)
    queued_s = service.fleet.scheduler.queued_service_s(priority)
    held_s = service.fleet.held_service_s(priority)
    queue_drain = (queued_s + held_s) / n_usable
    return batching_wait + backlog + queue_drain + own_service


def check_admission_reuses_placement(case):
    """Place one request on the case's fleet; returns the decision kind."""
    gpus, states, backlogs, workload = case
    service = BeamformingService(
        [Device(gpu, ExecutionMode.DRY_RUN) for gpu in gpus],
        policy=BatchingPolicy(max_batch=8, max_wait_s=1e-4, sample_buckets=(128, 256)),
        slo=SLO(p99_latency_s=1.0),
    )
    fleet, placer = service.fleet, service.fleet.placer
    now = 1e-3
    for worker, state, backlog in zip(list(fleet.workers), states, backlogs):
        worker._compute_free_s = now + backlog
        if state == "draining":
            fleet.begin_drain(worker.index, now)
        elif state == "crashed":
            fleet.crash(worker.index, now)
    decision, workers = placer.place(workload, service._batcher.policy_for(workload.priority))
    legacy = legacy_workers(service, decision.workload)
    assert [id(w) for w in workers] == [id(w) for w in legacy]
    projected = service._estimate_latency(now, decision, workers)
    assert projected == legacy_estimate_latency(service, now, decision)
    return decision.kind.value + (f"-{decision.reason}" if decision.reason else "")


class TestPlacementHandsAdmissionItsWorkers:
    @given(placement_case())
    def test_random_fleets(self, case):
        check_admission_reuses_placement(case)

    @pytest.mark.parametrize("kind", list(KIND_CASES))
    def test_each_decision_kind(self, kind):
        assert check_admission_reuses_placement(KIND_CASES[kind]) == kind
