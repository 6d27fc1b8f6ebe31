"""Property-based invariants of the serving tier's micro-batcher.

The discrete-event simulator's value rests on conservation: whatever
stream of requests arrives, in whatever interleaving of ``offer`` / ``due``
observations, every request comes back out exactly once, batches never mix
batching identities or priority classes, and time never runs backwards.
Seeded random request streams (mixed workload shapes, priorities, tenants,
bursty arrival gaps) drive those invariants through hypothesis.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import BatchingPolicy, MicroBatcher, Request, Workload

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
