"""Property-based checks of the serving tier's kept queue accounting.

The scheduler keeps its batch and request counts, a per-worker count of
candidate references and a cached service-time sum per class, updated as
batches move instead of recounted on every event; the error budget keeps
sorted event times instead of sorting on every query. Random sequences of
``submit`` / ``drain`` / ``remove`` / fleet changes (``add``,
``begin_drain``, ``crash`` and ``reap``, which run ``refresh_candidates``)
on a small mixed dry-run fleet must leave every kept value equal to a
brute-force recount of the queues after every step — the float sums
exactly, not approximately, since admission compares them against
deadlines — and the placer's worker map equal to the live workers.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.precision import Precision
from repro.errors import UnknownWorkerError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import Batch, FleetDispatcher, Request, Workload
from repro.serve.obs.alerts import ErrorBudget
from repro.serve.scheduler import QueuePressure

PRIORITIES = [0, 1, 2]
TENANTS = ["a", "b"]
#: int1 runs on the A100 and GH200, not the MI300X, so the stamped
#: candidates differ and int1 work is held while f16 work still places.
PRECISIONS = [Precision.FLOAT16, Precision.INT1]
SIZES = [(64, 32, 64), (256, 128, 128), (32, 64, 32)]


def dry(name: str) -> Device:
    return Device(name, ExecutionMode.DRY_RUN)


submit_op = st.tuples(
    st.just("submit"),
    st.sampled_from(PRIORITIES),
    st.sampled_from(TENANTS),
    st.sampled_from(PRECISIONS),
    st.sampled_from(SIZES),
    st.integers(1, 6),
)
ops = st.lists(
    st.one_of(
        submit_op,
        submit_op,
        submit_op,
        st.tuples(st.just("drain"), st.booleans()),
        st.tuples(st.just("remove"), st.integers(0, 63)),
        st.tuples(st.just("add"), st.sampled_from(["A100", "MI300X", "GH200"])),
        st.tuples(st.just("begin_drain"), st.integers(0, 63)),
        st.tuples(st.just("crash"), st.integers(0, 63)),
        st.tuples(st.just("reap"), st.booleans()),
    ),
    min_size=8,
    max_size=40,
)


def brute_next_accept_s(fleet: FleetDispatcher) -> float | None:
    """``next_accept_s`` by walking every held and queued batch."""
    indices: set[int] = set()
    waits: list[float] = []
    for batch in fleet._held:
        if batch.hold_until_s is not None:
            waits.append(batch.hold_until_s)
        else:
            indices.update(batch.candidate_indices or ())
    for batch in fleet.scheduler.queued_batches():
        indices.update(batch.candidate_indices or ())
    accepts = [w.accept_s for w in fleet.workers if w.index in indices]
    accepts.extend(waits)
    return min(accepts) if accepts else None


def assert_matches_recount(fleet: FleetDispatcher) -> None:
    sched = fleet.scheduler
    queued = list(sched.queued_batches())
    assert len(sched) == len(queued)
    assert sched.empty() == (not queued)
    assert sched.depth_requests() == sum(b.n_requests for b in queued)
    assert sched.head_priority() == min((b.priority for b in queued), default=None)
    refs = Counter(i for b in queued for i in b.candidate_indices or ())
    assert sched.candidate_refs == dict(refs)
    pressure: dict[int, QueuePressure] = {}
    for batch in queued:
        pressure[batch.priority] = pressure.get(batch.priority, QueuePressure()).plus(batch)
    assert sched.pressure_by_class() == dict(sorted(pressure.items()))
    for priority in PRIORITIES:
        # The recounted class sums, folded left in the scheduler's class
        # order (``sum`` would compensate from Python 3.12 on).
        want = 0.0
        for p in sched._classes:
            if p <= priority:
                want += pressure[p].service_s
        assert sched.queued_service_s(priority) == want
    assert fleet.held_requests == sum(b.n_requests for b in fleet._held)
    assert fleet._n_draining == sum(w.draining for w in fleet.workers)
    assert fleet.next_accept_s() == brute_next_accept_s(fleet)
    live = {w.index for w in fleet.workers}
    for worker in fleet.workers:
        assert fleet.worker_by_index(worker.index) is worker
    for index in [w.index for w in fleet.all_workers if w.index not in live] + [-1]:
        with pytest.raises(UnknownWorkerError):
            fleet.worker_by_index(index)


class TestKeptQueueAccounting:
    @given(ops)
    def test_counts_refs_and_sums_match_a_recount(self, sequence):
        fleet = FleetDispatcher([dry("A100"), dry("MI300X")])
        now = 0.0
        bid = 0
        for op in sequence:
            kind = op[0]
            if kind == "submit":
                _, priority, tenant, precision, (m, k, n), n_requests = op
                workload = Workload(
                    name=f"wl-{precision.value}-{m}",
                    n_beams=m,
                    n_receivers=k,
                    n_samples=n,
                    precision=precision,
                    priority=priority,
                    tenant=tenant,
                )
                if not fleet.placer.capable_workers(workload, include_draining=True):
                    continue  # admission sheds what no worker left can run
                requests = [
                    Request(rid=bid * 100 + i, workload=workload, arrival_s=now)
                    for i in range(n_requests)
                ]
                fleet.submit(Batch(bid=bid, workload=workload, requests=requests, formed_s=now))
                bid += 1
            elif kind == "drain":
                wake = fleet.next_accept_s()
                if op[1] and wake is not None:
                    now = max(now, wake)
                fleet.drain(now)
            elif kind == "remove":
                queued = list(fleet.scheduler.queued_batches())
                if queued:
                    assert fleet.scheduler.remove(queued[op[1] % len(queued)])
            elif kind == "add":
                fleet.add_worker(dry(op[1]), now=now)
            elif kind == "crash":
                if len(fleet.workers) > 1:
                    fleet.crash(fleet.workers[op[1] % len(fleet.workers)].index, now)
            elif kind == "reap":
                wake = fleet.next_retire_s()
                if op[1] and wake is not None:
                    now = max(now, wake)
                fleet.reap(now)
            else:
                accepting = fleet.accepting_workers
                if len(accepting) > 1:
                    fleet.begin_drain(accepting[op[1] % len(accepting)].index, now)
            assert_matches_recount(fleet)


#: times on a quarter grid (exact in binary) make events land on window
#: edges, where the half-open interval matters; arbitrary floats cover the rest.
times = st.one_of(st.integers(0, 40).map(lambda i: i * 0.25), st.floats(0.0, 10.0))
window_case = st.tuples(
    st.lists(st.tuples(times, st.booleans()), max_size=60),
    st.lists(
        st.tuples(st.integers(1, 48).map(lambda i: i * 0.25), times), min_size=1, max_size=8
    ),
)


class TestErrorBudgetWindows:
    @given(window_case)
    def test_window_counts_equal_a_direct_count(self, case):
        events, queries = case
        budget = ErrorBudget("svc")
        for t_s, good in events:  # recorded in arbitrary time order
            budget.record(t_s, good)
        # Every event time lies in [0, 10], inside (-1, 10].
        assert budget.window_counts(11.0, now=10.0) == (
            len(events),
            sum(not good for _, good in events),
        )
        for window_s, now in queries:
            start = now - window_s
            inside = [good for t_s, good in events if start < t_s <= now]
            assert budget.window_counts(window_s, now) == (
                len(inside),
                sum(not good for good in inside),
            )
