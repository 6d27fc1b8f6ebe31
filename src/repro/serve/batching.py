"""Dynamic micro-batching: coalesce compatible requests into one launch.

The tensor cores only pay off when the GEMM is large enough to fill the
device (wave quantization and launch overhead dominate small problems —
exactly what the paper's performance model predicts for per-request
shapes). The :class:`MicroBatcher` therefore holds arriving requests
briefly and flushes a group as one merged
:class:`~repro.tcbf.plan.BeamformerPlan` execution when either

* ``max_batch`` compatible requests have accumulated (size trigger), or
* the oldest request has waited ``max_wait_s`` (latency trigger).

Compatibility is the workload's :meth:`~repro.serve.workload.Workload.compat_key`
— same shape, precision, stage accounting, weight-set generation, priority
class, and tenant. ``max_batch = 1`` degenerates to naive per-request
execution, which the service benchmark uses as its baseline.

Priority classes may override the knobs per class (``class_policies``): an
interactive class runs a tight ``max_wait_s`` (bound the batching delay, give
up batching depth), a throughput class runs a deep ``max_batch`` (amortize
launches, tolerate wait). Because the compat key carries the priority, the
override applies uniformly to every group of that class.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.errors import ShapeError
from repro.serve.obs.events import BatchClosed, BatcherEnqueued
from repro.serve.obs.trace import NULL_RECORDER
from repro.serve.workload import Request, Workload

#: largest tolerated (padded - exact) / exact along the sample axis: a
#: shape bucket never pads a request by more than a quarter of its samples.
MAX_PAD_FRACTION = 0.25

if TYPE_CHECKING:
    from repro.serve.placement import PlacementDecision


@dataclass(frozen=True)
class BatchingPolicy:
    """Knobs of the micro-batcher.

    ``max_batch``: requests per merged launch (the size trigger);
    ``max_wait_s``: longest a request may sit in a forming batch before the
    latency trigger flushes it — the explicit latency/throughput trade-off.

    ``sample_buckets``: ascending shape-bucket edges along the sample axis.
    When set, a request whose ``n_samples`` is at most an edge is padded up
    to the smallest such edge, so *nearby* shapes share one merged launch
    instead of each forming its own trickle of small batches. The padded
    columns are real work the cost model prices (the plan is built at the
    bucket's shape). :data:`MAX_PAD_FRACTION` bounds the relative padding a
    bucket may impose — a 64-sample request must not be padded 32x to a
    2048 edge just because the edge exists; shapes whose nearest edge would
    exceed the budget (and shapes beyond the largest edge) batch at their
    exact shape. Empty ``sample_buckets`` (the default) means exact-shape
    batching.
    """

    max_batch: int = 8
    max_wait_s: float = 1e-3
    sample_buckets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ShapeError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if list(self.sample_buckets) != sorted(set(self.sample_buckets)):
            raise ShapeError(
                f"sample_buckets must be strictly ascending, got {self.sample_buckets}"
            )
        if self.sample_buckets and self.sample_buckets[0] < 1:
            raise ShapeError(f"sample_buckets must be >= 1, got {self.sample_buckets}")

    def bucket_samples(self, n_samples: int) -> int:
        """The padded sample count of one request (identity when unbucketed).

        The smallest covering bucket edge within the padding budget; the
        exact shape when no edge qualifies.
        """
        for edge in self.sample_buckets:
            if edge >= n_samples:
                if (edge - n_samples) / n_samples <= MAX_PAD_FRACTION:
                    return edge
                break
        return n_samples


@dataclass
class Batch:
    """A flushed group of compatible requests, ready for dispatch.

    ``workload`` is the *executed* descriptor: for a shape-bucketed batch it
    is the padded bucket workload, while each member request keeps its own
    exact-shape workload (the padding is trimmed back per request after the
    launch). ``decision`` carries the placement decision that admitted the
    batch; ``predicted_service_s`` is the placer's best-device service
    estimate, stamped at submit time for queue-drain admission estimates.
    """

    bid: int
    workload: Workload
    requests: list[Request]
    #: simulated time the batch left the batcher (its dispatch time).
    formed_s: float
    #: placement decision that routed this batch (None on direct dispatch).
    decision: "PlacementDecision | None" = None
    #: placer's predicted service time on the best eligible device, seconds.
    predicted_service_s: float = 0.0
    #: worker indices this batch may run on, stamped once at submit time
    #: (capability and memory fit are static per batch, so the dispatcher
    #: never re-derives them per event).
    candidate_indices: tuple[int, ...] | None = None
    #: earliest instant a locality-held stage batch should be retried —
    #: the busy buffer-resident worker's ``accept_s``, stamped when the
    #: placer prefers waiting for it over an immediate remote transfer.
    #: ``None`` (always, for source-stage batches) defers to the candidates'
    #: plain worker-availability times.
    hold_until_s: float | None = None

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def useful_ops(self) -> float:
        """GEMM operations the member requests actually asked for."""
        return sum(r.workload.request_ops() for r in self.requests)

    @property
    def executed_ops(self) -> float:
        """GEMM operations of the launch as executed (padding included)."""
        return self.workload.request_ops() * self.n_requests

    @property
    def padded_ops(self) -> float:
        """Operations spent on bucket padding (0 for exact-shape batches)."""
        return self.executed_ops - self.useful_ops

    @property
    def priority(self) -> int:
        """Scheduling class of every member (lower is more urgent)."""
        return self.workload.priority

    @property
    def tenant(self) -> str:
        """The one caller this launch is accountable to."""
        return self.workload.tenant

    # -- pipeline-stage residency (zero for source-stage batches) ------------

    @property
    def stage_input_bytes(self) -> int:
        """Inter-stage buffer bytes the member requests carry as input.

        Non-zero only for successor-stage batches of multi-stage pipelines
        — the quantity placement prices as resident (no cost) or
        transferred (interconnect cost) per candidate worker.
        """
        return sum(r.stage_input_bytes for r in self.requests)

    def resident_bytes_on(self, worker_index: int) -> int:
        """Input bytes already resident on ``worker_index``.

        A request's dependency outputs live on the workers that executed
        its predecessor stages; landing the batch there elides that share
        of the stage-in and its transfer.
        """
        return sum(
            r.stage_input_bytes for r in self.requests if worker_index in r.resident_workers
        )


@dataclass
class _Group:
    """A forming batch: members, latency-trigger deadline, creation order."""

    requests: list[Request] = field(default_factory=list)
    deadline_s: float = 0.0
    #: monotone creation sequence — the deterministic flush tie-break.
    seq: int = 0
    #: the workload the flushed batch executes (padded for shape buckets).
    workload: Workload | None = None
    #: the placement decision shared by every member of the group.
    decision: "PlacementDecision | None" = None


class MicroBatcher:
    """Groups requests by compatibility key under a :class:`BatchingPolicy`.

    Purely event-driven and deterministic: the caller advances time through
    the ``now`` arguments, and ties between simultaneously-due groups break
    on (deadline, insertion order). The two answers the service reads on
    every event are kept where they change: the waiting-request count by
    :meth:`offer` and :meth:`_flush`, the earliest deadline by :meth:`offer`
    (recomputed on the first read after a flush).
    """

    def __init__(
        self,
        policy: BatchingPolicy,
        class_policies: dict[int, BatchingPolicy] | None = None,
    ):
        self.policy = policy
        #: per-priority-class knob overrides; classes not listed use ``policy``.
        self.class_policies = dict(class_policies) if class_policies else {}
        self._groups: dict[tuple, _Group] = {}
        #: requests in forming groups (:meth:`depth`).
        self._n_waiting = 0
        #: earliest group deadline; ``None`` while stale (after a flush),
        #: until :meth:`next_deadline` recomputes it.
        self._deadline_s: float | None = None
        self._next_bid = 0
        self._next_seq = 0
        #: lifetime counters for the service report.
        self.n_offered = 0
        self.n_flushed_full = 0
        self.n_flushed_timer = 0
        #: trace recorder (the service binds its own; default disabled).
        self.recorder = NULL_RECORDER
        #: optional metrics registry ("batcher.*" counters).
        self.metrics = None

    def policy_for(self, priority: int) -> BatchingPolicy:
        """The knobs governing one priority class (override or default)."""
        return self.class_policies.get(priority, self.policy)

    def depth(self) -> int:
        """Requests currently waiting in forming batches.

        A kept count: :meth:`offer` adds each request, :meth:`_flush`
        removes a flushed group's.
        """
        return self._n_waiting

    def forming_workloads(self):
        """Iterate the workload of every forming batch (flush order).

        The dispatcher's retirement guard consumes this: work already
        admitted into a forming batch must keep at least one capable
        worker alive until it flushes (see
        :meth:`FleetDispatcher.reap <repro.serve.dispatch.FleetDispatcher.reap>`).
        """
        for group in self._groups.values():
            yield (group.workload if group.workload is not None else group.requests[0].workload)

    def next_deadline(self) -> float | None:
        """Earliest latency-trigger deadline among forming batches.

        Kept: :meth:`offer` lowers it when it opens a group; after a flush
        the first read takes the minimum over the groups left.
        """
        if not self._groups:
            return None
        if self._deadline_s is None:
            self._deadline_s = min(g.deadline_s for g in self._groups.values())
        return self._deadline_s

    @cached_property
    def _offered(self):
        """The ``batcher.offered`` counter, created on the first offer."""
        return self.metrics.counter("batcher.offered")

    def offer(
        self,
        request: Request,
        now: float,
        decision: "PlacementDecision | None" = None,
    ) -> Batch | None:
        """Add one request; returns a batch iff the size trigger fired.

        ``decision`` optionally carries the placement decision governing the
        request; its (possibly bucket-padded) workload keys the group, so
        requests of nearby shapes that share a bucket coalesce into one
        launch at the padded shape. Without a decision the request's own
        workload keys the group — exact-shape batching.

        The caller is responsible for draining timer-due groups first
        (:meth:`due`) so a request never joins a group whose deadline has
        already passed.
        """
        merged = decision.workload if decision is not None else request.workload
        key = merged.compat_key()
        policy = self.policy_for(request.workload.priority)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group(
                deadline_s=now + policy.max_wait_s,
                seq=self._next_seq,
                workload=merged,
                decision=decision,
            )
            self._next_seq += 1
            if self._deadline_s is not None and group.deadline_s < self._deadline_s:
                self._deadline_s = group.deadline_s
        group.requests.append(request)
        self._n_waiting += 1
        self.n_offered += 1
        if self.metrics is not None:
            self._offered.inc()
        if self.recorder.enabled:
            self.recorder.emit(
                BatcherEnqueued(
                    t_s=now,
                    rid=request.rid,
                    workload=merged.name,
                    group_seq=group.seq,
                    n_waiting=len(group.requests),
                )
            )
        if len(group.requests) >= policy.max_batch:
            self.n_flushed_full += 1
            return self._flush(key, now, cause="max_batch")
        return None

    def due(self, now: float) -> list[Batch]:
        """Flush every group whose latency trigger has fired by ``now``.

        Returned in deadline order; each batch's ``formed_s`` is its own
        deadline (the timer fired then, not at the observation instant).
        """
        due_keys = sorted(
            (key for key, g in self._groups.items() if g.deadline_s <= now),
            key=lambda key: (self._groups[key].deadline_s, self._groups[key].seq),
        )
        batches = []
        for key in due_keys:
            self.n_flushed_timer += 1
            batches.append(self._flush(key, self._groups[key].deadline_s, cause="max_wait"))
        return batches

    def flush_stranded(self, stranded: Callable[[Workload], bool], now: float) -> list[Batch]:
        """Flush, at ``now``, every forming group whose workload ``stranded``
        accepts (creation order).

        The crash path: a group whose every capable worker just died can
        never dispatch, so it leaves the batcher as a batch the service
        retries or fails, the way a displaced queued batch does.
        """
        keys = [key for key, group in self._groups.items() if stranded(group.workload)]
        return [self._flush(key, now, cause="stranded") for key in keys]

    def _flush(self, key: tuple, formed_s: float, cause: str = "max_wait") -> Batch:
        group = self._groups.pop(key)
        self._n_waiting -= len(group.requests)
        self._deadline_s = None
        workload = group.workload if group.workload is not None else group.requests[0].workload
        batch = Batch(
            bid=self._next_bid,
            workload=workload,
            requests=group.requests,
            formed_s=formed_s,
            decision=group.decision,
        )
        self._next_bid += 1
        self._record_close(batch, cause)
        return batch

    def _record_close(self, batch: Batch, cause: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"batcher.flush.{cause}")
        if self.recorder.enabled:
            self.recorder.emit(
                BatchClosed(
                    t_s=batch.formed_s,
                    bid=batch.bid,
                    cause=cause,
                    workload=batch.workload.name,
                    priority=batch.priority,
                    tenant=batch.tenant,
                    rids=tuple(r.rid for r in batch.requests),
                )
            )

    def singleton(self, request: Request, now: float, decision=None) -> Batch:
        """Wrap one request as its own batch, bypassing group formation.

        The split-placement path: a request too large for any single device
        never coalesces with others — it becomes an immediate one-request
        batch (unique ``bid`` from the same counter) that the scheduler
        still orders by priority before the fleet shards it.
        """
        self.n_offered += 1
        if self.metrics is not None:
            self._offered.inc()
        batch = Batch(
            bid=self._next_bid,
            workload=request.workload,
            requests=[request],
            formed_s=now,
            decision=decision,
        )
        self._next_bid += 1
        self._record_close(batch, cause="decision")
        return batch
