"""Typed span events: one dataclass per request-lifecycle edge.

Every edge a request crosses on its way through the serving tier —
arrival, placement, admission, batching, queueing, dispatch, execution,
completion — plus the fleet-side edges (plan-cache lookups, autoscale
actions, drains and retirements) is recorded as one frozen dataclass
below. The :class:`~repro.serve.obs.trace.TraceRecorder` collects them in
emission order; the Perfetto exporter and the critical-path attribution
pass are pure functions over the resulting list.

All timestamps are **simulation-clock** seconds (the same clock every
other number in a :class:`~repro.serve.service.ServiceReport` uses), so a
trace is exactly as bit-deterministic as the run that produced it: same
seed, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SpanEvent:
    """Base of every trace event: one timestamped lifecycle edge.

    ``t_s`` is simulation time in seconds. Subclasses add the identifiers
    that tie the edge to a request (``rid``), a batch (``bid``), or a
    worker (``worker_index``).
    """

    t_s: float


@dataclass(frozen=True)
class RequestArrived(SpanEvent):
    """A request reached the front door (before placement or admission)."""

    rid: int
    workload: str
    priority: int
    tenant: str


@dataclass(frozen=True)
class PlacementDecided(SpanEvent):
    """The placer's verdict for one arrival: route / merge / split / shed.

    ``costs`` lists every capable worker's predicted steady-state service
    time for the decision's workload, ``(worker_index, service_s)`` in
    index order — the alternatives the cost model weighed. ``chosen_s``
    is the decision's own predicted service time (the minimum for
    route/merge, the slowest shard for a split, ``inf`` for a shed).
    """

    rid: int
    kind: str
    workload: str
    chosen_s: float
    costs: tuple[tuple[int, float], ...] = ()
    shed_reason: str = ""


@dataclass(frozen=True)
class AdmissionDecided(SpanEvent):
    """The admission controller's verdict for one placed arrival.

    ``projected_s`` is the class-aware latency projection the verdict was
    made against (``inf`` for shed-kind placements); ``reason`` is
    ``"ok"`` for admits and the shed cause otherwise (``"deadline"``,
    ``"depth"``, or the placement shed reasons ``"capability"`` /
    ``"capacity"``).
    """

    rid: int
    admitted: bool
    projected_s: float
    queue_depth: int
    priority: int
    reason: str


@dataclass(frozen=True)
class BatcherEnqueued(SpanEvent):
    """An admitted request joined a forming micro-batch group.

    ``group_seq`` is the forming group's creation sequence (stable across
    the group's lifetime; the flushed batch id is only assigned at close);
    ``n_waiting`` counts the group's members after this request joined.
    """

    rid: int
    workload: str
    group_seq: int
    n_waiting: int


@dataclass(frozen=True)
class BatchClosed(SpanEvent):
    """A forming group flushed into a dispatchable batch.

    ``cause`` states *why* the batch stopped waiting: ``"max_batch"``
    (size trigger), ``"max_wait"`` (latency trigger), ``"decision"``
    (a split placement bypasses group formation entirely), or
    ``"stranded"`` (a crash left no worker that can run the group).
    ``rids`` are the member requests in offer order.
    """

    bid: int
    cause: str
    workload: str
    priority: int
    tenant: str
    rids: tuple[int, ...]


@dataclass(frozen=True)
class BatchQueued(SpanEvent):
    """A flushed batch entered the priority scheduler's ready queue."""

    bid: int
    priority: int
    tenant: str
    n_requests: int


@dataclass(frozen=True)
class BatchPreempted(SpanEvent):
    """A queued batch was jumped by a later-formed, more urgent one.

    Emitted when the scheduler pops ``by_bid`` while ``bid`` — formed
    earlier but of a less urgent class — stays queued: the non-destructive
    preemption edge, recorded per overtake so a trace shows exactly who
    waited for whom.
    """

    bid: int
    by_bid: int
    priority: int
    by_priority: int


@dataclass(frozen=True)
class BatchHeld(SpanEvent):
    """A popped batch found all its eligible workers busy and was parked.

    Held batches retry first on the next drain; each hold is recorded, so
    a capability-bound batch waiting out a saturated pool leaves a visible
    series of holds rather than silently long queue time.
    """

    bid: int
    priority: int
    candidates: tuple[int, ...]


@dataclass(frozen=True)
class CacheLookup(SpanEvent):
    """One plan-cache lookup at dispatch: hit or miss (cold build).

    ``build_s`` is the one-time plan-build latency charged to the
    faulting batch (0 on a hit); ``worker_index`` is the dispatching
    worker (-1 when the lookup happened outside worker context).
    """

    device: str
    worker_index: int
    workload: str
    n_requests: int
    hit: bool
    build_s: float


@dataclass(frozen=True)
class BatchExecuted(SpanEvent):
    """One batch landed on one worker's engines — the execution timeline.

    ``t_s`` equals ``start_s``. The interval fields mirror
    :class:`~repro.serve.dispatch.BatchExecution`: the copy engine runs
    ``[start_s, start_s + build_s + stage_in_s]`` (plan build first, then
    stage-in), the compute engine runs ``[compute_start_s,
    completion_s]``. For a split placement one event is emitted per
    shard, with ``shard_index`` its position in the decision (``-1`` for
    unsharded batches).
    """

    bid: int
    worker_index: int
    device: str
    workload: str
    priority: int
    tenant: str
    n_requests: int
    rids: tuple[int, ...]
    ready_s: float
    start_s: float
    build_s: float
    stage_in_s: float
    compute_start_s: float
    completion_s: float
    shard_index: int = -1


@dataclass(frozen=True)
class RequestCompleted(SpanEvent):
    """A request's batch finished: the end of its lifecycle span."""

    rid: int
    bid: int
    latency_s: float
    tenant: str
    priority: int


@dataclass(frozen=True)
class ScaleApplied(SpanEvent):
    """One applied fleet change: scale-up, drain begun, or retirement.

    ``kind`` mirrors :class:`~repro.serve.autoscale.ScaleEvent`:
    ``"up"``, ``"down"`` (drain began), or ``"retire"`` (drained worker
    left). ``accepting``/``provisioned`` are the fleet sizes right after.
    """

    kind: str
    worker_index: int
    device: str
    accepting: int
    provisioned: int
    reason: str = ""


@dataclass(frozen=True)
class AlertStateChanged(SpanEvent):
    """One burn-rate alert lifecycle transition from the alert engine.

    ``state`` is one of ``"pending"``, ``"firing"``, ``"resolved"``,
    ``"cancelled"`` (a pending alert whose condition cleared before the
    hold-down elapsed). ``burn_fast``/``burn_slow`` are the rule's two
    window burn rates at the evaluating tick — the evidence the
    transition was decided on.
    """

    alert_id: str
    scope: str
    rule: str
    state: str
    burn_fast: float
    burn_slow: float


@dataclass(frozen=True)
class WorkerCrashed(SpanEvent):
    """A worker left the fleet *non-gracefully* (fault injection).

    The opposite of a drain: nothing in flight finishes. ``lost_batches``
    counts the executions revoked mid-flight and ``lost_requests`` the
    requests they carried — the work the recovery layer must now retry,
    hedge-promote, or fail.
    """

    worker_index: int
    device: str
    lost_batches: int
    lost_requests: int


@dataclass(frozen=True)
class WorkerSlowed(SpanEvent):
    """A straggler window opened or closed on a worker.

    ``factor`` is the worker's slowdown multiplier after the event: > 1
    while any of its windows is open, exactly 1.0 once the last one has
    closed (recovery to full rate).
    """

    worker_index: int
    device: str
    factor: float


@dataclass(frozen=True)
class RequestRetried(SpanEvent):
    """A request lost to a crash was re-placed and re-submitted.

    ``attempt`` counts retries for this request so far (1 = first retry);
    ``budget`` is the total allowance (:data:`~repro.serve.faults.MAX_RETRIES`).
    """

    rid: int
    attempt: int
    budget: int
    priority: int
    tenant: str


@dataclass(frozen=True)
class RequestFailed(SpanEvent):
    """An admitted request was abandoned: the failure end of its span.

    ``reason`` is ``"retries_exhausted"``, ``"deadline"`` (a retry could
    not finish inside the deadline budget), or ``"no_capable_worker"``
    (a lost shard with no surviving capable device).
    """

    rid: int
    reason: str
    priority: int
    tenant: str


@dataclass(frozen=True)
class HedgeLaunched(SpanEvent):
    """A duplicate launch of one batch on a healthier worker.

    ``primary_index`` is the straggler the batch first landed on,
    ``hedge_index`` the worker running the duplicate.
    """

    bid: int
    primary_index: int
    hedge_index: int
    primary_completion_s: float
    hedge_completion_s: float


@dataclass(frozen=True)
class HedgeResolved(SpanEvent):
    """A hedged batch settled: one launch won, the other is waste.

    ``winner`` is ``"primary"`` or ``"hedge"``; ``wasted_s`` is the losing
    launch's compute time, charged to the report's wasted-device-seconds.
    """

    bid: int
    winner: str
    wasted_s: float


@dataclass(frozen=True)
class ShardRecovered(SpanEvent):
    """A split request's lost shard re-executed on a surviving worker."""

    bid: int
    shard_index: int
    from_index: int
    to_index: int
    completion_s: float


@dataclass(frozen=True)
class StageStarted(SpanEvent):
    """One pipeline stage of a request was released for execution.

    Emitted for multi-stage pipeline requests only: a one-stage request's
    stage is the request itself, already traced by the request events.
    The source stage starts at admission; every other stage starts the
    instant its last dependency completes. ``stage_index`` is the stage's
    position in the pipeline's topological order and ``dep_indices`` its
    dependencies' positions — the stable ids the Perfetto exporter uses
    for stage->stage flow arrows.
    """

    rid: int
    pipeline: str
    stage: str
    stage_index: int
    dep_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class StageCompleted(SpanEvent):
    """One pipeline stage of a request finished its batched launch.

    ``t_s`` is the launch's completion instant; ``bid`` the batch that
    served the stage. Emitted for multi-stage pipeline requests only; the
    request's own :class:`RequestCompleted` is emitted once, when its
    *last* stage completes.
    """

    rid: int
    pipeline: str
    stage: str
    stage_index: int
    bid: int


#: event-type name -> class, for exporters that dispatch on type.
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        RequestArrived,
        PlacementDecided,
        AdmissionDecided,
        BatcherEnqueued,
        BatchClosed,
        BatchQueued,
        BatchPreempted,
        BatchHeld,
        CacheLookup,
        BatchExecuted,
        RequestCompleted,
        ScaleApplied,
        AlertStateChanged,
        WorkerCrashed,
        WorkerSlowed,
        RequestRetried,
        RequestFailed,
        HedgeLaunched,
        HedgeResolved,
        ShardRecovered,
        StageStarted,
        StageCompleted,
    )
}
