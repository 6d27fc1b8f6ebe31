"""Fleet dispatch: route merged batches across per-device queues.

Each device gets a :class:`DeviceWorker` modelling two engines: a copy
engine running the stage-in kernels (transpose + packing, the plan's
:meth:`~repro.tcbf.BeamformerPlan.stage_in_cost`) and a compute engine
running the GEMM. Consecutive batches on one worker overlap — the stage-in
of batch *i+1* hides behind the GEMM of batch *i* — the way ccglib's
multi-stage buffer overlaps copies with tensor-core math inside one kernel
(paper §III-C), one level up.

Routing is delegated to the :class:`~repro.serve.placement.Placer`: each
batch is placed on the *eligible* worker (capability + memory fit) with the
earliest predicted finish under that device's own cost model. On a
homogeneous fleet every device predicts identical costs, so the decision
collapses to the classic least-loaded rule. Split placements (requests
larger than any single device) shard across several workers at once along
the batch axis and complete at the slowest shard; functional fleets
execute each shard's plan on its slice of the block
(:meth:`FleetDispatcher._execute_split`). This is the one multi-device
path: :mod:`repro.tcbf` plans one device.

Batches reach workers one way: :meth:`FleetDispatcher.submit` queues them
in a :class:`~repro.serve.scheduler.PriorityScheduler`, and
:meth:`FleetDispatcher.drain` hands them to a worker only when its pipeline
can actually accept one (the previous batch's GEMM has started). Keeping
the wait in the scheduler instead of on the worker is what makes
priorities real: a high-priority batch jumps everything still queued,
while each worker keeps at most one staged batch so copy/compute overlap
is preserved exactly. A batch whose eligible workers are all busy is
*held* (it never blocks batches other workers could serve) and retried
first on the next drain. Every launch — a placed batch, a split's shard, a
hedge duplicate, a recovered shard — goes through
:meth:`FleetDispatcher._launch`. The one placement-blind worker choice
(hedge targets, shard recovery) is :func:`least_loaded`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.ccglib.layouts import ensure_batched
from repro.errors import DeviceError, ShapeError
from repro.gpusim.device import Device
from repro.serve.batching import Batch
from repro.serve.cache import CachedPlan, PlanCache
from repro.serve.obs.events import BatchExecuted, BatchHeld, CacheLookup
from repro.serve.obs.trace import NULL_RECORDER, NullRecorder
from repro.serve.placement import PlacementKind, Placer
from repro.serve.scheduler import PriorityScheduler, QueuePressure
from repro.serve.workload import Workload
from repro.tcbf import rms


@dataclass
class BatchExecution:
    """One dispatched batch on the fleet timeline.

    A split placement produces one top-level record (`completion_s` is the
    slowest shard's) with the per-shard records in :attr:`shards`;
    single-worker placements leave ``shards`` as ``None``.
    """

    batch: Batch
    device_name: str
    worker_index: int
    #: when the batch left the batcher.
    ready_s: float
    #: copy-engine start (after queueing and any one-time plan build).
    start_s: float
    compute_start_s: float
    completion_s: float
    stage_in_s: float
    gemm_s: float
    #: one-time plan-build latency charged to this batch (cache miss only).
    build_s: float
    #: per-request output blocks (functional fleets; ``None`` on dry-run).
    outputs: list[np.ndarray] | None = None
    #: per-shard executions of a split placement (``None`` otherwise).
    shards: list["BatchExecution"] | None = None

    @property
    def service_s(self) -> float:
        return self.completion_s - self.start_s

    @property
    def is_split(self) -> bool:
        return self.shards is not None


class DeviceWorker:
    """One device's in-order queue with copy/compute engine overlap.

    ``joined_s``/``ready_s`` support elastic fleets: a worker scaled up at
    ``joined_s`` is provisioned from that instant but cannot start work
    before ``ready_s`` (the modelled startup latency) — its engines simply
    begin free at ``ready_s``, so routing sees the pending startup as
    backlog and no extra event machinery is needed. ``draining`` marks a
    worker the autoscaler is removing: it takes no new placements, finishes
    what it has, and is retired (``retired_s`` set) once idle.
    """

    def __init__(self, device: Device, index: int, joined_s: float = 0.0, ready_s: float = 0.0):
        self.device = device
        self.index = index
        self._copy_free_s = ready_s
        self._compute_free_s = ready_s
        #: when this worker can accept its next batch (see :meth:`accept_s`).
        self._accept_s = ready_s
        #: accumulated compute-engine busy time (utilization numerator).
        self.busy_s = 0.0
        self.n_batches = 0
        self.n_requests = 0
        #: when this worker was provisioned (0.0 for the seed fleet).
        self.joined_s = joined_s
        #: transient compute-rate multiplier (fault injection): batches
        #: scheduled while > 1.0 run that many times slower on both
        #: engines. The default 1.0 leaves every time bit-identical
        #: (``x * 1.0 == x`` for every finite float).
        self.slow_factor = 1.0
        #: marked for scale-down: no new placements, drains what it has.
        self.draining = False
        #: when the drain began (retirement never predates this instant).
        self._drain_s = 0.0
        #: when the drained worker left the fleet (``None`` while serving).
        self.retired_s: float | None = None

    @property
    def accepting(self) -> bool:
        """Whether placement may still route new batches to this worker."""
        return not self.draining and self.retired_s is None

    def backlog_s(self, now: float) -> float:
        """Seconds of queued compute ahead of a batch arriving now."""
        return max(self._compute_free_s - now, 0.0)

    @property
    def accept_s(self) -> float:
        """Earliest time this worker can take another batch.

        Set to the last batch's GEMM start: from that instant the copy
        engine is idle, so the next batch's stage-in overlaps the running
        GEMM and at most one GEMM ever waits behind the in-flight one.
        Everything further back stays in the scheduler, where priorities
        can still reorder it — the non-destructive preemption boundary.
        """
        return self._accept_s

    def schedule(
        self,
        batch: Batch,
        entry: CachedPlan,
        build_s: float,
        now: float,
        n_requests: int | None = None,
        stage_in_override: float | None = None,
    ) -> BatchExecution:
        """Place one batch on this worker's engines; returns its timeline.

        ``now`` is the dispatch instant. The one-time plan build serializes
        ahead of the batch's stage-in on the copy engine (a cold plan cannot
        stage data); the GEMM starts once its stage-in and the previous GEMM
        are both done. On a warm plan cache with equal batches this ends a
        copy-bound run at the sum of the stage-ins plus the last GEMM, and a
        compute-bound run at the first stage-in plus the sum of the GEMMs.
        ``n_requests`` overrides the request count attributed to this
        worker (a split batch touches several workers at once).
        ``stage_in_override`` replaces the plan's stage-in time for
        pipeline-stage batches whose input buffer is (partly) resident here
        or must transfer from another worker
        (:meth:`~repro.serve.placement.Placer.stage_in_s`); ``None`` — the
        only value source-stage batches ever pass — keeps the plan's own cost.
        """
        stage_in_s, gemm_s = entry.stage_in_s, entry.gemm_s
        if stage_in_override is not None:
            stage_in_s = stage_in_override
        stage_in_s *= self.slow_factor
        gemm_s *= self.slow_factor
        start = max(batch.formed_s, self._copy_free_s, now)
        copy_end = start + build_s + stage_in_s
        compute_start = max(copy_end, self._compute_free_s)
        completion = compute_start + gemm_s
        self._copy_free_s = copy_end
        self._compute_free_s = completion
        self._accept_s = compute_start
        self.busy_s += gemm_s
        self.n_batches += 1
        self.n_requests += batch.n_requests if n_requests is None else n_requests
        return BatchExecution(
            batch=batch,
            device_name=self.device.name,
            worker_index=self.index,
            ready_s=batch.formed_s,
            start_s=start,
            compute_start_s=compute_start,
            completion_s=completion,
            stage_in_s=stage_in_s,
            gemm_s=gemm_s,
            build_s=build_s,
        )

    def cancel_tail(self, execution: BatchExecution, now: float) -> float:
        """Cancel one of this worker's executions at ``now`` (hedge loser).

        Returns the compute seconds actually burned — the wasted bill the
        report charges. Only the *tail* reservation can be refunded (work
        scheduled behind it already timed against its completion); a
        non-tail cancellation runs to completion and bills its full GEMM.
        """
        burned = max(0.0, min(execution.completion_s, now) - execution.compute_start_s)
        if self._compute_free_s == execution.completion_s:
            freed_from = max(execution.compute_start_s, min(now, execution.completion_s))
            self.busy_s -= execution.completion_s - freed_from
            self._compute_free_s = freed_from
            return burned
        return execution.completion_s - execution.compute_start_s

    def revoke(self, execution: BatchExecution, now: float) -> float:
        """Account one in-flight execution lost to this worker's crash.

        The GEMM time :meth:`schedule` charged to ``busy_s`` is trimmed
        back to what actually burned before the crash instant; returns the
        burned compute seconds (the crash's wasted bill).
        """
        burned = max(0.0, min(execution.completion_s, now) - execution.compute_start_s)
        self.busy_s -= (execution.completion_s - execution.compute_start_s) - burned
        return burned

    def utilization(self, makespan_s: float) -> float:
        """Compute-engine busy fraction over the simulated horizon."""
        return self.busy_s / makespan_s if makespan_s > 0 else 0.0


def least_loaded(workers: Iterable[DeviceWorker], now: float) -> DeviceWorker | None:
    """The worker whose compute engine drains first, ``None`` when empty.

    The one backlog-only worker choice (hedge targets, shard recovery).
    Ties on equal float backlogs go to the lowest worker index, so replay
    never depends on the order the worker list happens to be in.
    """
    return min(workers, key=lambda w: (w.backlog_s(now), w.index), default=None)


def merge_batch_operands(
    weights: np.ndarray, data_blocks: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Stack compatible per-request operands into one batched GEMM block.

    Several small requests that share one weight set (same calibration /
    matched filter) coalesce into a single plan execution with
    ``batch = n_requests * per_request_batch``. ``weights`` is the shared
    per-request A operand ``(b, M, K)`` (2-D allowed when ``b == 1``) and is
    repeated once per request; ``data_blocks`` holds each request's B operand
    ``(b, K, N)``. The merged output splits back per request with
    :func:`split_batched_output`.
    """
    if not data_blocks:
        raise ShapeError("cannot merge an empty request list")
    weights, _ = ensure_batched(weights, 3)
    blocks = []
    for block in data_blocks:
        block, _ = ensure_batched(block, 3)
        if block.shape[0] != weights.shape[0] or block.shape[1] != weights.shape[2]:
            raise ShapeError(
                f"request block {block.shape} incompatible with weights "
                f"{weights.shape}: per-request batch and K must match"
            )
        blocks.append(block)
    if len({b.shape for b in blocks}) > 1:
        raise ShapeError(f"cannot merge blocks of differing shapes: {[b.shape for b in blocks]}")
    return np.concatenate([weights] * len(blocks), axis=0), np.concatenate(blocks, axis=0)


def split_batched_output(output: np.ndarray, extents: Sequence[int]) -> list[np.ndarray]:
    """Scatter a merged batch output back into per-request slices.

    ``extents`` are the batch extents of the coalesced requests in merge
    order; they must exactly cover ``output`` along the batch axis. Returns
    one view per request (no copies), so each caller gets its own result
    without duplicating the block.
    """
    if not extents:
        raise ShapeError("cannot split over an empty extent list")
    if any(e < 1 for e in extents):
        raise ShapeError(f"extents must be positive, got {list(extents)}")
    total = sum(extents)
    if output.shape[0] != total:
        raise ShapeError(f"extents sum to {total} but output has {output.shape[0]} batch items")
    return np.split(output, np.cumsum(extents)[:-1])


class FleetDispatcher:
    """Placer-routed dispatch of batches over a (possibly mixed) fleet.

    Devices may differ in model and capability (a GH200 next to an MI300X);
    only the execution mode (functional vs dry-run) must be uniform. The
    bound :class:`~repro.serve.placement.Placer` makes every routing
    decision.
    """

    def __init__(
        self,
        devices: list[Device],
        cache: PlanCache | None = None,
        scheduler: PriorityScheduler | None = None,
        placer: Placer | None = None,
    ):
        if not devices:
            raise ShapeError("fleet dispatch requires at least one device")
        if len({d.is_functional for d in devices}) > 1:
            raise DeviceError(
                "fleet devices must share one execution mode; "
                "got a mix of functional and dry-run"
            )
        self.workers = [DeviceWorker(d, i) for i, d in enumerate(devices)]
        #: the fleet's execution mode, captured at construction — the
        #: live worker list can transiently empty out under crash faults.
        self._functional = devices[0].is_functional
        self.cache = cache if cache is not None else PlanCache()
        self.scheduler = scheduler if scheduler is not None else PriorityScheduler()
        self.placer = placer if placer is not None else Placer()
        self.placer.attach(self.workers, self.cache)
        self.executions: list[BatchExecution] = []
        #: batches popped from the scheduler whose eligible workers were all
        #: busy; retried (in pop order) at the start of every drain.
        self._held: list[Batch] = []
        #: requests in :attr:`_held` (:attr:`held_requests`), kept by
        #: :meth:`drain` and :meth:`crash`, the only two that change it.
        self._held_requests = 0
        #: live workers marked draining, kept by :meth:`begin_drain`,
        #: :meth:`crash` and :meth:`reap` (:meth:`next_retire_s`'s gate).
        self._n_draining = 0
        #: next worker index for scale-ups — indices are never reused, so
        #: every placement decision and report row stays unambiguous even
        #: after workers retire.
        self._next_index = len(devices)
        #: drained workers removed from the fleet, kept for reporting.
        self._retired: list[DeviceWorker] = []
        #: optional callable yielding the workloads still *forming* in the
        #: micro-batcher (the service wires it up): admitted work that has
        #: not reached the scheduler yet, which retirement must not
        #: strand. ``None`` means no batcher-side work exists.
        self.forming_workloads: Callable[[], Iterable[Workload]] | None = None
        #: trace recorder (the service binds its own via :meth:`bind_obs`).
        self.recorder: NullRecorder = NULL_RECORDER
        #: optional metrics registry ("dispatch.*" / "cache.*" counters).
        self.metrics = None

    def bind_obs(self, recorder: NullRecorder, metrics) -> None:
        """Bind one run's trace recorder and metrics registry fleet-wide.

        Called once by the service before replay: the dispatcher emits the
        execution and cache-lookup events itself and hands the same
        recorder/registry to the scheduler and placer, so every component
        publishes into one stream.
        """
        self.recorder = recorder
        self.metrics = metrics
        self.scheduler.recorder = recorder
        self.scheduler.metrics = metrics
        self.placer.metrics = metrics

    @property
    def is_functional(self) -> bool:
        return self._functional

    def worker_by_index(self, index: int) -> DeviceWorker:
        """The live worker with a declared index.

        Raises :class:`~repro.errors.UnknownWorkerError` when no live worker
        has it (crashed, retired, or never joined).
        """
        return self.placer.worker_by_index(index)

    # -- elastic fleets ------------------------------------------------------

    @property
    def all_workers(self) -> list[DeviceWorker]:
        """Every worker that ever served, index order (reports' view)."""
        return sorted(self.workers + self._retired, key=lambda w: w.index)

    @property
    def accepting_workers(self) -> list[DeviceWorker]:
        """Workers new placements may target (excludes draining ones)."""
        return [w for w in self.workers if w.accepting]

    def add_worker(
        self, device: Device, now: float = 0.0, ready_s: float | None = None
    ) -> DeviceWorker:
        """Scale up: join one device to the fleet at ``now``.

        The worker is provisioned immediately (it counts toward
        device-seconds from ``now``) but cannot start work before
        ``ready_s`` — the modelled startup latency. Its plan-cache segment
        starts empty, so its first batches pay the one-time plan builds:
        cold start is charged where it lands, never hidden. Queued and held
        batches are re-stamped so work that was capability- or
        capacity-bound can immediately consider the newcomer.
        """
        if device.is_functional != self.is_functional:
            raise DeviceError(
                "scaled-up device must share the fleet's execution mode; "
                f"got functional={device.is_functional} on a "
                f"functional={self.is_functional} fleet"
            )
        worker = DeviceWorker(
            device,
            self._next_index,
            joined_s=now,
            ready_s=now if ready_s is None else ready_s,
        )
        self._next_index += 1
        self.workers.append(worker)
        self.placer.fleet_changed()
        self.refresh_candidates()
        return worker

    def begin_drain(self, index: int, now: float) -> DeviceWorker:
        """Scale down: mark one worker for removal, non-destructively.

        Mirrors PR 3's preemption rule: nothing in flight is revoked. The
        worker finishes everything already scheduled on its engines; its
        queued and held batches are re-stamped onto the remaining fleet
        (falling back to the draining worker only when no accepting worker
        is capable); and :meth:`reap` retires it once it is idle and no
        queued work references it.
        """
        worker = self.worker_by_index(index)
        if not worker.accepting:
            raise DeviceError(f"worker {index} is already draining or retired")
        worker.draining = True
        worker._drain_s = now
        self._n_draining += 1
        self.placer.fleet_changed()
        self.refresh_candidates()
        return worker

    def crash(self, index: int, now: float) -> tuple[DeviceWorker, list[Batch]]:
        """Non-graceful removal: the worker leaves the fleet *now*.

        The destructive cousin of :meth:`begin_drain` — nothing finishes.
        The worker is retired immediately, its plan-cache segment is
        released, and every queued/held batch that can no longer dispatch
        is pulled out and returned for the service's recovery layer to
        retry or fail: split batches whose committed shard set names the
        dead worker, plus any batch left with no capable worker at all.
        Surviving batches are re-stamped onto the remaining fleet, the
        same :meth:`refresh_candidates` path a drain takes.
        """
        worker = self.worker_by_index(index)
        self._n_draining -= worker.draining
        worker.draining = False
        worker.retired_s = now
        self.workers.remove(worker)
        self._retired.append(worker)
        self.cache.release(worker.device)
        self.placer.fleet_changed()

        def doomed(batch: Batch) -> bool:
            decision = batch.decision
            if (
                decision is not None
                and decision.kind is PlacementKind.SPLIT
                and index in decision.shard_worker_indices
            ):
                return True
            return not self.placer.capable_workers(batch.workload, include_draining=True)

        displaced: list[Batch] = []
        for batch in list(self.scheduler.queued_batches()):
            if doomed(batch):
                self.scheduler.remove(batch)
                displaced.append(batch)
        kept: list[Batch] = []
        for batch in self._held:
            if doomed(batch):
                displaced.append(batch)
                self._held_requests -= batch.n_requests
            else:
                kept.append(batch)
        self._held = kept
        self.refresh_candidates()
        return worker, displaced

    def hedge(self, execution: BatchExecution, worker: DeviceWorker, now: float) -> BatchExecution:
        """Duplicate one placed batch on a second worker (hedged dispatch).

        The duplicate occupies the hedge worker's engines for real — its
        cost is never modelled away — but is *not* appended to
        :attr:`executions`: the service resolves the race at first
        completion and swaps the winner in. Outputs are shared with the
        primary (the simulated computation is worker-independent).
        """
        batch = execution.batch
        duplicate, _ = self._launch(worker, batch, batch.workload, batch.n_requests, now, count=0)
        duplicate.outputs = execution.outputs
        return duplicate

    def recover_shard(
        self,
        execution: BatchExecution,
        shard_index: int,
        worker: DeviceWorker,
        now: float,
    ) -> BatchExecution:
        """Re-execute one lost shard of a split placement on a survivor.

        Only the lost shard re-runs — the surviving shards' results stand
        — and the parent's completion (the slowest shard) is re-derived.
        The request count stays attributed to the first shard's worker.
        """
        batch = execution.batch
        extent = batch.decision.shard_extents[shard_index]
        redo, _ = self._launch(
            worker, batch, batch.workload.shard(extent), 1, now, count=0, shard_index=shard_index
        )
        execution.shards[shard_index] = redo
        execution.completion_s = max(e.completion_s for e in execution.shards)
        execution.device_name = "+".join(e.device_name for e in execution.shards)
        execution.worker_index = execution.shards[0].worker_index
        return redo

    def _referenced(self, index: int) -> bool:
        """Whether admitted-but-undispatched work still needs this worker.

        Queued and held batches reference workers through their stamped
        candidates (or committed shard sets); work still *forming* in the
        micro-batcher pins a draining worker when it is the last one
        capable of the workload — otherwise the flush would find an empty
        candidate set for a legitimately admitted request.
        """
        for batch in chain(self._held, self.scheduler.queued_batches()):
            if batch.candidate_indices and index in batch.candidate_indices:
                return True
            decision = batch.decision
            if (
                decision is not None
                and decision.kind is PlacementKind.SPLIT
                and index in decision.shard_worker_indices
            ):
                return True
        if self.forming_workloads is not None:
            worker = self.worker_by_index(index)
            for workload in self.forming_workloads():
                if workload.supported_by(worker.device.spec) and not (
                    self.placer.capable_workers(workload)
                ):
                    return True
        return False

    def next_retire_s(self) -> float | None:
        """Earliest instant a draining worker can actually leave the fleet.

        Only unreferenced draining workers count: one still named by a
        queued batch's candidates (or a committed split decision) will
        produce its own dispatch events, after which this advances. With
        no worker draining (the kept count) it answers at once.
        """
        if not self._n_draining:
            return None
        times = [
            max(w._compute_free_s, w._drain_s)
            for w in self.workers
            if w.draining and not self._referenced(w.index)
        ]
        return min(times) if times else None

    def reap(self, now: float) -> list[DeviceWorker]:
        """Retire every draining worker that is idle and unreferenced.

        Retirement releases the worker's plan-cache segment (its plans hold
        device-resident state that leaves with the device) and moves it to
        the retired list so reports still see its batches and busy time.
        """
        retired: list[DeviceWorker] = []
        for worker in list(self.workers):
            if (
                worker.draining
                and max(worker._compute_free_s, worker._drain_s) <= now
                and not self._referenced(worker.index)
            ):
                worker.retired_s = now
                worker.draining = False
                self._n_draining -= 1
                self.workers.remove(worker)
                self._retired.append(worker)
                self.cache.release(worker.device)
                self.placer.fleet_changed()
                retired.append(worker)
        return retired

    def refresh_candidates(self) -> None:
        """Re-stamp eligible workers on every queued and held batch.

        Called on every fleet change: a scale-up makes the newcomer an
        immediate candidate for waiting work, a drain re-routes everything
        that targeted the leaving worker. Split decisions keep their shard
        worker set — those placements are committed, and :meth:`reap`
        waits for them. Predicted service times are re-priced too, so
        admission's queue-drain estimate tracks the fleet it actually has.
        Queued batches are re-stamped through
        :meth:`PriorityScheduler.restamp
        <repro.serve.scheduler.PriorityScheduler.restamp>`, which keeps the
        scheduler's counts and cached sums in step with the new stamps.
        """
        for batch in self._held:
            self._restamp(batch)
        self.scheduler.restamp(self._restamp)

    def _restamp(self, batch: Batch) -> None:
        """Re-derive one undispatched batch's candidates and predicted cost."""
        if batch.decision is not None and batch.decision.kind is PlacementKind.SPLIT:
            return
        # Clearing first is load-bearing: _candidates returns the stamped
        # indices verbatim when they are set.
        batch.candidate_indices = None
        batch.candidate_indices = tuple(w.index for w in self._candidates(batch))
        batch.hold_until_s = None  # the fleet changed; the preference is stale
        batch.predicted_service_s = self.placer.predicted_service_s(
            batch.workload, batch.n_requests
        )

    def queued_pressure_by_class(self) -> dict[int, "QueuePressure"]:
        """Per-priority-class pressure over scheduler *and* held batches.

        The signal the autoscaling policies consume: the scheduler's own
        :meth:`~repro.serve.scheduler.PriorityScheduler.pressure_by_class`
        misses batches parked dispatcher-side, so the two are merged here —
        a held capability-bound batch is exactly the pressure a scale-up
        could relieve.
        """
        pressure = self.scheduler.pressure_by_class()
        for batch in self._held:
            pressure[batch.priority] = pressure.get(batch.priority, QueuePressure()).plus(batch)
        return dict(sorted(pressure.items()))

    def queued_drain_by_capability(self) -> dict[str, float]:
        """Predicted drain seconds per capability class (precision).

        For each precision with queued/held work: the summed predicted
        service time divided by the number of *accepting* workers that
        support it — the per-capability-pool latency pressure. A capability
        whose pool is empty reports ``inf``: queued work no accepting
        worker can serve is the strongest possible scale-up signal.
        """
        service: dict[str, float] = {}
        sample: dict[str, Workload] = {}
        for batch in chain(self._held, self.scheduler.queued_batches()):
            cap = batch.workload.capability
            service[cap] = service.get(cap, 0.0) + batch.predicted_service_s
            sample.setdefault(cap, batch.workload)
        drains: dict[str, float] = {}
        for cap, total in service.items():
            pool = self.placer.capable_workers(sample[cap])
            drains[cap] = total / len(pool) if pool else float("inf")
        return drains

    def _candidates(self, batch: Batch) -> list[DeviceWorker]:
        """Workers this batch may run on (capability, then memory fit).

        Eligibility changes only with the fleet, so :meth:`submit` stamps
        the indices once, every later event reads them back, and
        :meth:`refresh_candidates` re-derives them on each fleet change.
        The capable pool is the placer's fleet-generation answer for the
        workload's precision; only the memory fit at the batch's extent is
        checked here.
        """
        if batch.candidate_indices is not None:
            return [self.worker_by_index(i) for i in batch.candidate_indices]
        if batch.decision is not None and batch.decision.kind is PlacementKind.SPLIT:
            wanted = set(batch.decision.shard_worker_indices)
            return [w for w in self.workers if w.index in wanted]
        # When every capable worker is draining, fall back to the draining
        # pool: the batch was admitted before the drain began, so it is
        # committed work the drain must still serve (non-destructive
        # scale-down), never stranded.
        capable = self.placer.capable_workers(batch.workload) or (
            self.placer.capable_workers(batch.workload, include_draining=True)
        )
        fits = [w for w in capable if self.placer.fits(w, batch.workload, batch.n_requests)]
        return fits or capable

    # -- scheduler-mediated dispatch -----------------------------------------

    def submit(self, batch: Batch) -> None:
        """Queue one flushed batch for priority-ordered dispatch.

        Stamps the placer's predicted service time and the eligible worker
        indices on the batch (the admission controller's per-device drain
        estimate, and the dispatcher's per-event candidate set) and
        validates that at least one worker can ever serve it — infeasible
        batches must be shed at admission, never parked in the queue
        forever.
        """
        candidates = self._candidates(batch)
        if not candidates:
            raise DeviceError(
                f"no device in the fleet supports workload "
                f"{batch.workload.name!r} ({batch.workload.precision.value}); "
                "the placer should have shed it at admission"
            )
        batch.candidate_indices = tuple(w.index for w in candidates)
        if batch.decision is not None and batch.decision.kind is PlacementKind.SPLIT:
            batch.predicted_service_s = self.placer.predicted_split_service_s(batch.decision)
        else:
            batch.predicted_service_s = self.placer.predicted_service_s(
                batch.workload, batch.n_requests
            )
        self.scheduler.enqueue(batch)

    def has_queued(self) -> bool:
        return bool(self._held) or not self.scheduler.empty()

    @property
    def held_requests(self) -> int:
        """Requests in batches held back by busy eligible workers (kept)."""
        return self._held_requests

    def held_service_s(self, priority: int) -> float:
        """Predicted service queued dispatcher-side at ``priority`` or above.

        Held batches left the scheduler, so admission's
        :meth:`PriorityScheduler.queued_service_s` no longer sees them;
        this is the matching term so the latency projection covers *all*
        undispatched work an arrival must wait out. Folded left to right in
        held order on every call (0.0 at once when nothing is held), never
        kept as a running total, so the float does not depend on the
        Python version or on the order batches came and went.
        """
        total = 0.0
        for batch in self._held:
            if batch.priority <= priority:
                total += batch.predicted_service_s
        return total

    def next_accept_s(self) -> float | None:
        """Earliest instant a worker can take one of the queued batches.

        Restricted to workers eligible for at least one queued/held batch:
        an AMD worker going idle is not an event for a queue of int1 work.
        ``None`` when no live worker matches (possible transiently on an
        elastic fleet while candidates are re-stamped). Queued batches are
        read through the scheduler's kept
        :attr:`~repro.serve.scheduler.PriorityScheduler.candidate_refs`, so
        only the few held batches are walked.

        A locality-held stage batch (``hold_until_s`` set) wakes at its
        preferred worker's accept time instead of its candidates' — an
        idle non-preferred candidate is deliberately *not* a dispatch
        opportunity for it, and treating it as one would stall the clock.
        """
        queued = self.scheduler.candidate_refs
        held: set[int] = set()
        waits: list[float] = []
        for batch in self._held:
            if batch.hold_until_s is not None:
                waits.append(batch.hold_until_s)
            else:
                held.update(batch.candidate_indices or ())
        accepts = [w.accept_s for w in self.workers if w.index in queued or w.index in held]
        accepts.extend(waits)
        return min(accepts) if accepts else None

    def drain(self, now: float) -> list[BatchExecution]:
        """Dispatch queued batches to every worker available at ``now``.

        Held batches (eligible workers busy at an earlier drain) and the
        scheduler's queue are merged by urgency: at each step the more
        urgent of (most urgent held batch, the scheduler's head class)
        dispatches next, with held winning ties (it was popped earlier), so
        holding never lets a stale low-priority batch jump a later, more
        urgent arrival. A batch whose eligible workers cannot accept is
        (re)held without blocking work other devices could take. Returns
        the executions placed, in order.

        With nothing held, a drain whose scheduler is empty or whose every
        worker accepts only after ``now`` would pop nothing: it returns at
        once, before any set-up. The event loop drains on every turn, and
        that is the common case.
        """
        if not self._held and (
            self.scheduler.empty() or all(w.accept_s > now for w in self.workers)
        ):
            return []
        placed: list[BatchExecution] = []
        remaining: list[Batch] = []
        # Stable by class: FIFO within a class is preserved.
        self._held.sort(key=lambda b: b.priority)
        held = deque(self._held)
        self._held = []
        while True:
            head_p = self.scheduler.head_priority()
            if held and (head_p is None or held[0].priority <= head_p):
                batch = held.popleft()
                self._held_requests -= batch.n_requests
            elif head_p is None or all(w.accept_s > now for w in self.workers):
                break
            else:
                batch = self.scheduler.next(now)
            execution = self._try_place(batch, now)
            if execution is None:
                if self.metrics is not None:
                    self.metrics.inc("dispatch.holds")
                if self.recorder.enabled:
                    self.recorder.emit(
                        BatchHeld(
                            t_s=now,
                            bid=batch.bid,
                            priority=batch.priority,
                            candidates=batch.candidate_indices or (),
                        )
                    )
                remaining.append(batch)
                self._held_requests += batch.n_requests
            else:
                placed.append(execution)
        for batch in held:
            # Never attempted this drain (more urgent work took the freed
            # worker and the loop broke with every worker busy) — its wake
            # stamp predates this instant and would pin the clock there.
            # Cleared, the batch wakes on its candidates' accept times,
            # all of which are now in the future, and re-stamps on the
            # next attempt if waiting is still the predicted-cheaper move.
            batch.hold_until_s = None
        self._held = remaining + list(held)
        return placed

    def _try_place(self, batch: Batch, now: float) -> BatchExecution | None:
        """Place one batch if an eligible worker can accept it at ``now``."""
        batch.hold_until_s = None  # re-evaluated on every attempt
        candidates = self._candidates(batch)
        available = [w for w in candidates if w.accept_s <= now]
        if not available:
            return None
        if batch.decision is not None and batch.decision.kind is PlacementKind.SPLIT:
            return self._place_split(batch, now=now)
        if (
            self.placer.stage_locality
            and batch.stage_input_bytes > 0
            and len(candidates) > len(available)
        ):
            # Stage-locality placement gets the full candidate view, busy
            # workers included: the drain loop wakes the instant the *first*
            # worker frees, so ``available`` is almost always a singleton and
            # a locality preference could otherwise never act. The placer's
            # finish key prices the busy resident worker's backlog against
            # the idle worker's interconnect transfer; when waiting for the
            # buffer-resident worker is predicted cheaper, the batch is held
            # and retried when that worker frees.
            preferred = self.placer.select_worker(batch, candidates, now)
            if preferred.accept_s > now:
                # Stamp the wake time: without it the event loop would see
                # the idle (non-preferred) worker's past accept_s as the
                # next dispatch instant and spin without advancing time.
                batch.hold_until_s = preferred.accept_s
                if self.metrics is not None:
                    self.metrics.inc("dispatch.stage_waits")
                return None
            return self._place(preferred, batch, now=now)
        worker = self.placer.select_worker(batch, available, now)
        return self._place(worker, batch, now=now)

    def _place(self, worker: DeviceWorker, batch: Batch, now: float) -> BatchExecution:
        """Launch one batch on ``worker``; functional fleets also execute it.

        The merged block runs for real: the shared weight set repeats per
        request, the request data blocks concatenate along the batch axis,
        and the output scatters back one slice per request
        (:func:`split_batched_output`).
        """
        stage_in = None
        if batch.stage_input_bytes > 0:
            cost = self.placer.estimate(worker, batch.workload, batch.n_requests)
            stage_in = self.placer.stage_in_s(worker, batch, cost)
            if self.metrics is not None and stage_in is not None:
                self.metrics.inc(
                    "dispatch.stage_local"
                    if batch.resident_bytes_on(worker.index) > 0
                    else "dispatch.stage_remote"
                )
        execution, entry = self._launch(
            worker, batch, batch.workload, batch.n_requests, now, stage_in=stage_in
        )
        if self.is_functional:
            execution.outputs = self._execute(batch, entry)
        self.executions.append(execution)
        return execution

    def _launch(
        self,
        worker: DeviceWorker,
        batch: Batch,
        workload: Workload,
        n_requests: int,
        now: float,
        count: int | None = None,
        shard_index: int = -1,
        stage_in: float | None = None,
    ) -> tuple[BatchExecution, CachedPlan]:
        """Fetch ``workload``'s plan on ``worker`` and schedule ``batch`` there.

        The one launch sequence — cache lookup, its event, the engines'
        reservation, its event — shared by placed batches, split shards,
        hedge duplicates and recovered shards. ``count`` and ``stage_in``
        pass through to :meth:`DeviceWorker.schedule` as its request count
        and stage-in override; ``shard_index`` tags the execution event.
        """
        entry, build_s = self.cache.get(worker.device, workload, n_requests)
        self._record_lookup(worker, workload, n_requests, build_s, now)
        execution = worker.schedule(
            batch, entry, build_s, now=now, n_requests=count, stage_in_override=stage_in
        )
        self._record_execution(execution, shard_index=shard_index)
        return execution, entry

    # -- observability hooks -------------------------------------------------

    def _record_lookup(
        self,
        worker: DeviceWorker,
        workload: Workload,
        n_requests: int,
        build_s: float,
        now: float,
    ) -> None:
        """Publish one plan-cache lookup (the dispatcher sees the worker)."""
        if self.metrics is not None:
            self.metrics.inc("cache.hits" if build_s == 0.0 else "cache.misses")
        if self.recorder.enabled:
            self.recorder.emit(
                CacheLookup(
                    t_s=now,
                    device=worker.device.name,
                    worker_index=worker.index,
                    workload=workload.name,
                    n_requests=n_requests,
                    hit=build_s == 0.0,
                    build_s=build_s,
                )
            )

    def _record_execution(self, execution: BatchExecution, shard_index: int = -1) -> None:
        """Emit the execution-timeline event of one placed (shard) launch."""
        if self.metrics is not None:
            self.metrics.inc("dispatch.launches")
        if self.recorder.enabled:
            batch = execution.batch
            self.recorder.emit(
                BatchExecuted(
                    t_s=execution.start_s,
                    bid=batch.bid,
                    worker_index=execution.worker_index,
                    device=execution.device_name,
                    workload=batch.workload.name,
                    priority=batch.priority,
                    tenant=batch.tenant,
                    n_requests=batch.n_requests,
                    rids=tuple(r.rid for r in batch.requests),
                    ready_s=execution.ready_s,
                    start_s=execution.start_s,
                    build_s=execution.build_s,
                    stage_in_s=execution.stage_in_s,
                    compute_start_s=execution.compute_start_s,
                    completion_s=execution.completion_s,
                    shard_index=shard_index,
                )
            )

    # -- split placement -----------------------------------------------------

    def _place_split(self, batch: Batch, now: float) -> BatchExecution:
        """Shard one oversized batch across its decision's workers.

        Every shard is scheduled on its own worker's engines (plans come
        from the same per-device cache, so repeat splits hit); the request
        completes when the slowest shard does. Shards queue behind whatever
        their workers are running — a split claims the whole eligible
        fleet, which is the point: the request did not fit anything
        smaller.
        """
        decision = batch.decision
        shard_execs: list[BatchExecution] = []
        shard_entries: list[CachedPlan] = []
        for i, (index, extent) in enumerate(
            zip(decision.shard_worker_indices, decision.shard_extents)
        ):
            shard, entry = self._launch(
                self.worker_by_index(index),
                batch,
                batch.workload.shard(extent),
                1,
                now,
                count=batch.n_requests if i == 0 else 0,
                shard_index=i,
            )
            shard_entries.append(entry)
            shard_execs.append(shard)
        execution = BatchExecution(
            batch=batch,
            device_name="+".join(e.device_name for e in shard_execs),
            worker_index=shard_execs[0].worker_index,
            ready_s=batch.formed_s,
            start_s=min(e.start_s for e in shard_execs),
            compute_start_s=min(e.compute_start_s for e in shard_execs),
            completion_s=max(e.completion_s for e in shard_execs),
            stage_in_s=max(e.stage_in_s for e in shard_execs),
            gemm_s=max(e.gemm_s for e in shard_execs),
            build_s=max(e.build_s for e in shard_execs),
            shards=shard_execs,
        )
        if self.is_functional:
            execution.outputs = self._execute_split(batch, shard_entries)
        self.executions.append(execution)
        return execution

    def _execute_split(self, batch: Batch, shard_entries: list[CachedPlan]) -> list[np.ndarray]:
        """Functionally beamform one split request and merge the shards.

        ``shard_entries`` are the cache entries the placement step already
        fetched (one per shard, in decision order) — re-fetching here would
        double-count cache hits. The full operands are checked against the
        whole problem first, so an oversized block raises
        :class:`~repro.errors.ShapeError` as the merged path does instead
        of being truncated. One RMS scale is taken over the whole block
        (a per-shard RMS would scale each slice differently and corrupt
        relative amplitudes across the merged output), each shard's plan
        beamforms its disjoint batch range with that scale, and the outputs
        concatenate back along the batch axis: the bytes of the one-plan
        output.
        """
        self._require_operands(batch)
        plans = [entry.plan for entry in shard_entries]
        first = plans[0]
        total = sum(plan.batch for plan in plans)
        weights, _ = ensure_batched(batch.workload.weights, 3)
        data, _ = ensure_batched(batch.requests[0].data, 3)
        for name, operand, expect in (
            ("weights", weights, (total, first.n_beams, first.n_receivers)),
            ("data", data, (total, first.n_receivers, first.n_samples)),
        ):
            if operand.shape != expect:
                raise ShapeError(f"{name} must be {expect}, got {operand.shape}")
        scale = rms(data) if first.needs_scale else None
        outputs, lo = [], 0
        for plan in plans:
            hi = lo + plan.batch
            outputs.append(plan.execute(weights[lo:hi], data[lo:hi], scale=scale).output)
            lo = hi
        return [np.concatenate(outputs, axis=0)]

    # -- merged (and bucket-padded) execution --------------------------------

    @staticmethod
    def _require_operands(batch: Batch) -> None:
        """Raise :class:`ShapeError` unless the batch carries its operands."""
        workload = batch.workload
        if workload.weights is None:
            raise ShapeError(
                f"functional dispatch of {workload.name!r} requires the "
                "workload to carry its weight set"
            )
        if any(req.data is None for req in batch.requests):
            raise ShapeError(
                f"functional dispatch of {workload.name!r} requires every "
                "request to carry a data block"
            )

    def _execute(self, batch: Batch, entry: CachedPlan) -> list[np.ndarray]:
        self._require_operands(batch)
        workload = batch.workload
        blocks = [self._padded_block(req.data, workload.n_samples) for req in batch.requests]
        weights, data = merge_batch_operands(workload.weights, blocks)
        result = entry.plan.execute(weights, data)
        outputs = split_batched_output(
            result.output, [workload.batch_per_request] * batch.n_requests
        )
        # Trim bucket padding back to each request's own sample count: the
        # padded columns are all-zero work the caller never asked for.
        return [
            out[..., : req.workload.n_samples]
            for out, req in zip(outputs, batch.requests)
        ]

    @staticmethod
    def _padded_block(data: np.ndarray, n_samples: int) -> np.ndarray:
        """Zero-pad one request's B operand to the bucket's sample count."""
        data = np.asarray(data)
        if data.shape[-1] == n_samples:
            return data
        if data.shape[-1] > n_samples:
            raise ShapeError(
                f"request data has {data.shape[-1]} samples but the merged "
                f"workload executes {n_samples}"
            )
        pad = [(0, 0)] * (data.ndim - 1) + [(0, n_samples - data.shape[-1])]
        return np.pad(data, pad)

    # -- aggregate statistics ------------------------------------------------

    def makespan_s(self) -> float:
        """Completion time of the last batch (0 when nothing ran)."""
        return max((e.completion_s for e in self.executions), default=0.0)

    def utilizations(self) -> list[float]:
        """Per-worker busy fraction, retired workers included (index order)."""
        span = self.makespan_s()
        return [w.utilization(span) for w in self.all_workers]
