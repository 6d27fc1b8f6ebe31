"""Priority-class scheduling with weighted-fair queueing across tenants.

The fleet serves multiple disciplines at once — a live ultrasound view and
an offline pulsar-reprocessing campaign share the same GPUs — so the order
in which ready batches reach the workers is policy, not FIFO. The
:class:`PriorityScheduler` holds every flushed-but-undispatched batch and
answers one question: *which batch runs next?*

Two levels of decision:

* **Strict priority across classes** — a ready batch of a more urgent class
  (lower ``priority`` number) always dispatches before any batch of a less
  urgent one. This is *non-destructive preemption*: a queued low-priority
  batch yields its worker slot to a later-arriving high-priority batch, but
  an execution already placed on a worker runs to completion — the
  preemptor only waits out the in-flight work, which the service charges to
  the preemptor's critical path as queueing delay.
* **Deficit round robin (DRR) across tenants inside a class** — each tenant
  with queued work sits in a round-robin ring and accrues credit
  (:data:`QUANTUM` x weight requests per visit); a tenant dispatches its
  head-of-line batch when its credit covers the batch's request count.
  Over a contended interval, tenants therefore receive dispatch service in
  proportion to their weights regardless of how unevenly they submit, and
  a tenant that goes idle forfeits its credit (no banking).

Determinism: ties break on enqueue order, the ring order is first-backlog
order, and all state advances only through :meth:`enqueue`/:meth:`next` —
the same trace always produces the same dispatch sequence.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ShapeError
from repro.serve.batching import Batch
from repro.serve.obs.events import BatchPreempted, BatchQueued
from repro.serve.obs.trace import NULL_RECORDER

#: DRR credit (in requests) granted per ring visit, before weighting: one
#: typical merged batch per turn.
QUANTUM = 4.0


@dataclass(frozen=True)
class QueuePressure:
    """Queued-work pressure of one priority class — the autoscaling signal.

    ``service_s`` is the sum of placer-predicted service times of the
    class's queued batches: what a policy compares against its latency
    budget to decide whether the fleet is falling behind.
    """

    n_batches: int = 0
    n_requests: int = 0
    service_s: float = 0.0

    def plus(self, batch: Batch) -> "QueuePressure":
        """This pressure with one more queued batch folded in.

        The dispatcher folds its held batches in with it; the scheduler
        keeps the same fold per class (:attr:`_ClassQueue.service_s`), so
        both views add in one order — extend both when the pressure
        definition grows.
        """
        return QueuePressure(
            n_batches=self.n_batches + 1,
            n_requests=self.n_requests + batch.n_requests,
            service_s=self.service_s + batch.predicted_service_s,
        )


class _ClassQueue:
    """One priority class: per-tenant FIFO queues plus the DRR ring.

    Dispatch order is purely structural — deque FIFO within a tenant, ring
    order across tenants — so no extra sequence numbers are needed for
    determinism. The batch and request counts are kept up to date by
    :meth:`enqueue`, :meth:`next` and :meth:`remove`; :attr:`service_s` is
    cached and recomputed, in tenant-queue order, only after one of them
    changed the queue or the scheduler re-stamped it.
    """

    def __init__(self, weights: dict[str, float]):
        self._weights = weights
        self._queues: OrderedDict[str, deque[Batch]] = OrderedDict()
        #: tenants with queued work, in round-robin order.
        self._ring: deque[str] = deque()
        self._deficit: dict[str, float] = {}
        #: whether the ring-front tenant received this round's credit yet —
        #: exactly one credit per visit, however many batches it then serves
        #: (crediting per *serve* would overpay whoever is at the front).
        self._credited = False
        self.n_batches = 0
        self.n_requests = 0
        #: cached :attr:`service_s`; ``None`` when the queue changed since.
        self._service_s: float | None = None

    @property
    def service_s(self) -> float:
        """Total placer-predicted service time queued in this class.

        Folded left to right in tenant-queue order, the fold
        :meth:`QueuePressure.plus` makes, on every Python version (``sum``
        of floats compensates from 3.12 on); never kept as a running total:
        adding and subtracting batches one by one gives a different float,
        and admission compares this one against deadlines.
        """
        if self._service_s is None:
            total = 0.0
            for batch in self.batches():
                total += batch.predicted_service_s
            self._service_s = total
        return self._service_s

    def _count(self, batch: Batch, sign: int) -> None:
        self.n_batches += sign
        self.n_requests += sign * batch.n_requests
        self._service_s = None

    def batches(self):
        """Iterate queued batches (tenant ring order within the class)."""
        for queue in self._queues.values():
            yield from queue

    def enqueue(self, batch: Batch) -> None:
        tenant = batch.tenant
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # (Re)joining the backlog: start with zero credit — an idle
            # tenant does not bank service it never asked for.
            self._ring.append(tenant)
            self._deficit[tenant] = 0.0
        queue.append(batch)
        self._count(batch, 1)

    def remove(self, batch: Batch) -> bool:
        """Remove one queued batch by identity (crash recovery path).

        Keeps the DRR structures consistent: a tenant whose queue empties
        leaves the ring and forfeits its credit, exactly as it would after
        serving its last batch. Returns whether the batch was found.
        """
        queue = self._queues.get(batch.tenant)
        if queue is None:
            return False
        try:
            queue.remove(batch)
        except ValueError:
            return False
        self._count(batch, -1)
        if not queue:
            if self._ring and self._ring[0] == batch.tenant:
                self._credited = False
            del self._queues[batch.tenant]
            del self._deficit[batch.tenant]
            self._ring.remove(batch.tenant)
        return True

    def next(self) -> Batch:
        """Pop the next batch by deficit round robin over the tenant ring."""
        while True:
            tenant = self._ring[0]
            queue = self._queues[tenant]
            head = queue[0]
            if not self._credited:
                self._deficit[tenant] += QUANTUM * self._weights.get(tenant, 1.0)
                self._credited = True
            if self._deficit[tenant] >= head.n_requests:
                self._deficit[tenant] -= head.n_requests
                queue.popleft()
                self._count(head, -1)
                if not queue:
                    del self._queues[tenant]
                    del self._deficit[tenant]
                    self._ring.popleft()
                    self._credited = False
                return head
            # Credit spent for this visit: move on to the next tenant.
            self._ring.rotate(-1)
            self._credited = False


class PriorityScheduler:
    """Ready queue of flushed batches: strict priority, DRR-fair tenants.

    Parameters
    ----------
    tenant_weights:
        DRR weight per tenant (default 1.0). A tenant with weight 3 receives
        three times the dispatch service (measured in requests) of a
        weight-1 tenant while both are backlogged at the same priority.

    The queue views are kept, not recounted per event: each class keeps its
    batch and request counts, the scheduler keeps the request count over
    every class, empty classes are deleted at once, and
    :attr:`candidate_refs` counts, per worker index, the queued batches
    that list the worker among their ``candidate_indices``. Those stamps
    and ``predicted_service_s`` change on a queued batch only through
    :meth:`restamp`.
    """

    def __init__(self, tenant_weights: dict[str, float] | None = None):
        self.tenant_weights = dict(tenant_weights) if tenant_weights else {}
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise ShapeError(f"tenant weight must be positive, got {weight} for {tenant!r}")
        #: non-empty classes only (a class is deleted when it empties).
        self._classes: dict[int, _ClassQueue] = {}
        #: requests queued over every class (:meth:`depth_requests`).
        self._n_requests = 0
        #: worker index -> queued batches listing it as a candidate (> 0).
        self.candidate_refs: dict[int, int] = {}
        #: lifetime dispatch counters per (priority, tenant), in requests.
        self.served_requests: dict[tuple[int, str], int] = {}
        #: lifetime overtakes: earlier-formed batches a pop jumped past.
        self.preemptions = 0
        #: trace recorder (the dispatcher binds the service's; default off).
        self.recorder = NULL_RECORDER
        #: optional metrics registry ("scheduler.*" counters).
        self.metrics = None

    def __len__(self) -> int:
        return sum(c.n_batches for c in self._classes.values())

    def empty(self) -> bool:
        return not self._classes

    def depth_requests(self) -> int:
        """Requests queued across every class (admission's backlog view).

        Kept by :meth:`enqueue`, :meth:`next` and :meth:`remove`.
        """
        return self._n_requests

    def head_priority(self) -> int | None:
        """Priority of the batch :meth:`next` would pop (None when empty)."""
        return min(self._classes) if self._classes else None

    def queued_service_s(self, priority: int) -> float:
        """Predicted drain time of work queued at ``priority`` and above.

        The sum of placer-predicted service times of every batch an
        arriving request of this class must let run first (same or more
        urgent classes). This replaces the old global service-time EMA in
        admission control: each queued batch is priced at its own best
        device's predicted cost, so a mixed fleet's estimate no longer
        assumes all batches cost the same.

        Folded left to right over the classes in the order they were
        created, from each class's cached :attr:`_ClassQueue.service_s`:
        an explicit fold, so the float is the same on every Python version
        (``sum`` of floats compensates from 3.12 on), and never a running
        total (admission compares it against deadlines).
        """
        total = 0.0
        for p, class_queue in self._classes.items():
            if p <= priority:
                total += class_queue.service_s
        return total

    def pressure_by_class(self) -> dict[int, QueuePressure]:
        """Per-priority-class queue pressure (most urgent first).

        The scheduler-side half of the autoscaling policies' input: batch
        and request counts plus the predicted drain seconds queued in each
        class, read from each class's kept counts and cached sum (the
        sum folds the same batches in the same order as
        :meth:`QueuePressure.plus`). Held batches live dispatcher-side — see
        :meth:`FleetDispatcher.queued_pressure_by_class
        <repro.serve.dispatch.FleetDispatcher.queued_pressure_by_class>`
        for the merged view policies should consume.
        """
        return {
            priority: QueuePressure(c.n_batches, c.n_requests, c.service_s)
            for priority, c in sorted(self._classes.items())
        }

    def queued_batches(self):
        """Iterate every queued batch (class order, then tenant rings)."""
        for priority in sorted(self._classes):
            yield from self._classes[priority].batches()

    def remove(self, batch: Batch) -> bool:
        """Remove one queued batch by identity; returns whether it was found.

        The crash-recovery hook: a queued split batch whose committed shard
        set references a crashed worker can never dispatch and must leave
        the queue (its requests are retried or failed by the service).
        Ordinary batches stay — a fleet change only re-stamps their
        candidates.
        """
        class_queue = self._classes.get(batch.priority)
        if class_queue is None:
            return False
        removed = class_queue.remove(batch)
        if removed:
            self._n_requests -= batch.n_requests
            self._unref(batch)
            if not class_queue.n_batches:
                del self._classes[batch.priority]
        return removed

    def restamp(self, stamp: Callable[[Batch], None]) -> None:
        """Apply ``stamp`` to every queued batch, then rebuild the kept state.

        The one way a queued batch's ``candidate_indices`` or
        ``predicted_service_s`` may change (the dispatcher re-stamps on
        every fleet change): the candidate reference counts are recounted
        and every class's cached service time goes stale.
        """
        self.candidate_refs = {}
        for batch in self.queued_batches():
            stamp(batch)
            self._ref(batch)
        for class_queue in self._classes.values():
            class_queue._service_s = None  # re-priced: recompute lazily

    def _ref(self, batch: Batch) -> None:
        refs = self.candidate_refs
        for index in batch.candidate_indices or ():
            refs[index] = refs.get(index, 0) + 1

    def _unref(self, batch: Batch) -> None:
        refs = self.candidate_refs
        for index in batch.candidate_indices or ():
            if refs[index] == 1:
                del refs[index]
            else:
                refs[index] -= 1

    def enqueue(self, batch: Batch) -> None:
        if self.metrics is not None:
            self.metrics.inc("scheduler.enqueued.batches")
        if self.recorder.enabled:
            self.recorder.emit(
                BatchQueued(
                    t_s=batch.formed_s,
                    bid=batch.bid,
                    priority=batch.priority,
                    tenant=batch.tenant,
                    n_requests=batch.n_requests,
                )
            )
        class_queue = self._classes.get(batch.priority)
        if class_queue is None:
            class_queue = self._classes[batch.priority] = _ClassQueue(self.tenant_weights)
        class_queue.enqueue(batch)
        self._n_requests += batch.n_requests
        self._ref(batch)

    def next(self, now: float | None = None) -> Batch:
        """Pop the next batch to dispatch; raises when empty.

        ``now`` is the dispatch instant, used only to timestamp preemption
        trace events (the pop itself is time-free); omitted, the popped
        batch's formation time stands in.
        """
        if self.empty():
            raise ShapeError("PriorityScheduler.next() on an empty queue")
        priority = min(self._classes)
        class_queue = self._classes[priority]
        batch = class_queue.next()
        self._n_requests -= batch.n_requests
        self._unref(batch)
        if not class_queue.n_batches:
            del self._classes[priority]
        self._record_overtakes(batch, now)
        key = (batch.priority, batch.tenant)
        self.served_requests[key] = self.served_requests.get(key, 0) + batch.n_requests
        return batch

    def _record_overtakes(self, batch: Batch, now: float | None) -> None:
        """Account the earlier-formed, less urgent batches this pop jumped.

        The observable edge of non-destructive preemption: every batch
        still queued at a lower urgency that was formed before the popped
        one just lost its turn to it.
        """
        overtaken = [
            waiting
            for p, class_queue in self._classes.items()
            if p > batch.priority
            for waiting in class_queue.batches()
            if waiting.formed_s < batch.formed_s
        ]
        if not overtaken:
            return
        self.preemptions += len(overtaken)
        if self.metrics is not None:
            self.metrics.inc("scheduler.preemptions", len(overtaken))
        if self.recorder.enabled:
            t_s = batch.formed_s if now is None else now
            for waiting in overtaken:
                self.recorder.emit(
                    BatchPreempted(
                        t_s=t_s,
                        bid=waiting.bid,
                        by_bid=batch.bid,
                        priority=waiting.priority,
                        by_priority=batch.priority,
                    )
                )
