"""Cost-model-driven placement: one decision point for route / merge / split.

The paper's core argument is that beamforming throughput is won by matching
the workload to the hardware: tensor-core peaks are precision-dependent
(1-bit exists on NVIDIA only), transpose/pack overheads differ per device,
and sustained clocks vary part to part (paper Tables I/III). A serving tier
that routes purely by backlog ignores all of that. The :class:`Placer`
instead consults the cost model per device model (spec, mode): every
candidate device's :class:`~repro.tcbf.plan.BeamformerPlan` predictions,
priced once per model however many workers share it, and produces an
explicit :class:`PlacementDecision` for each request:

* **route** — the request fits one device; dispatch will pick the eligible
  worker whose predicted finish (backlog + stage-in + GEMM at *that*
  device's costs) is earliest. On a homogeneous fleet every device predicts
  the same costs and this collapses to the old least-loaded rule — which is
  therefore the trivial special case of cost-aware placement, not a
  separate code path.
* **merge** — the request's sample count falls inside a shape bucket
  (:attr:`BatchingPolicy.sample_buckets`); it is padded to the bucket edge
  so *nearby* shapes share one merged launch. The padded columns are priced
  by the cost model (the plan is built at the padded shape), trading padded
  FLOPs for fewer, fuller launches.
* **split** — the request exceeds every single device's memory; it is
  sharded across the capable workers along the batch axis, with extents
  proportional to each device's memory
  (:func:`split_extent_weighted`), executed concurrently, and completed
  at the slowest shard. Each shard's plan is
  ``workload.shard(extent).make_plan``, built by the plan cache.
* **shed** — no capable device exists (e.g. int1 on an AMD-only fleet) or
  the request cannot be made to fit even sharded; admission turns this into
  an explicit front-door rejection instead of a doomed queue entry.

Design decisions worth knowing:

* *Cold builds are not a routing penalty.* The predicted finish excludes
  the one-time plan-build charge: builds amortize, and penalizing them
  would permanently pin traffic to whichever device happened to warm first
  — exactly wrong for fleet growth. The build is still charged to the
  batch that faults it in (the plan cache's job), just not double-counted
  as a routing deterrent.
* *One placement pass per fleet generation.* :meth:`Placer.place`
  returns the eligible workers it found with the decision, and admission
  prices the request over them instead of checking capability and fit
  again. Which workers can take a workload, and how fast the best one is,
  change only when the worker set does, so the placer keeps those answers
  (the worker map by index, capable workers per precision, best service
  time per compatibility key, the decision per workload and bucket) until
  the fleet next changes (:meth:`Placer.fleet_changed`). The arrivals of
  one stream then share one decision and, when bucketed, one padded
  workload.
* *Priced per device model, not per device.* A
  :class:`~repro.gpusim.device.Device` is only its spec, its execution mode
  and a power model of that spec, so every worker of one model predicts
  the same costs: the cost table is keyed by (spec, mode), and an A100
  that a scale-up or a replacement adds reuses the first A100's prices.
* *Estimates are memoized, never executed.* Pricing a candidate device
  builds a plan and asks its pure ``predict_*``/``stage_in_cost`` methods;
  no kernel runs on any device, so what-if costing cannot perturb the
  simulation (see :meth:`BeamformerPlan.predict_weight_prep_cost
  <repro.tcbf.plan.BeamformerPlan.predict_weight_prep_cost>`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import DeviceError, ShapeError, UnknownWorkerError
from repro.serve.workload import Workload

if TYPE_CHECKING:
    from repro.gpusim.specs import GPUSpec
    from repro.serve.batching import Batch, BatchingPolicy
    from repro.serve.cache import PlanCache
    from repro.serve.dispatch import DeviceWorker

#: fraction of a device's memory the placer lets one merged problem claim
#: (operands + output; leaves headroom for staging buffers and the runtime).
MEMORY_FRACTION = 0.9

#: effective device-to-device bandwidth for moving an inter-stage buffer
#: between workers, bytes/s. PCIe-class: the fleet model assumes no NVLink
#: fabric between *workers* (a worker is one device), so a successor stage
#: placed off the producer's device pays an explicit host-mediated transfer.
INTERCONNECT_BANDWIDTH = 25e9


def split_extent_weighted(total: int, weights: Sequence[float]) -> list[int]:
    """Capacity-proportional split of ``total`` units over weighted shards.

    Largest-remainder rounding, deterministic (remainder ties go to the
    lowest index), every shard non-empty. A device with twice the memory
    weight takes twice the extent, which is what lets a GH200 + MI300X pair
    host a problem an equal split would overflow on the smaller device;
    equal weights give the near-equal split with the remainder on the first
    ``total % len(weights)`` shards.
    """
    if not weights:
        raise ShapeError("need at least one shard weight")
    if any(w <= 0 for w in weights):
        raise ShapeError(f"shard weights must be positive, got {list(weights)}")
    parts = len(weights)
    if total < parts:
        raise ShapeError(f"cannot split {total} units over {parts} devices")
    wsum = float(sum(weights))
    raw = [total * w / wsum for w in weights]
    extents = [int(r) for r in raw]
    order = sorted(range(parts), key=lambda i: (-(raw[i] - extents[i]), i))
    for i in order[: total - sum(extents)]:
        extents[i] += 1
    # A vanishing weight share can round to zero; steal a unit from the
    # largest shard (ties: lowest index) so every device gets real work.
    for i in range(parts):
        while extents[i] < 1:
            donor = max(range(parts), key=lambda k: (extents[k], -k))
            extents[donor] -= 1
            extents[i] += 1
    return extents


class PlacementKind(enum.Enum):
    """What the placer decided to do with a request."""

    ROUTE = "route"
    MERGE = "merge"
    SPLIT = "split"
    SHED = "shed"


@dataclass(frozen=True)
class PlacementCost:
    """Memoized per-device-model cost prediction for one merged workload."""

    #: per-block streaming stage time (transpose + packing), seconds.
    stage_in_s: float
    #: per-block GEMM time, seconds.
    gemm_s: float
    #: one-time plan build + weight preparation, charged only when cold.
    build_s: float

    @property
    def service_s(self) -> float:
        """Steady-state service time of one launch (build excluded)."""
        return self.stage_in_s + self.gemm_s


@dataclass(frozen=True)
class PlacementDecision:
    """The explicit outcome of placing one request.

    ``workload`` is what will actually execute: the request's own workload
    for route/split/shed, the bucket-padded one for merge. For a split,
    ``shard_extents[i]`` is the batch extent placed on the worker with
    index ``shard_worker_indices[i]``.
    """

    kind: PlacementKind
    workload: Workload
    #: why a shed decision was made ("capability" or "capacity").
    reason: str = ""
    shard_extents: tuple[int, ...] = ()
    shard_worker_indices: tuple[int, ...] = ()

    @property
    def is_shed(self) -> bool:
        return self.kind is PlacementKind.SHED


class Placer:
    """The fleet's single placement decision point.

    Bound to a fleet's workers and plan cache by
    :meth:`~repro.serve.dispatch.FleetDispatcher` at construction
    (:meth:`attach`). It keeps two memos and the lifetime decision
    counters: the cost table (per device model (spec, mode), workload
    compatibility and merged extent; valid for the placer's lifetime) and
    the fleet-generation table of answers that depend on the worker set —
    the worker map by index among them — valid until the next
    :meth:`fleet_changed`. Both are pure functions of their keys and the
    fleet, so one placer serves a whole trace deterministically.
    """

    def __init__(self, stage_locality: bool = True):
        #: score pipeline-stage routing by buffer residency: a successor
        #: stage on the producing worker elides stage-in for the resident
        #: fraction; off-worker placement is scored with the interconnect
        #: transfer it will pay. ``False`` is the stage-blind baseline (the
        #: serve-pipeline bench's comparison arm) — the transfer is still
        #: *charged* at dispatch either way (physics is not a policy knob);
        #: source-stage batches are unaffected entirely.
        self.stage_locality = stage_locality
        self._workers: list[DeviceWorker] = []
        self._cache: PlanCache | None = None
        #: the cost table: ``(id(spec), mode, compat_key, n_requests)`` ->
        #: ``(spec, cost)``. ``GPUSpec`` is unhashable (it holds dicts), so
        #: the key takes its id and the entry keeps the spec alive, so the
        #: id cannot be reused while the entry lives.
        self._costs: dict[tuple, tuple[GPUSpec, PlacementCost]] = {}
        #: the fleet-generation table, emptied by :meth:`fleet_changed`.
        #: Keys are tagged by question: ``("workers",)`` (index -> worker),
        #: ``("capable", precision, include_draining)``, ``("service",
        #: compat_key, n_requests)`` and ``("place", id(workload),
        #: bucket_samples)``; a place entry holds its workload, so the id
        #: cannot be reused while the entry lives.
        self._answers: dict[tuple, object] = {}
        #: lifetime decision counters by kind value (the report's view).
        self.decisions: dict[str, int] = {}
        #: optional metrics registry ("placement.*" counters).
        self.metrics = None

    def attach(self, workers: list[DeviceWorker], cache: PlanCache) -> None:
        """Bind to a fleet (called once by the dispatcher).

        The worker list is held by reference, not copied: elastic fleets
        mutate it (scale-up appends, retirement removes) and every placement
        decision must see the fleet as it is *now* — a worker that joined a
        microsecond ago is already a routing candidate, and one that
        retired is not. Answers that depend on the worker set are kept until
        :meth:`fleet_changed`: the dispatcher calls it from its four
        mutation points (``add_worker``, ``begin_drain``, ``crash``,
        ``reap``), and nothing else changes the list or a worker's
        draining/retired state.
        """
        self._workers = workers
        self._cache = cache
        self.fleet_changed()

    def fleet_changed(self) -> None:
        """Start a new fleet generation: forget every worker-set answer.

        The cost table survives: a device's predicted costs do not depend
        on which other devices are in the fleet.
        """
        self._answers.clear()

    # -- eligibility ---------------------------------------------------------

    def capable_workers(
        self, workload: Workload, include_draining: bool = False
    ) -> list[DeviceWorker]:
        """Workers whose architecture supports the workload's precision.

        Draining workers are excluded by default: a worker being scaled
        down takes no *new* placements (it only finishes committed work).
        ``include_draining=True`` is the dispatcher's fallback for batches
        admitted before the drain began whose only capable workers are all
        draining. The list is a fleet-generation answer, shared by every
        caller until the fleet changes: read it, never mutate it.
        """
        key = ("capable", workload.precision, include_draining)
        workers = self._answers.get(key)
        if workers is None:
            workers = self._answers[key] = [
                w
                for w in self._workers
                if workload.supported_by(w.device.spec)
                and (include_draining or w.accepting)
            ]
        return workers

    def fits(self, worker: DeviceWorker, workload: Workload, n_requests: int = 1) -> bool:
        """Whether the merged problem's operands fit one device's memory."""
        limit = MEMORY_FRACTION * worker.device.spec.mem_bytes
        return workload.footprint_bytes(n_requests) <= limit

    def eligible_workers(self, workload: Workload, n_requests: int = 1) -> list[DeviceWorker]:
        """Capable workers that can also hold the merged problem."""
        return [w for w in self.capable_workers(workload) if self.fits(w, workload, n_requests)]

    # -- the cost model ------------------------------------------------------

    def estimate(
        self, worker: DeviceWorker, workload: Workload, n_requests: int
    ) -> PlacementCost:
        """Cost prediction for the merged workload on the worker's model.

        Builds the candidate plan once per (device model, workload
        compatibility, merged extent) and caches its pure predictions;
        nothing executes on the device. The model is the device's spec and
        execution mode, all a device prices with, so workers of one model
        share every entry.
        """
        device = worker.device
        key = (id(device.spec), device.mode, workload.compat_key(), n_requests)
        entry = self._costs.get(key)
        if entry is None:
            plan = workload.make_plan(device, n_requests)
            stage_in = plan.stage_in_cost()
            overhead = self._cache.build_overhead_s if self._cache is not None else 0.0
            entry = self._costs[key] = (
                device.spec,
                PlacementCost(
                    stage_in_s=stage_in.time_s if stage_in is not None else 0.0,
                    gemm_s=plan.predict_gemm_cost().time_s,
                    build_s=overhead + plan.predict_weight_prep_cost().time_s,
                ),
            )
        return entry[1]

    def stage_in_s(
        self, worker: "DeviceWorker", batch: "Batch", cost: PlacementCost
    ) -> float | None:
        """Locality-adjusted stage-in time for a pipeline-stage batch.

        Returns ``None`` for source-stage batches (no inter-stage input) —
        the caller falls back to the plain ``stage_in_s``. For a stage batch, the fraction of the input
        already resident on ``worker`` (its dependency stages executed
        there) skips stage-in; the remainder is charged an interconnect
        transfer on top of the device's own streaming cost:

        ``stage_in = cost.stage_in_s * (1 - resident) + moved_bytes / BW``

        This is *physics*, not policy: dispatch charges it at execution
        regardless of :attr:`stage_locality` (which only controls whether
        :meth:`select_worker` scores with it). The memoized estimate itself
        is never mutated: the adjustment is a pure function of the batch's
        residency, so what-if costing of other candidates stays
        unperturbed.
        """
        total = batch.stage_input_bytes
        if total <= 0:
            return None
        resident = batch.resident_bytes_on(worker.index)
        resident_frac = resident / total
        moved = total - resident
        return cost.stage_in_s * (1.0 - resident_frac) + moved / INTERCONNECT_BANDWIDTH

    def predicted_service_s(self, workload: Workload, n_requests: int) -> float:
        """Best-device steady-state service time of one merged launch.

        The admission controller's per-device replacement for the old
        global service-time EMA: the minimum predicted stage-in + GEMM over
        the workers this workload may actually land on (``inf`` when none
        can). A fleet-generation answer per compatibility key and extent.
        """
        key = ("service", workload.compat_key(), n_requests)
        service_s = self._answers.get(key)
        if service_s is None:
            pool = self.eligible_workers(workload, n_requests) or self.capable_workers(workload)
            service_s = self._answers[key] = min(
                (self.estimate(w, workload, n_requests).service_s for w in pool),
                default=float("inf"),
            )
        return service_s

    def worker_by_index(self, index: int) -> "DeviceWorker":
        """The attached worker with a declared index.

        One lookup in the fleet generation's index -> worker map. Raises
        :class:`~repro.errors.UnknownWorkerError` for an index no attached
        worker has (it crashed, retired or never joined).
        """
        by_index = self._answers.get(("workers",))
        if by_index is None:
            by_index = self._answers[("workers",)] = {w.index: w for w in self._workers}
        try:
            return by_index[index]
        except KeyError:
            raise UnknownWorkerError(f"no worker with index {index} in the fleet") from None

    def predicted_split_service_s(self, decision: PlacementDecision) -> float:
        """Service time of a split placement: the slowest shard's launch."""
        return max(
            self.estimate(
                self.worker_by_index(idx), decision.workload.shard(extent), 1
            ).service_s
            for idx, extent in zip(
                decision.shard_worker_indices, decision.shard_extents
            )
        )

    # -- ingress decisions ---------------------------------------------------

    def place(
        self, workload: Workload, policy: "BatchingPolicy"
    ) -> tuple[PlacementDecision, list[DeviceWorker]]:
        """Decide one arriving request: route, merge, split, or shed.

        Returns the decision and the workers admission prices it over: the
        capable workers that fit the decision's workload, or every capable
        worker when none fits (split, capacity shed) — what
        ``eligible_workers(decision.workload) or
        capable_workers(decision.workload)`` returns, worked out once
        here. The list is for the caller's admission step only; it is not
        part of the decision, so no batch keeps it.

        The pair is a fleet-generation answer per workload instance and
        bucket edge (the policy matters only through the edge): every
        arrival of one stream shares one frozen decision, and the counters
        still count each call.
        """
        bucket = policy.bucket_samples(workload.n_samples)
        key = ("place", id(workload), bucket)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = (workload, *self._place(workload, bucket))
        _, decision, workers = answer
        kind = decision.kind.value
        self.decisions[kind] = self.decisions.get(kind, 0) + 1
        if self.metrics is not None:
            self.metrics.inc(f"placement.{kind}")
        return decision, workers

    def _place(
        self, workload: Workload, bucket: int
    ) -> tuple[PlacementDecision, list[DeviceWorker]]:
        capable = self.capable_workers(workload)
        if not capable:
            shed = PlacementDecision(
                kind=PlacementKind.SHED, workload=workload, reason="capability"
            )
            return shed, capable
        fitting = [w for w in capable if self.fits(w, workload)]
        if fitting:
            padded = workload.padded_to(bucket)
            if padded is not workload:
                padded_fitting = [w for w in capable if self.fits(w, padded)]
                if padded_fitting:
                    merge = PlacementDecision(kind=PlacementKind.MERGE, workload=padded)
                    return merge, padded_fitting
            return PlacementDecision(kind=PlacementKind.ROUTE, workload=workload), fitting
        split = self._plan_split(workload, capable)
        if split is None:
            shed = PlacementDecision(kind=PlacementKind.SHED, workload=workload, reason="capacity")
            return shed, capable
        extents, indices = split
        decision = PlacementDecision(
            kind=PlacementKind.SPLIT,
            workload=workload,
            shard_extents=extents,
            shard_worker_indices=indices,
        )
        return decision, capable

    def _plan_split(
        self, workload: Workload, capable: list["DeviceWorker"]
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """Shard extents + target workers for an oversized request.

        Prefers the widest split (all capable workers) with extents
        proportional to each device's memory
        (:func:`split_extent_weighted` — an equal split would overflow the
        smaller device of a GH200 + MI300X pair long before the pair's
        combined memory is exhausted); falls back to
        narrower splits when the batch axis offers fewer units than
        workers. Returns ``None`` when no arrangement fits — the
        capacity-shed case.
        """
        if not workload.splittable or len(capable) < 2:
            return None
        # Larger-memory devices take the larger shard extents; ties break on
        # worker index so the assignment is replay-stable.
        ranked = sorted(
            capable, key=lambda w: (-w.device.spec.mem_bytes, w.index)
        )
        for parts in range(len(ranked), 1, -1):
            if workload.batch_per_request < parts:
                continue
            workers = ranked[:parts]
            extents = split_extent_weighted(
                workload.batch_per_request,
                [w.device.spec.mem_bytes for w in workers],
            )
            if all(self.fits(w, workload.shard(e)) for w, e in zip(workers, extents)):
                return tuple(extents), tuple(w.index for w in workers)
        return None

    # -- dispatch-time worker selection --------------------------------------

    def select_worker(
        self, batch: "Batch", candidates: Sequence["DeviceWorker"], now: float
    ) -> "DeviceWorker":
        """The candidate with the earliest predicted finish for this batch.

        Predicted finish is the worker's compute backlog plus *its own
        device's* predicted stage-in + GEMM for the merged workload — the
        cost-model-aware generalization of least-loaded. Ties break on
        worker index (replay determinism); cold builds are deliberately
        excluded (see the module docstring).

        For pipeline-stage batches with :attr:`stage_locality` on, the
        stage-in term is replaced by :meth:`stage_in_s`: the worker holding
        the producing stage's output buffer skips (its share of) stage-in,
        while every other candidate is charged the interconnect transfer —
        so locality wins routing exactly when the transfer cost exceeds the
        backlog difference, never unconditionally.
        """
        if not candidates:
            raise DeviceError("select_worker needs at least one candidate")

        def finish_key(worker: "DeviceWorker") -> tuple[float, int]:
            cost = self.estimate(worker, batch.workload, batch.n_requests)
            stage_in = self.stage_in_s(worker, batch, cost) if self.stage_locality else None
            if stage_in is None:
                # Legacy expression kept verbatim: float addition is not
                # associative, and replay byte-identity pins this ordering.
                return (worker.backlog_s(now) + cost.service_s, worker.index)
            return (worker.backlog_s(now) + (stage_in + cost.gemm_s), worker.index)

        return min(candidates, key=finish_key)
