"""The beamforming service: a discrete-event simulation of the serving tier.

:class:`BeamformingService` wires the pieces into one front door::

    arrivals -> placement -> admission -> micro-batcher -> priority scheduler -> fleet
                 (Placer)    control       (shape buckets)        |
                    |                                         plan cache
                    +-- route / merge / split / shed     (per-device segments)

and replays a request trace as a discrete-event simulation over a ranked
table of event sources (see :meth:`BeamformingService.run`): launch
confirmations, faults, pipeline stage releases, batcher deadlines, worker
retirements, autoscaler ticks, arrivals, and worker-availability instants.
Every request is a pipeline request (a bare workload is a one-stage
pipeline) with one lifecycle: admitted at its source stage, released stage
by stage as dependencies complete, and completed by its last stage.
Every arrival first receives an explicit
:class:`~repro.serve.placement.PlacementDecision`: requests no capable
device can run are shed at the door; oversized requests become in-service
splits across several workers; nearby shapes merge into shape buckets;
everything else routes to the cost-model-preferred worker. Admission then
projects the arrival's latency from *per-device predicted service times*
(the placer's cost model — not an observed global EMA), the work queued at
its class and above, and the best eligible worker's backlog. Time is
purely simulated and every component is seeded/deterministic, making whole
service runs bit-reproducible.

The output is a :class:`ServiceReport`: per-request outcomes plus the
SLO-facing aggregates (p50/p95/p99 latency, throughput, goodput, shed
rate, batch/plan-cache/placement statistics, per-device utilization), each
also broken out per priority class and per tenant via
:class:`~repro.serve.slo.SLOTracker`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.serve.autoscale import Autoscaler, FleetSignals, ScaleEvent
from repro.serve.batching import BatchingPolicy, MicroBatcher
from repro.serve.dispatch import BatchExecution, DeviceWorker, FleetDispatcher, least_loaded
from repro.serve.faults import (
    HEDGE_SLOW_THRESHOLD,
    MAX_RETRIES,
    REWARM_LIMIT,
    FaultEvent,
    FaultKind,
    FaultPlan,
    ResiliencePolicy,
)
from repro.serve.obs.critical_path import BlameReport, RequestPath, attribute, blame
from repro.serve.obs.events import (
    AdmissionDecided,
    HedgeLaunched,
    HedgeResolved,
    PlacementDecided,
    RequestArrived,
    RequestCompleted,
    RequestFailed,
    RequestRetried,
    ScaleApplied,
    ShardRecovered,
    StageCompleted,
    StageStarted,
    WorkerCrashed,
    WorkerSlowed,
)
from repro.serve.obs.alerts import Alert
from repro.serve.obs.metrics import MetricsRegistry
from repro.serve.obs.monitor import ServiceMonitor
from repro.serve.obs.trace import NULL_RECORDER, NullRecorder
from repro.serve.placement import PlacementDecision, PlacementKind, Placer
from repro.serve.scheduler import PriorityScheduler
from repro.serve.slo import (
    SLO,
    AdmissionController,
    ClassStats,
    FleetTimeline,
    SLOTracker,
    percentile,
)
from repro.serve.workload import PipelineWorkload, Request


class StageLink(NamedTuple):
    """One stage on a completed request's gating chain.

    ``arrival_s`` is when the stage was released (the source stage's is the
    request's own arrival) and ``completion_s`` when its launch finished;
    consecutive links telescope — each link's release *is* its gating
    dependency's completion — so per-stage latency segments sum bit-exactly
    to the end-to-end latency (see
    :mod:`repro.serve.obs.critical_path`).
    """

    stage: str
    batch_id: int
    arrival_s: float
    completion_s: float


def _gating(pipeline: PipelineWorkload, a: StageLink, b: StageLink) -> StageLink:
    """The later-completing of two stage links (ties: later topological
    index, for replay determinism)."""
    key_a = (a.completion_s, pipeline.stage_index(a.stage))
    key_b = (b.completion_s, pipeline.stage_index(b.stage))
    return b if key_b > key_a else a


@dataclass
class RequestOutcome:
    """Fate of one offered request.

    ``completion_s`` is the request's *last* stage's completion and
    ``batch_id`` that stage's batch; ``stage_chain`` records the gating
    chain source -> final for critical-path blame (one link for a
    one-stage request, empty until the request completes).
    """

    request: Request
    admitted: bool
    batch_id: int | None = None
    completion_s: float | None = None
    output: np.ndarray | None = None
    stage_chain: tuple[StageLink, ...] = ()

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.request.arrival_s


@dataclass(slots=True)
class _RequestRun:
    """In-flight bookkeeping of one admitted request, admission to last stage."""

    outcome: RequestOutcome
    #: stages not yet completed; the request completes when none remain.
    remaining: int
    #: per completed stage: its gating-chain link record.
    completed: dict[str, StageLink] = field(default_factory=dict)
    #: worker index each completed non-sink stage's output buffer resides on.
    residency: dict[str, int] = field(default_factory=dict)
    #: the completed sink that gates the request's completion so far.
    final: StageLink | None = None


@dataclass
class _PendingExecution:
    """One dispatched-but-unconfirmed launch.

    The service defers completion bookkeeping until the simulation clock
    actually reaches the launch's completion — a crash in between revokes
    the work. ``hedge`` is the optional duplicate launch racing the
    primary; the effective completion is whichever finishes first.
    """

    execution: BatchExecution
    seq: int
    hedge: BatchExecution | None = None

    @property
    def completion_s(self) -> float:
        t = self.execution.completion_s
        if self.hedge is not None and self.hedge.completion_s < t:
            t = self.hedge.completion_s
        return t


@dataclass
class ServiceReport:
    """Aggregate outcome of one simulated service run."""

    outcomes: list[RequestOutcome]
    executions: list[BatchExecution]
    slo: SLO
    policy: BatchingPolicy
    n_devices: int
    shed_rate: float
    cache_hit_rate: float
    cache_misses: int
    utilizations: list[float] = field(default_factory=list)
    #: catalog names of the fleet's devices, worker-index order.
    device_names: list[str] = field(default_factory=list)
    #: ingress placement decision counts by kind ("route"/"merge"/...).
    placements: dict[str, int] = field(default_factory=dict)
    #: applied fleet changes, in time order (empty for fixed fleets).
    scale_events: list[ScaleEvent] = field(default_factory=list)
    #: step function of the fleet's size over the run.
    fleet_timeline: FleetTimeline | None = None
    #: per-worker plan-cache story: (worker index, device, hits, misses).
    cache_by_worker: list[tuple[int, str, int, int]] = field(default_factory=list)
    #: the run's metrics registry (``None`` for hand-built reports).
    metrics: MetricsRegistry | None = None
    #: the run's service monitor (``None`` for unmonitored runs).
    monitor: ServiceMonitor | None = None
    #: per-worker provisioned windows ``(joined_s, end_s)``, worker-index
    #: order; ``end_s`` is retirement or the run's makespan.
    worker_spans: list[tuple[float, float]] = field(default_factory=list)
    #: injected worker crashes the run absorbed (0 for fault-free runs).
    n_crashes: int = 0
    #: lost requests re-placed and re-submitted by the recovery layer.
    n_retries: int = 0
    #: duplicate launches hedged against stragglers (and how many won).
    n_hedges: int = 0
    n_hedge_wins: int = 0
    #: lost shards of split requests re-executed on surviving workers.
    n_shard_recoveries: int = 0
    #: compute seconds that served no completed request: hedge losers plus
    #: work burned on crashed workers — the honest bill of resilience.
    wasted_device_seconds: float = 0.0

    # -- request-level metrics ----------------------------------------------

    @property
    def n_offered(self) -> int:
        return len(self.outcomes)

    @property
    def n_admitted(self) -> int:
        return sum(1 for o in self.outcomes if o.admitted)

    @property
    def n_completed(self) -> int:
        return sum(1 for o in self.outcomes if o.completion_s is not None)

    @property
    def n_failed(self) -> int:
        """Admitted requests the service lost (crash, retries exhausted)."""
        return self.n_admitted - self.n_completed

    @property
    def availability(self) -> float:
        """Completed fraction of admitted requests (1.0 when none offered).

        The resilience headline: admission already charged the shed rate,
        so this isolates what the service *accepted and then lost* — a
        fault-free run is 100% available by construction.
        """
        return self.n_completed / self.n_admitted if self.n_admitted else 1.0

    @property
    def latencies_s(self) -> list[float]:
        return [o.latency_s for o in self.outcomes if o.latency_s is not None]

    def latency_percentile(self, q: float) -> float:
        lat = self.latencies_s
        return percentile(lat, q) if lat else 0.0

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def slo_attained(self) -> bool:
        """p99 of admitted requests within the target (and anything ran)."""
        return self.n_completed > 0 and self.p99_latency_s <= self.slo.p99_latency_s

    # -- throughput -----------------------------------------------------------

    @property
    def span_s(self) -> float:
        """First arrival to last completion — the observation window."""
        if not self.outcomes:
            return 0.0
        first = min(o.request.arrival_s for o in self.outcomes)
        last = max((o.completion_s for o in self.outcomes if o.completion_s is not None),
                   default=first)
        return last - first

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of observed span."""
        span = self.span_s
        return self.n_completed / span if span > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Deadline-respecting completions per second of observed span."""
        span = self.span_s
        if span <= 0:
            return 0.0
        deadline = self.slo.admission_deadline_s
        good = sum(1 for t in self.latencies_s if t <= deadline)
        return good / span

    # -- batching -------------------------------------------------------------

    @property
    def n_batches(self) -> int:
        return len(self.executions)

    @property
    def mean_batch_size(self) -> float:
        if not self.executions:
            return 0.0
        return sum(e.batch.n_requests for e in self.executions) / len(self.executions)

    @property
    def max_batch_size(self) -> int:
        return max((e.batch.n_requests for e in self.executions), default=0)

    # -- placement ------------------------------------------------------------

    @property
    def n_split_batches(self) -> int:
        """Launches served by in-service sharding across several workers."""
        return sum(1 for e in self.executions if e.is_split)

    @property
    def padded_ops_fraction(self) -> float:
        """Shape-bucket padding overhead: padded GEMM ops / useful ops.

        0.0 for exact-shape batching; the explicit price paid for merging
        nearby shapes into fewer, fuller launches.
        """
        useful = sum(e.batch.useful_ops for e in self.executions)
        if useful <= 0:
            return 0.0
        return sum(e.batch.padded_ops for e in self.executions) / useful

    def by_worker(self) -> list[dict]:
        """Per-worker placement totals: device, batches, requests, busy share.

        Split placements count one launch on every shard worker; their
        requests are attributed to the first (largest-extent) shard worker.
        """
        stats = [
            {"device": name, "batches": 0, "requests": 0, "utilization": util}
            for name, util in zip(self.device_names, self.utilizations)
        ]
        for e in self.executions:
            parts = e.shards if e.is_split else [e]
            for part in parts:
                stats[part.worker_index]["batches"] += 1
            owner = parts[0].worker_index
            stats[owner]["requests"] += e.batch.n_requests
        return stats

    # -- elastic fleets -------------------------------------------------------

    @property
    def makespan_s(self) -> float:
        """Completion of the last launch — the device-seconds horizon."""
        return max((e.completion_s for e in self.executions), default=0.0)

    @property
    def n_scale_ups(self) -> int:
        return sum(1 for e in self.scale_events if e.kind == "up")

    @property
    def n_scale_downs(self) -> int:
        return sum(1 for e in self.scale_events if e.kind == "down")

    @property
    def peak_fleet_size(self) -> int:
        """Peak *provisioned* size — same cost basis as
        :attr:`device_seconds` and :attr:`mean_fleet_size`, so the three
        compose (a draining worker still bills until retirement)."""
        if self.fleet_timeline is None:
            return self.n_devices
        return self.fleet_timeline.peak_provisioned

    @property
    def device_seconds(self) -> float:
        """Provisioned device-time the run consumed (the cost axis).

        Elastic and fixed fleets are only comparable at equal
        device-seconds — more capacity always buys a better tail.
        """
        if self.fleet_timeline is None:
            return self.n_devices * self.makespan_s
        return self.fleet_timeline.device_seconds(self.makespan_s)

    @property
    def mean_fleet_size(self) -> float:
        if self.fleet_timeline is None:
            return float(self.n_devices)
        return self.fleet_timeline.mean_size(self.makespan_s)

    @property
    def cold_start_requests(self) -> int:
        """Requests served in launches that paid a one-time plan build.

        The honest cold-start bill of an elastic fleet: every scaled-up
        worker's first batches fault their plans in, and those requests
        carry the build on their critical path. (Fixed fleets pay this
        once per workload at trace start.)
        """
        return sum(e.batch.n_requests for e in self.executions if e.build_s > 0)

    # -- per-class / per-tenant breakdowns ------------------------------------

    def slo_tracker(self) -> SLOTracker:
        """The per-(class, tenant) tracker over the outcomes.

        Built once and cached — outcomes are immutable after the run, and
        summary/bench paths ask for several breakdowns of the same report.
        """
        tracker = getattr(self, "_tracker", None)
        if tracker is None:
            tracker = SLOTracker(self.slo)
            for o in self.outcomes:
                tracker.record(
                    priority=o.request.workload.priority,
                    tenant=o.request.workload.tenant,
                    admitted=o.admitted,
                    latency_s=o.latency_s,
                )
            self._tracker = tracker
        return tracker

    def by_priority(self) -> list[ClassStats]:
        """Latency/goodput/shed statistics per priority class (urgent first)."""
        return self.slo_tracker().by_priority(self.span_s)

    def by_tenant(self) -> list[ClassStats]:
        """Latency/goodput/shed statistics per tenant (first-seen order)."""
        return self.slo_tracker().by_tenant(self.span_s)

    def shed_share(self, priority: int) -> float:
        """Fraction of all shed requests that came from one priority class."""
        return self.slo_tracker().shed_share(priority)

    # -- critical-path attribution --------------------------------------------

    def request_paths(self) -> list[RequestPath]:
        """Every completed request's latency, decomposed along its critical
        path (see :mod:`repro.serve.obs.critical_path`). Cached — the
        executions are immutable after the run."""
        paths = getattr(self, "_paths", None)
        if paths is None:
            paths = attribute(self.outcomes, self.executions)
            self._paths = paths
        return paths

    def blame(self, q: float = 99.0) -> BlameReport | None:
        """Per-segment blame over the ``q``-th-percentile tail cohort."""
        return blame(self.request_paths(), q)

    # -- monitoring -----------------------------------------------------------

    def alerts(self) -> list[Alert]:
        """Every burn-rate alert the run's monitor raised (creation order).

        Empty for unmonitored runs — monitoring is opt-in the same way
        tracing is.
        """
        if self.monitor is None:
            return []
        return list(self.monitor.engine.history)

    def worker_busy_fractions(self) -> list[float]:
        """Per-worker compute-busy fraction over each worker's own window.

        Busy time is the sum of the worker's compute-engine spans
        (shard-level for splits); the window is the worker's provisioned
        span from :attr:`worker_spans` — a late joiner or early retiree is
        judged only over the time it actually existed, unlike
        :attr:`utilizations`' shared-makespan denominator.
        """
        if not self.worker_spans:
            return []
        busy = [0.0] * len(self.worker_spans)
        for e in self.executions:
            parts = e.shards if e.is_split else [e]
            for part in parts:
                busy[part.worker_index] += part.completion_s - part.compute_start_s
        fractions = []
        for (start_s, end_s), busy_s in zip(self.worker_spans, busy):
            window = end_s - start_s
            fractions.append(busy_s / window if window > 0 else 0.0)
        return fractions

    def summary(self) -> str:
        lines = [
            f"requests: {self.n_offered} offered, {self.n_admitted} admitted, "
            f"{self.n_completed} completed ({self.shed_rate:.1%} shed)",
            f"latency:  p50 {self.p50_latency_s * 1e3:.3f} ms, "
            f"p95 {self.p95_latency_s * 1e3:.3f} ms, "
            f"p99 {self.p99_latency_s * 1e3:.3f} ms "
            f"(SLO {self.slo.p99_latency_s * 1e3:.3f} ms: "
            f"{'attained' if self.slo_attained else 'MISSED'})",
            f"rate:     {self.throughput_rps:.0f} req/s throughput, "
            f"{self.goodput_rps:.0f} req/s goodput over {self.span_s * 1e3:.1f} ms",
            f"batching: {self.n_batches} launches, mean batch "
            f"{self.mean_batch_size:.1f} (max {self.max_batch_size}, "
            f"knob {self.policy.max_batch} / {self.policy.max_wait_s * 1e6:.0f} us)",
            f"plans:    {self.cache_hit_rate:.1%} cache hit rate "
            f"({self.cache_misses} builds)"
            + (
                " — "
                + ", ".join(
                    f"worker{index}/{device} {hits}h/{misses}b"
                    for index, device, hits, misses in self.cache_by_worker
                )
                if self.cache_by_worker
                else ""
            ),
            f"fleet:    {self.n_devices} device(s) "
            f"[{', '.join(self.device_names)}], utilization "
            + ", ".join(f"{u:.1%}" for u in self.utilizations),
        ]
        busy = self.worker_busy_fractions()
        if busy:
            lines.append(
                "busy:     "
                + ", ".join(
                    f"worker{i}/{device} {fraction:.1%}"
                    for i, (device, fraction) in enumerate(zip(self.device_names, busy))
                )
                + " (compute-busy over each worker's provisioned window)"
            )
        if self.scale_events:
            lines.append(
                f"scaling:  {self.n_scale_ups} up / {self.n_scale_downs} down "
                f"(peak {self.peak_fleet_size} workers, mean "
                f"{self.mean_fleet_size:.2f}, "
                f"{self.device_seconds * 1e3:.2f} device-ms, "
                f"{self.cold_start_requests} cold-start requests)"
            )
        if self.n_crashes or self.n_retries or self.n_hedges or self.n_failed:
            lines.append(
                f"faults:   {self.availability:.3%} available "
                f"({self.n_failed} lost), {self.n_crashes} crashes, "
                f"{self.n_retries} retries, {self.n_hedges} hedges "
                f"({self.n_hedge_wins} won), "
                f"{self.n_shard_recoveries} shard recoveries, "
                f"{self.wasted_device_seconds * 1e3:.3f} wasted device-ms"
            )
        if self.placements:
            parts = [f"{kind} {n}" for kind, n in sorted(self.placements.items())]
            extras = []
            if self.n_split_batches:
                extras.append(f"{self.n_split_batches} sharded launches")
            if self.padded_ops_fraction > 0:
                extras.append(f"{self.padded_ops_fraction:.1%} padded ops")
            suffix = f" ({'; '.join(extras)})" if extras else ""
            lines.append("placing:  " + ", ".join(parts) + suffix)
        if self.n_completed > 0:
            tail = self.blame()
            if tail is not None:
                lines.append("blame:    " + tail.summary())
        classes = self.by_priority()
        tenants = self.by_tenant()
        if len(classes) > 1 or len(tenants) > 1:
            for stats in classes + (tenants if len(tenants) > 1 else []):
                lines.append(
                    f"  [{stats.label}] {stats.n_offered} offered, "
                    f"{stats.n_completed} completed, p99 "
                    f"{stats.p99_latency_s * 1e3:.3f} ms, "
                    f"{stats.shed_rate:.1%} shed "
                    f"({stats.shed_share:.1%} of all shedding)"
                )
        if self.monitor is not None:
            engine = self.monitor.engine
            lines.append(
                f"alerts:   {engine.count('firing')} fired, "
                f"{engine.count('resolved')} resolved, "
                f"{engine.count('cancelled')} cancelled "
                f"(objective {engine.objective:.2%} in-deadline, "
                f"{self.monitor.sampler.n_ticks} samples)"
            )
            for alert in engine.history:
                marks = [f"pending {alert.pending_s * 1e3:.3f} ms"]
                if alert.firing_s is not None:
                    marks.append(f"fired {alert.firing_s * 1e3:.3f} ms")
                if alert.resolved_s is not None:
                    marks.append(f"resolved {alert.resolved_s * 1e3:.3f} ms")
                if alert.cancelled_s is not None:
                    marks.append(f"cancelled {alert.cancelled_s * 1e3:.3f} ms")
                lines.append(
                    f"  [{alert.aid}] "
                    + ", ".join(marks)
                    + f", peak burn {alert.peak_burn:.1f}x"
                )
        if self.metrics is not None:
            rendered = self.metrics.render()
            if rendered:
                lines.append("metrics:")
                lines.extend("  " + line for line in rendered.splitlines())
        return "\n".join(lines)


class BeamformingService:
    """The serving tier over a (simulated) device fleet.

    Parameters
    ----------
    devices:
        The fleet — device models may be mixed (heterogeneous fleets are
        the placement layer's point); only the execution mode (dry-run vs
        functional) must be uniform.
    policy:
        Micro-batching knobs; ``max_batch=1`` is the naive baseline, and
        ``sample_buckets`` enables shape-bucket pad-and-merge.
    slo:
        Latency objective; drives both reporting and admission control.
    admission:
        Optional pre-configured controller; by default one is built from
        ``slo`` with no depth cap.
    class_policies:
        Per-priority-class :class:`BatchingPolicy` overrides — e.g. a tight
        ``max_wait_s`` for the interactive class 0, a deep ``max_batch``
        for a throughput class 1. Classes not listed use ``policy``.
    tenant_weights:
        Deficit-round-robin weights for tenants sharing the fleet
        (default 1.0 each); see :class:`~repro.serve.scheduler.PriorityScheduler`.
    placer:
        Optional pre-configured :class:`~repro.serve.placement.Placer`
        (e.g. stage-blind routing); by default one is built with defaults
        and bound to the fleet.
    autoscaler:
        Optional :class:`~repro.serve.autoscale.Autoscaler`: the fleet
        becomes elastic, with the autoscaler's ticks registered as an
        event source of :meth:`run`. ``devices`` is then the seed fleet
        and the scale-down floor. ``None`` (default) keeps the fleet
        fixed and registers no tick source.
    monitor:
        Optional :class:`~repro.serve.obs.monitor.ServiceMonitor`: its
        sampler ticks are caught up ahead of every event and its alert
        engine is fed every shed/completion/failure verdict. The monitor
        only reads: nothing in the simulation consults its samples or
        alerts, so a monitored run reports byte-identically. ``None``
        (default) does no monitoring work at all, the same zero-overhead
        discipline as the trace recorder.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan`: a deterministic
        schedule of worker crashes, transient slowdowns, and replacements,
        registered as an event source of :meth:`run`. A crash is a
        non-graceful drain — in-flight work on the worker is *lost* and
        handed to the recovery layer. ``None`` or an empty plan registers
        no fault source; completions are confirmed on the clock either
        way, so a fault-free run takes the same code path as a faulted one.
    resilience:
        The :class:`~repro.serve.faults.ResiliencePolicy`: whether the
        service recovers from the fault plan (retries with deadline-aware
        re-placement, hedged dispatch past the straggler threshold, shard
        recovery, and plan-cache re-warm on replacements). Recovery is on
        by default and only consulted when ``faults`` is non-empty.
    """

    def __init__(
        self,
        devices: list[Device],
        policy: BatchingPolicy | None = None,
        slo: SLO | None = None,
        admission: AdmissionController | None = None,
        class_policies: dict[int, BatchingPolicy] | None = None,
        tenant_weights: dict[str, float] | None = None,
        placer: Placer | None = None,
        autoscaler: Autoscaler | None = None,
        recorder: NullRecorder | None = None,
        monitor: ServiceMonitor | None = None,
        faults: FaultPlan | None = None,
        resilience: ResiliencePolicy | None = None,
    ):
        self.policy = policy if policy is not None else BatchingPolicy()
        self.slo = slo if slo is not None else SLO(p99_latency_s=10e-3)
        self.admission = admission if admission is not None else AdmissionController(self.slo)
        #: span-event recorder; the default NULL_RECORDER keeps every
        #: emission site behind a false ``enabled`` flag (zero overhead,
        #: bit-identical goldens). Pass a TraceRecorder to capture the run.
        self.recorder = NULL_RECORDER if recorder is None else recorder
        #: the run's metrics registry; always live (deterministic counters),
        #: shared with every component below and attached to the report.
        self.metrics = MetricsRegistry()
        self.fleet = FleetDispatcher(
            devices,
            scheduler=PriorityScheduler(tenant_weights=tenant_weights),
            placer=placer,
        )
        self.fleet.bind_obs(self.recorder, self.metrics)
        self.admission.metrics = self.metrics
        self._batcher = MicroBatcher(self.policy, class_policies=class_policies)
        self._batcher.recorder = self.recorder
        self._batcher.metrics = self.metrics
        # Retirement guard: a draining worker that is the last one capable
        # of a workload still forming in the batcher must outlive the flush.
        self.fleet.forming_workloads = self._batcher.forming_workloads
        self._autoscaler = autoscaler
        if autoscaler is not None:
            autoscaler.metrics = self.metrics
        self._monitor = monitor
        if monitor is not None:
            monitor.bind(self.recorder, self.metrics, self.slo.admission_deadline_s)
        self._scale_events: list[ScaleEvent] = []
        self._timeline = FleetTimeline()
        self._ran = False
        #: not-yet-arrived outcomes of the trace being replayed, in arrival order.
        self._arrivals: deque[RequestOutcome] = deque()
        #: admitted requests in dispatched-but-unconfirmed launches.
        self._in_flight_requests = 0
        #: admitted-but-uncompleted requests, keyed by root request identity
        #: (rids may collide across independently generated streams; see
        #: :func:`repro.serve.arrivals.merge_arrivals` for renumbering).
        self._runs: dict[int, _RequestRun] = {}
        #: min-heap of (release_s, seq, Request): successor stages whose
        #: dependencies have completed, waiting for the clock to reach the
        #: release instant — the pipeline event source.
        self._stage_heap: list[tuple[float, int, Request]] = []
        self._stage_seq = 0
        #: the fault schedule; empty without a plan, and then the fault
        #: event source is never registered.
        self._faults: tuple[FaultEvent, ...] = faults.events if faults is not None else ()
        #: whether lost work is recovered; without faults there is nothing
        #: to recover from (no hedging, no re-warm bookkeeping).
        self._recovery = bool(self._faults) and (resilience is None or resilience.enabled)
        #: open straggler windows per worker index, oldest first: the
        #: slowdown factor of each SLOW_START not yet closed by a SLOW_END.
        self._slow_windows: dict[int, list[float]] = {}
        self._fault_idx = 0
        #: dispatched-but-unconfirmed launches.
        self._pending: list[_PendingExecution] = []
        self._pending_seq = 0
        #: retry attempts so far, keyed by request identity.
        self._attempts: dict[int, int] = {}
        #: most recent workloads, for plan re-warm on replacement workers.
        self._recent_workloads: OrderedDict[str, tuple] = OrderedDict()
        #: the fleet's execution mode, for constructing replacement devices.
        self._device_mode = devices[0].mode
        self._n_crashes = 0
        self._n_retries = 0
        self._n_hedges = 0
        self._n_hedge_wins = 0
        self._n_shard_recoveries = 0
        self._wasted_s = 0.0

    # -- the event loop ------------------------------------------------------

    def run(self, requests: list[Request]) -> ServiceReport:
        """Replay one arrival trace through the service; returns the report.

        The trace is replayed as one merged stream of events. Each event
        source is a ``(next_s, fire)`` pair: ``next_s()`` is the source's
        next instant (``None`` while it has nothing pending) and
        ``fire(now)`` handles it. Each turn fires the earliest source,
        after catching the monitor up to that instant (its sampler ticks
        are pure reads, so a monitored run replays bit-identically), and
        then dispatches everything placeable at that instant. Simultaneous
        events fire in rank order, the source's position in this table:

        0. **confirm** — finalize launches whose completion the clock
           reached; before a fault, so such work survives a crash at the
           same instant.
        1. **fault** — the fault plan's next event (registered only for a
           non-empty plan).
        2. **stage release** — successor pipeline stages; before a batcher
           flush, so a stage released at the flush instant joins it.
        3. **batcher deadline** — latency-triggered flushes; before a
           simultaneous arrival.
        4. **retire** — a drained worker leaves before placement and
           reports can observe it.
        5. **autoscale tick** — registered only with an autoscaler.
        6. **arrival** — placement, admission, then the batcher.
        7. **worker accept** — no handler: the dispatch after every event
           places whatever the freed worker can take.

        Confirmations run until the last launch completes, so the monitor
        also samples the drain tail. The returned outcomes follow the offered order, so reports line
        up with the input trace.

        One service instance replays one trace: worker queues, batcher
        counters, the plan cache and report state are all trace-scoped, so
        construct a fresh service per trace.
        """
        if self._ran:
            raise ShapeError(
                "BeamformingService.run is single-shot: construct a new "
                "service per trace"
            )
        self._ran = True
        if len({id(r) for r in requests}) != len(requests):
            raise ShapeError(
                "the arrival trace offers the same Request object twice; "
                "generate distinct requests (merge_arrivals renumbers ids)"
            )
        if self.fleet.is_functional and any(r.pipeline.n_stages > 1 for r in requests):
            raise ShapeError(
                "multi-stage pipeline workloads are dry-run only: functional "
                "execution of inter-stage buffers is not modelled yet"
            )
        outcomes = [RequestOutcome(request=r, admitted=False) for r in requests]
        self._arrivals = deque(sorted(outcomes, key=lambda o: o.request.arrival_s))
        table = (
            (self._next_confirm_s, self._confirm),
            (self._next_fault_s, self._handle_fault) if self._faults else None,
            (self._next_stage_s, self._release_stages),
            (self._batcher.next_deadline, self._flush_due),
            (self.fleet.next_retire_s, self._reap),
            (self._next_scale_s, self._scale_tick) if self._autoscaler else None,
            (self._next_arrival_s, self._arrive),
            (self._next_accept_s, None),
        )
        sources = [source for source in table if source is not None]
        self._record_fleet(0.0)
        while True:
            now = fire = None
            for next_s, handler in sources:
                t = next_s()
                if t is not None and (now is None or t < now):
                    now, fire = t, handler
            if now is None:
                break
            if self._monitor is not None:
                self._monitor.advance(now, self)
            if fire is not None:
                fire(now)
            for execution in self.fleet.drain(now):
                self._register(execution, now)
        makespan = self.fleet.makespan_s()
        cache_by_worker = [
            (w.index, w.device.name, *self.fleet.cache.segment_stats(w.device))
            for w in self.fleet.all_workers
        ]
        for index, _, hits, misses in cache_by_worker:
            self.metrics.counter(f"cache.worker{index}.hits").inc(hits)
            self.metrics.counter(f"cache.worker{index}.misses").inc(misses)
        return ServiceReport(
            outcomes=outcomes,
            executions=list(self.fleet.executions),
            slo=self.slo,
            policy=self.policy,
            n_devices=len(self.fleet.all_workers),
            shed_rate=self.admission.shed_rate,
            cache_hit_rate=self.fleet.cache.hit_rate,
            cache_misses=self.fleet.cache.misses,
            utilizations=self.fleet.utilizations(),
            device_names=[w.device.name for w in self.fleet.all_workers],
            placements=dict(self.fleet.placer.decisions),
            scale_events=list(self._scale_events),
            fleet_timeline=self._timeline,
            cache_by_worker=cache_by_worker,
            metrics=self.metrics,
            monitor=self._monitor,
            worker_spans=[
                (w.joined_s, w.retired_s if w.retired_s is not None else makespan)
                for w in self.fleet.all_workers
            ],
            n_crashes=self._n_crashes,
            n_retries=self._n_retries,
            n_hedges=self._n_hedges,
            n_hedge_wins=self._n_hedge_wins,
            n_shard_recoveries=self._n_shard_recoveries,
            wasted_device_seconds=self._wasted_s,
        )

    # -- event sources: arrivals, stage releases, flushes, dispatch ----------

    def _next_arrival_s(self) -> float | None:
        return self._arrivals[0].request.arrival_s if self._arrivals else None

    def _next_stage_s(self) -> float | None:
        return self._stage_heap[0][0] if self._stage_heap else None

    def _next_accept_s(self) -> float | None:
        return self.fleet.next_accept_s() if self.fleet.has_queued() else None

    def _flush_due(self, now: float) -> None:
        for batch in self._batcher.due(now):
            self.fleet.submit(batch)

    def _arrive(self, now: float) -> None:
        """The next request reaches the front door: place, admit, enqueue."""
        outcome = self._arrivals.popleft()
        req = outcome.request
        priority = req.workload.priority
        if self.recorder.enabled:
            self.recorder.emit(
                RequestArrived(
                    t_s=now,
                    rid=req.rid,
                    workload=req.workload.name,
                    priority=priority,
                    tenant=req.workload.tenant,
                )
            )
        placer = self.fleet.placer
        decision, workers = placer.place(req.workload, self._batcher.policy_for(priority))
        if self.recorder.enabled:
            self.recorder.emit(self._placement_event(now, req, decision))
        projected = self._estimate_latency(now, decision, workers)
        # End-to-end admission: every downstream stage adds at least its own
        # best-device launch. Queueing and transfer along the chain show up
        # in the SLO, not the projection; a downstream stage with no capable
        # worker projects inf and sheds at the door.
        pipeline = req.pipeline
        for name in pipeline.topo_order[1:]:
            projected += placer.predicted_service_s(pipeline.stage(name).workload, 1)
        depth = self._depth()
        admitted = self.admission.admit(projected, depth, priority=priority)
        if self.recorder.enabled:
            reason = decision.reason if decision.is_shed else self.admission.last_reason
            self.recorder.emit(
                AdmissionDecided(
                    t_s=now,
                    rid=req.rid,
                    admitted=admitted,
                    projected_s=projected,
                    queue_depth=depth,
                    priority=priority,
                    reason=reason,
                )
            )
        if not admitted:
            if self._monitor is not None:
                self._monitor.observe_shed(now, priority, req.workload.tenant)
            return
        outcome.admitted = True
        self._runs[id(req)] = _RequestRun(outcome=outcome, remaining=pipeline.n_stages)
        if pipeline.n_stages > 1:
            self._stage_started(req, now)
        self._enqueue(req, now, decision)

    def _enqueue(self, req: Request, now: float, decision: PlacementDecision) -> None:
        """Hand one placed request to the batcher, or a split to the fleet."""
        if decision.kind is PlacementKind.SPLIT:
            # Oversized requests never coalesce: straight to the scheduler
            # as their own batch, sharded at dispatch.
            self.fleet.submit(self._batcher.singleton(req, now, decision=decision))
            return
        full = self._batcher.offer(req, now, decision=decision)
        if full is not None:
            self.fleet.submit(full)

    # -- event sources: autoscaling ------------------------------------------

    def _next_scale_s(self) -> float | None:
        """The autoscaler's next tick, while arrivals remain.

        Scale decisions exist for traffic, and ticking through the
        end-of-trace drain would both produce artificial tail actions (a
        cold worker for the last half-formed batch) and keep the event
        loop from terminating. Retirement of already-draining workers has
        its own event source.
        """
        return self._autoscaler.next_tick_s() if self._arrivals else None

    def _scale_tick(self, now: float) -> None:
        signals = self._signals(now)
        events = self._autoscaler.tick(now, self.fleet, signals)
        if events:
            self._scale_events.extend(events)
            if self.recorder.enabled:
                for event in events:
                    self.recorder.emit(self._scale_span(event))
            self._record_fleet(now)

    def _reap(self, now: float) -> None:
        for worker in self.fleet.reap(now):
            event = ScaleEvent(
                t_s=now,
                kind="retire",
                worker_index=worker.index,
                device_name=worker.device.name,
                accepting=len(self.fleet.accepting_workers),
                provisioned=len(self.fleet.workers),
                reason="drain complete",
            )
            self._scale_events.append(event)
            self.metrics.inc("autoscale.retire")
            if self.recorder.enabled:
                self.recorder.emit(self._scale_span(event))
        self._record_fleet(now)

    @staticmethod
    def _scale_span(event: ScaleEvent) -> ScaleApplied:
        """One applied :class:`ScaleEvent`, re-shaped as a trace event."""
        return ScaleApplied(
            t_s=event.t_s,
            kind=event.kind,
            worker_index=event.worker_index,
            device=event.device_name,
            accepting=event.accepting,
            provisioned=event.provisioned,
            reason=event.reason,
        )

    def _record_fleet(self, now: float) -> None:
        accepting = len(self.fleet.accepting_workers)
        provisioned = len(self.fleet.workers)
        self.metrics.set_gauge("fleet.accepting", accepting)
        self.metrics.set_gauge("fleet.provisioned", provisioned)
        self._timeline.record(now, accepting, provisioned)

    def _signals(self, now: float) -> FleetSignals:
        """Snapshot the pressure signals one autoscale tick consumes."""
        pressure = self.fleet.queued_pressure_by_class()
        accepting = self.fleet.accepting_workers
        return FleetSignals(
            t_s=now,
            n_accepting=len(accepting),
            n_draining=len(self.fleet.workers) - len(accepting),
            queued_requests=sum(p.n_requests for p in pressure.values()),
            queued_service_s=sum(p.service_s for p in pressure.values()),
            pressure_by_priority=pressure,
            drain_s_by_capability=self.fleet.queued_drain_by_capability(),
            busy_workers=sum(1 for w in accepting if w.backlog_s(now) > 0),
        )

    # -- internals -----------------------------------------------------------

    def _complete(self, execution: BatchExecution) -> None:
        """Every request of one confirmed launch completed one stage."""
        outputs = execution.outputs
        for i, req in enumerate(execution.batch.requests):
            outcome = self._stage_complete(req, execution)
            if outcome is not None and outputs is not None:
                outcome.output = outputs[i]

    # -- the request lifecycle -----------------------------------------------

    def _stage_started(self, req: Request, now: float) -> None:
        """Count and trace one released stage of a multi-stage pipeline."""
        self.metrics.inc("service.stage_released")
        if self.recorder.enabled:
            pipeline = req.pipeline
            self.recorder.emit(
                StageStarted(
                    t_s=now,
                    rid=req.rid,
                    pipeline=pipeline.name,
                    stage=req.stage,
                    stage_index=pipeline.stage_index(req.stage),
                    dep_indices=tuple(
                        pipeline.stage_index(d) for d in pipeline.stage(req.stage).depends_on
                    ),
                )
            )

    def _stage_complete(self, req: Request, execution: BatchExecution) -> RequestOutcome | None:
        """One stage of one request finished its batched launch.

        Records the stage's completion (and the worker its output buffer
        now resides on), releases every successor whose dependencies are
        all complete — onto the stage heap at the gating dependency's
        completion instant, which the clock has just reached — and returns
        the request's outcome once its last stage has run (else ``None``).
        """
        root = req.root_request
        run = self._runs.get(id(root))
        if run is None:
            return None  # the request already failed on another branch
        pipeline = req.pipeline
        link = StageLink(req.stage, execution.batch.bid, req.arrival_s, execution.completion_s)
        run.completed[req.stage] = link
        run.remaining -= 1
        if pipeline.n_stages > 1:
            self.metrics.inc("service.stage_completed")
            if self.recorder.enabled:
                self.recorder.emit(
                    StageCompleted(
                        t_s=execution.completion_s,
                        rid=req.rid,
                        pipeline=pipeline.name,
                        stage=req.stage,
                        stage_index=pipeline.stage_index(req.stage),
                        bid=execution.batch.bid,
                    )
                )
        successors = pipeline.successors(req.stage)
        if successors:
            run.residency[req.stage] = execution.worker_index
        else:
            run.final = link if run.final is None else _gating(pipeline, run.final, link)
        for stage in successors:
            # Released once: by the completion of its last dependency.
            if any(d not in run.completed for d in stage.depends_on):
                continue
            release_s = max(run.completed[d].completion_s for d in stage.depends_on)
            successor = Request(
                rid=root.rid,
                workload=stage.workload,
                arrival_s=release_s,
                pipeline=pipeline,
                stage=stage.name,
                root=root,
                resident_workers=tuple(sorted({run.residency[d] for d in stage.depends_on})),
                stage_input_bytes=pipeline.stage_input_bytes(stage.name),
            )
            heapq.heappush(self._stage_heap, (release_s, self._stage_seq, successor))
            self._stage_seq += 1
        if run.remaining:
            return None
        return self._finish_pipeline(root, run)

    def _release_stages(self, now: float) -> None:
        """Feed every stage whose release instant the clock reached.

        The pipeline event source's handler: released stages skip admission
        (the root was admitted end-to-end at arrival) and enter the same
        placement -> batcher -> scheduler path an arrival takes, so
        same-stage requests of *different* pipeline arrivals coalesce into
        shared launches exactly like arrivals do.
        """
        while self._stage_heap and self._stage_heap[0][0] <= now:
            _, _, req = heapq.heappop(self._stage_heap)
            if id(req.root_request) not in self._runs:
                continue  # the root failed while this release was pending
            self._stage_started(req, now)
            decision, _ = self.fleet.placer.place(
                req.workload, self._batcher.policy_for(req.workload.priority)
            )
            if decision.is_shed:
                # Mid-pipeline infeasibility (e.g. the only capable worker
                # crashed since admission): the whole request fails.
                self._fail(req, now, "no_capable_worker")
                continue
            self._enqueue(req, now, decision)

    def _finish_pipeline(self, root: Request, run: _RequestRun) -> RequestOutcome:
        """All stages of one request ran: stamp its end-to-end outcome.

        The outcome's completion is the gating sink's; the gating chain is
        reconstructed by walking back from that sink through, at each
        stage, the dependency whose completion gated the release.
        """
        del self._runs[id(root)]
        pipeline = root.pipeline
        final = run.final
        chain = (final,)
        deps = pipeline.stage(final.stage).depends_on
        while deps:
            gating = run.completed[deps[0]]
            for dep in deps[1:]:
                gating = _gating(pipeline, gating, run.completed[dep])
            chain = (gating, *chain)
            deps = pipeline.stage(gating.stage).depends_on
        outcome = run.outcome
        outcome.batch_id = final.batch_id
        outcome.completion_s = completion_s = final.completion_s
        outcome.stage_chain = chain
        latency = completion_s - root.arrival_s
        workload = root.workload
        self.metrics.inc("service.completed")
        self.metrics.observe("service.latency_ms", latency * 1e3)
        if self._monitor is not None:
            self._monitor.observe_completion(
                completion_s, workload.priority, workload.tenant, latency
            )
        if self.recorder.enabled:
            self.recorder.emit(
                RequestCompleted(
                    t_s=completion_s,
                    rid=root.rid,
                    bid=final.batch_id,
                    latency_s=latency,
                    tenant=workload.tenant,
                    priority=workload.priority,
                )
            )
        return outcome

    def _placement_event(self, now: float, req: Request, decision: PlacementDecision):
        """The :class:`PlacementDecided` span of one arrival (traced runs).

        ``costs`` lists every capable worker's predicted steady-state
        service time for the decision's workload — the alternatives the
        cost model weighed — in worker-index order. Estimates are memoized
        and pure (:meth:`Placer.estimate`), so pricing them for the trace
        cannot perturb the simulation.
        """
        placer = self.fleet.placer
        if decision.is_shed:
            chosen, costs = float("inf"), ()
        elif decision.kind is PlacementKind.SPLIT:
            chosen, costs = placer.predicted_split_service_s(decision), ()
        else:
            costs = tuple(
                sorted(
                    (w.index, placer.estimate(w, decision.workload, 1).service_s)
                    for w in placer.capable_workers(decision.workload)
                )
            )
            chosen = min((service_s for _, service_s in costs), default=float("inf"))
        return PlacementDecided(
            t_s=now,
            rid=req.rid,
            kind=decision.kind.value,
            workload=decision.workload.name,
            chosen_s=chosen,
            costs=costs,
            shed_reason=decision.reason,
        )

    @property
    def in_flight(self) -> list[tuple[float, int]]:
        """Dispatched-but-unconfirmed ``(completion_s, n_requests)`` pairs."""
        return [(p.completion_s, p.execution.batch.n_requests) for p in self._pending]

    # -- fault injection and recovery ----------------------------------------

    def _next_confirm_s(self) -> float | None:
        """Earliest effective completion among unconfirmed launches."""
        return min((p.completion_s for p in self._pending), default=None)

    def _next_fault_s(self) -> float | None:
        """The fault plan's next event instant, while the run is live.

        Faults stop firing once arrivals, queued work, and in-flight work
        are all exhausted — injecting into a finished run would only
        produce phantom replacements and keep the loop from terminating.
        """
        if self._fault_idx >= len(self._faults):
            return None
        if not (
            self._arrivals or self._pending or self._stage_heap or self.fleet.has_queued()
        ):
            return None
        return self._faults[self._fault_idx].t_s

    def _register(self, execution: BatchExecution, now: float) -> None:
        """Track one placed launch until the clock confirms its completion.

        Outcomes are only stamped when the completion instant is actually
        reached (:meth:`_confirm`), because a crash in between revokes the
        work. Also the hedged-dispatch hook: a batch landing on a worker at or
        past the straggler threshold gets a duplicate launch on the best
        healthy candidate, first completion wins.
        """
        batch = execution.batch
        pending = _PendingExecution(execution=execution, seq=self._pending_seq)
        self._pending_seq += 1
        self._pending.append(pending)
        self._in_flight_requests += batch.n_requests
        self._note_recent(batch)
        if self._recovery and not execution.is_split:
            primary = self.fleet.worker_by_index(execution.worker_index)
            if primary.slow_factor >= HEDGE_SLOW_THRESHOLD:
                alt = self._hedge_worker(batch, execution.worker_index, now)
                if alt is not None:
                    pending.hedge = self.fleet.hedge(execution, alt, now)
                    self._n_hedges += 1
                    self.metrics.inc("service.hedges")
                    if self.recorder.enabled:
                        self.recorder.emit(
                            HedgeLaunched(
                                t_s=now,
                                bid=batch.bid,
                                primary_index=execution.worker_index,
                                hedge_index=alt.index,
                                primary_completion_s=execution.completion_s,
                                hedge_completion_s=pending.hedge.completion_s,
                            )
                        )

    def _hedge_worker(self, batch, primary_index: int, now: float) -> DeviceWorker | None:
        """Least-loaded healthy candidate to duplicate one batch on, or ``None``.

        Live candidates other than the primary that run below the straggler
        threshold; a candidate that crashed since the batch was stamped is
        no longer in the fleet.
        """
        return least_loaded(
            (
                w
                for w in self.fleet.workers
                if w.index in batch.candidate_indices
                and w.index != primary_index
                and w.slow_factor < HEDGE_SLOW_THRESHOLD
            ),
            now,
        )

    def _confirm(self, now: float) -> None:
        """Finalize every pending launch whose completion the clock reached.

        Hedged launches resolve here: the earlier completion wins (ties go
        to the primary) and the loser is cancelled on its worker.
        """
        due = [p for p in self._pending if p.completion_s <= now]
        due.sort(key=lambda p: (p.completion_s, p.seq))
        for pending in due:
            self._pending.remove(pending)
            self._in_flight_requests -= pending.execution.batch.n_requests
            hedge = pending.hedge
            if hedge is not None:
                hedge_won = hedge.completion_s < pending.execution.completion_s
                loser = pending.execution if hedge_won else hedge
                worker = self.fleet.worker_by_index(loser.worker_index)
                self._settle_hedge(pending, loser, worker.cancel_tail(loser, now), now)
            self._complete(pending.execution)

    def _settle_hedge(
        self, pending: _PendingExecution, loser: BatchExecution, wasted_s: float, now: float
    ) -> None:
        """End one hedge race: ``loser`` (cancelled, or revoked by a crash)
        burned ``wasted_s`` of compute, which is billed; a winning hedge
        takes the primary's slot."""
        primary, hedge = pending.execution, pending.hedge
        pending.hedge = None
        who = "primary"
        if loser is primary:
            slot = self.fleet.executions.index(primary)
            self.fleet.executions[slot] = pending.execution = hedge
            who = "hedge"
            self._n_hedge_wins += 1
        self._wasted_s += wasted_s
        self.metrics.inc("service.hedge_resolved")
        if self.recorder.enabled:
            self.recorder.emit(
                HedgeResolved(t_s=now, bid=primary.batch.bid, winner=who, wasted_s=wasted_s)
            )

    def _handle_fault(self, now: float) -> None:
        """Apply the fault plan's next event (exactly one per loop turn)."""
        event = self._faults[self._fault_idx]
        self._fault_idx += 1
        if event.kind is FaultKind.CRASH:
            self._crash(event, now)
        elif event.kind in (FaultKind.SLOW_START, FaultKind.SLOW_END):
            self._slow(event, now)
        elif event.kind is FaultKind.REPLACE:
            self._replace(event, now)

    def _slow(self, event: FaultEvent, now: float) -> None:
        """Open or close one straggler window on a worker.

        Windows on one worker may overlap: the worker runs at the factor of
        its latest open window and recovers full speed only when its last
        open window closes.
        """
        try:
            worker = self.fleet.worker_by_index(event.worker_index)
        except StopIteration:
            return  # the target crashed or retired before this window
        windows = self._slow_windows.setdefault(worker.index, [])
        if event.kind is FaultKind.SLOW_START:
            windows.append(event.factor)
            if event.factor != 1.0:
                self.metrics.inc("service.slowdowns")
        elif windows:
            windows.pop(0)
        factor = windows[-1] if windows else 1.0
        worker.slow_factor = factor
        if self.recorder.enabled:
            self.recorder.emit(
                WorkerSlowed(
                    t_s=now,
                    worker_index=worker.index,
                    device=worker.device.name,
                    factor=factor,
                )
            )

    def _crash(self, event: FaultEvent, now: float) -> None:
        """One worker leaves non-gracefully; recover or fail its work.

        In-flight work on the dead worker is revoked: split shards
        re-execute on surviving capable workers (the rest of the split
        stands), hedged batches promote their surviving duplicate, and
        everything else goes through the per-request retry/fail path.
        Queued batches the crash stranded (committed splits, workloads
        with no capable worker left) are displaced and retried too.
        """
        try:
            self.fleet.worker_by_index(event.worker_index)
        except StopIteration:
            return  # already gone (flapping plans may name a worker twice)
        dead, displaced = self.fleet.crash(event.worker_index, now)
        index = dead.index
        self._n_crashes += 1
        self.metrics.inc("service.crashes")
        lost_batches = 0
        lost_requests = 0
        keep: list[_PendingExecution] = []
        for pending in self._pending:
            execution = pending.execution
            if pending.hedge is not None and pending.hedge.worker_index == index:
                # The duplicate died with the worker; the primary wins.
                self._settle_hedge(pending, pending.hedge, dead.revoke(pending.hedge, now), now)
            if execution.is_split:
                lost = [
                    i
                    for i, s in enumerate(execution.shards)
                    if s.worker_index == index and s.completion_s > now
                ]
                if lost and not self._recover_shards(execution, lost, dead, now):
                    lost_batches += 1
                    lost_requests += execution.batch.n_requests
                    self._in_flight_requests -= execution.batch.n_requests
                    self.fleet.executions.remove(execution)
                    for shard in execution.shards:
                        if shard.worker_index == index:
                            self._wasted_s += dead.revoke(shard, now)
                        elif shard.completion_s > now:
                            self._wasted_s += shard.gemm_s
                    self._abandon(execution.batch, now)
                    continue
                keep.append(pending)
            elif execution.worker_index == index:
                wasted = dead.revoke(execution, now)
                if pending.hedge is not None:
                    # The race resolves by force majeure: the hedge wins.
                    self._settle_hedge(pending, execution, wasted, now)
                    keep.append(pending)
                else:
                    self._wasted_s += wasted
                    lost_batches += 1
                    lost_requests += execution.batch.n_requests
                    self._in_flight_requests -= execution.batch.n_requests
                    self.fleet.executions.remove(execution)
                    self._abandon(execution.batch, now)
            else:
                keep.append(pending)
        self._pending = keep
        for batch in displaced:
            lost_batches += 1
            lost_requests += batch.n_requests
            self._abandon(batch, now)
        scale_event = ScaleEvent(
            t_s=now,
            kind="crash",
            worker_index=index,
            device_name=dead.device.name,
            accepting=len(self.fleet.accepting_workers),
            provisioned=len(self.fleet.workers),
            reason="injected crash",
        )
        self._scale_events.append(scale_event)
        if self.recorder.enabled:
            self.recorder.emit(self._scale_span(scale_event))
            self.recorder.emit(
                WorkerCrashed(
                    t_s=now,
                    worker_index=index,
                    device=dead.device.name,
                    lost_batches=lost_batches,
                    lost_requests=lost_requests,
                )
            )
        self._record_fleet(now)

    def _recover_shards(
        self,
        execution: BatchExecution,
        lost: list[int],
        dead: DeviceWorker,
        now: float,
    ) -> bool:
        """Re-execute the lost shards of one split; ``False`` = unrecoverable."""
        if not self._recovery:
            return False
        batch = execution.batch
        for shard_index in lost:
            extent = batch.decision.shard_extents[shard_index]
            shard_workload = batch.workload.shard(extent)
            worker = least_loaded(
                (w for w in self.fleet.workers if shard_workload.supported_by(w.device.spec)),
                now,
            )
            if worker is None:
                return False
            self._wasted_s += dead.revoke(execution.shards[shard_index], now)
            redo = self.fleet.recover_shard(execution, shard_index, worker, now)
            self._n_shard_recoveries += 1
            self.metrics.inc("service.shard_recoveries")
            if self.recorder.enabled:
                self.recorder.emit(
                    ShardRecovered(
                        t_s=now,
                        bid=batch.bid,
                        shard_index=shard_index,
                        from_index=dead.index,
                        to_index=worker.index,
                        completion_s=redo.completion_s,
                    )
                )
        return True

    def _replace(self, event: FaultEvent, now: float) -> None:
        """A replacement worker joins the fleet (cold cache, startup delay).

        While recovery is on, the most recent workloads' plans build
        *before* the worker takes traffic — serialized onto its copy
        engine, so the warm-up is paid by the replacement's own timeline
        rather than by its first unlucky batches.
        """
        device = Device(event.device_name, mode=self._device_mode)
        worker = self.fleet.add_worker(device, now, ready_s=now + event.startup_s)
        if self._recovery and self._recent_workloads:
            build_total = 0.0
            for workload, n_requests in self._recent_workloads.values():
                if not workload.supported_by(device.spec):
                    continue
                _, build_s = self.fleet.cache.get(device, workload, n_requests)
                build_total += build_s
            worker._copy_free_s += build_total
        scale_event = ScaleEvent(
            t_s=now,
            kind="replace",
            worker_index=worker.index,
            device_name=device.name,
            accepting=len(self.fleet.accepting_workers),
            provisioned=len(self.fleet.workers),
            reason="crash replacement",
        )
        self._scale_events.append(scale_event)
        self.metrics.inc("service.replacements")
        if self.recorder.enabled:
            self.recorder.emit(self._scale_span(scale_event))
        self._record_fleet(now)

    def _note_recent(self, batch) -> None:
        """Track the trailing workload mix, for replacement-worker re-warm."""
        if not self._recovery:
            return
        key = batch.workload.name
        self._recent_workloads[key] = (batch.workload, batch.n_requests)
        self._recent_workloads.move_to_end(key)
        while len(self._recent_workloads) > REWARM_LIMIT:
            self._recent_workloads.popitem(last=False)

    def _abandon(self, batch, now: float) -> None:
        """Send every request of one revoked batch through retry-or-fail."""
        for req in batch.requests:
            self._retry_or_fail(req, now)

    def _retry_or_fail(self, req: Request, now: float) -> None:
        """Deadline-aware re-placement of one lost request, or failure.

        A retry re-enters the placer for a *fresh* decision on the
        post-crash fleet (the original route may name a dead worker) and
        is only submitted when the projected finish fits inside the
        admission deadline — a doomed launch wastes capacity the surviving
        fleet needs. A lost pipeline *stage* retries as itself —
        re-entering the pipeline at the failed stage, with completed
        predecessors standing — while the deadline clock runs from the
        *root* arrival (end-to-end, not per stage).
        """
        priority = req.workload.priority
        attempts = self._attempts.get(id(req), 0)
        budget = MAX_RETRIES if self._recovery else 0
        if attempts >= budget:
            self._fail(req, now, "retries_exhausted")
            return
        decision, workers = self.fleet.placer.place(
            req.workload, self._batcher.policy_for(priority)
        )
        if decision.is_shed:
            self._fail(req, now, "no_capable_worker")
            return
        projected = self._estimate_latency(now, decision, workers)
        elapsed = now - req.root_request.arrival_s
        if elapsed + projected > self.slo.admission_deadline_s:
            self._fail(req, now, "deadline")
            return
        self._attempts[id(req)] = attempts + 1
        self._n_retries += 1
        self.metrics.inc("service.retries")
        if self.recorder.enabled:
            self.recorder.emit(
                RequestRetried(
                    t_s=now,
                    rid=req.rid,
                    attempt=attempts + 1,
                    budget=budget,
                    priority=priority,
                    tenant=req.workload.tenant,
                )
            )
        self.fleet.submit(self._batcher.singleton(req, now, decision=decision))

    def _fail(self, req: Request, now: float, reason: str) -> None:
        """Abandon one admitted request: the failure end of its lifecycle.

        The outcome stays admitted with no completion — the report's
        availability denominator counts it against the service. Failures
        feed the monitor as budget-bad verdicts, so crash storms drive
        burn-rate alerts exactly like shed storms do. A failed pipeline
        *stage* fails its whole request: the bookkeeping is keyed through
        the root arrival, and completed sibling branches are discarded.
        """
        self._runs.pop(id(req.root_request), None)
        self.metrics.inc("service.failed")
        priority = req.workload.priority
        if self._monitor is not None:
            self._monitor.observe_failure(now, priority, req.workload.tenant)
        if self.recorder.enabled:
            self.recorder.emit(
                RequestFailed(
                    t_s=now,
                    rid=req.rid,
                    reason=reason,
                    priority=priority,
                    tenant=req.workload.tenant,
                )
            )

    def queued_requests(self) -> int:
        """Admitted requests waiting to dispatch (batcher + scheduler + held)."""
        return (
            self._batcher.depth()
            + self.fleet.scheduler.depth_requests()
            + self.fleet.held_requests
        )

    def _depth(self) -> int:
        """Admitted requests waiting or in flight (admission's queue view)."""
        return self.queued_requests() + self._in_flight_requests

    def _estimate_latency(
        self, now: float, decision: PlacementDecision, workers: list[DeviceWorker]
    ) -> float:
        """Class-aware latency projection of one placed launch.

        Built entirely from the placer's per-device cost model — no
        observed EMA: the request's own class batching wait, plus the best
        eligible worker's backlog (the in-flight work even a preemptor must
        wait out), plus the predicted drain of every batch queued at its
        class or above (each priced at its own best device, spread over the
        workers this request may use), plus the predicted service time of
        its own launch on the best device. Uses only information available
        at arrival — identical logic would run in a live front door — and
        still sheds the lowest class first: its projection includes every
        queue, the most urgent class's includes almost none. Shed-kind
        decisions (no capable device / cannot fit even sharded) project an
        infinite latency, so the admission controller rejects them at the
        door with the shed accounted to the request's class.

        ``workers`` are the eligible workers :meth:`Placer.place
        <repro.serve.placement.Placer.place>` returned with the decision;
        a route or merge is priced over them without a second capability
        and fit pass.
        """
        if decision.is_shed:
            return float("inf")
        placer = self.fleet.placer
        priority = decision.workload.priority
        if decision.kind is PlacementKind.SPLIT:
            # A split waits for *all* its shard workers.
            backlog = max(
                self.fleet.worker_by_index(i).backlog_s(now)
                for i in decision.shard_worker_indices
            )
            own_service = placer.predicted_split_service_s(decision)
            batching_wait = 0.0
            n_usable = len(decision.shard_worker_indices)
        else:
            backlog = min(w.backlog_s(now) for w in workers)
            # Placer.predicted_service_s, over the workers already in hand.
            own_service = min(placer.estimate(w, decision.workload, 1).service_s for w in workers)
            batching_wait = self._batcher.policy_for(priority).max_wait_s
            n_usable = len(workers)
        # Undispatched work lives in two places: the scheduler's queues and
        # the dispatcher's held list — both count, or held capability-bound
        # work would be invisible to admission exactly when its one device
        # is saturated.
        queue_drain = (
            self.fleet.scheduler.queued_service_s(priority)
            + self.fleet.held_service_s(priority)
        ) / n_usable
        return batching_wait + backlog + queue_drain + own_service
