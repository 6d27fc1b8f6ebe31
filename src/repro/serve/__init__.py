"""repro.serve — the async beamforming service tier over :mod:`repro.tcbf`.

The paper delivers a library; the roadmap's north star is a *service*:
sporadic per-caller requests turned into the large, saturating batches the
tensor cores need. This package is that tier, as a deterministic
discrete-event simulation:

* :mod:`~repro.serve.workload` — :class:`Workload`/:class:`Request`
  descriptors (the app adapters construct them via ``service_workload()``),
  plus :class:`Stage`/:class:`PipelineWorkload` — validated multi-stage DAG
  workloads with end-to-end SLOs (built by the adapters'
  ``pipeline_workload()``);
* :mod:`~repro.serve.arrivals` — seeded Poisson / bursty / diurnal load
  generators;
* :mod:`~repro.serve.batching` — the dynamic micro-batcher (``max_batch``
  size trigger, ``max_wait_s`` latency trigger);
* :mod:`~repro.serve.cache` — the per-device-segmented LRU
  :class:`PlanCache` skipping planning and one-time weight preparation for
  repeated workloads;
* :mod:`~repro.serve.placement` — the :class:`Placer`: one cost-model-driven
  decision point turning every request into an explicit
  :class:`PlacementDecision` (route to the cost-preferred capable worker /
  pad-and-merge into a shape bucket / split across workers via in-service
  sharding / shed infeasible work);
* :mod:`~repro.serve.autoscale` — elastic fleets: the :class:`Autoscaler`
  event source growing/shrinking the fleet through the placement layer,
  with :class:`ReactiveAutoscaler` (queue-pressure) and
  :class:`PredictiveAutoscaler` (diurnal rate-forecast) policies,
  honest cold-start charging, and non-destructive scale-down draining;
* :mod:`~repro.serve.scheduler` — :class:`PriorityScheduler`: strict
  priority classes with deficit-round-robin weighted-fair queueing across
  tenants, and non-destructive preemption of queued lower-priority work;
* :mod:`~repro.serve.dispatch` — per-device queues with copy/compute
  overlap; placer-routed (least-loaded is the homogeneous special case),
  heterogeneous-fleet-aware, with multi-worker shard dispatch;
* :mod:`~repro.serve.faults` — seeded deterministic fault injection
  (:class:`FaultPlan`: worker crashes, transient slowdowns, replacements)
  and the on/off :class:`ResiliencePolicy` — retries, hedged dispatch
  against stragglers, shard-failure recovery, plan-cache re-warm on
  replacement workers;
* :mod:`~repro.serve.slo` — SLO targets, deterministic percentiles,
  front-door admission control (lowest-class-first load shedding), and the
  per-class / per-tenant :class:`SLOTracker`;
* :mod:`~repro.serve.obs` — observability: the zero-overhead-when-disabled
  :class:`TraceRecorder` of typed lifecycle span events, Chrome/Perfetto
  ``trace_event`` export, exact critical-path latency attribution with
  p99 blame, the :class:`MetricsRegistry` the whole stack publishes
  into, plus operational monitoring — fixed-cadence :class:`TimeSeries`
  sampling (:class:`ServiceMonitor`), SLO error-budget burn-rate
  alerting, and a byte-deterministic HTML dashboard;
* :mod:`~repro.serve.service` — :class:`BeamformingService`, the event
  loop tying it together, reporting p50/p95/p99, throughput, goodput, shed
  rate, batch and cache statistics, and fleet utilization — overall and
  broken out per priority class and per tenant.
"""

from repro.serve.arrivals import (
    RateForecast,
    bursty_arrivals,
    diurnal_arrivals,
    fit_rate_forecast,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serve.autoscale import (
    Autoscaler,
    AutoscalePolicy,
    FleetSignals,
    PredictiveAutoscaler,
    ReactiveAutoscaler,
    ScaleAction,
    ScaleEvent,
    ScaleKind,
)
from repro.serve.batching import Batch, BatchingPolicy, MicroBatcher
from repro.serve.cache import CachedPlan, PlanCache
from repro.serve.dispatch import BatchExecution, DeviceWorker, FleetDispatcher
from repro.serve.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    ResiliencePolicy,
    crash_storm,
)
from repro.serve.obs import (
    NULL_RECORDER,
    Alert,
    AlertEngine,
    BlameReport,
    BurnRateRule,
    ErrorBudget,
    MetricsRegistry,
    RequestPath,
    ServiceMonitor,
    TimeSeries,
    TraceRecorder,
    render_dashboard,
    render_trace,
    write_trace,
)
from repro.serve.placement import (
    PlacementCost,
    PlacementDecision,
    PlacementKind,
    Placer,
)
from repro.serve.scheduler import PriorityScheduler, QueuePressure
from repro.serve.service import (
    BeamformingService,
    RequestOutcome,
    ServiceReport,
    StageLink,
)
from repro.serve.slo import (
    SLO,
    AdmissionController,
    ClassStats,
    FleetTimeline,
    SLOTracker,
    percentile,
)
from repro.serve.workload import PipelineWorkload, Request, Stage, Workload

__all__ = [
    "Workload",
    "Request",
    "Stage",
    "PipelineWorkload",
    "StageLink",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "merge_arrivals",
    "RateForecast",
    "fit_rate_forecast",
    "BatchingPolicy",
    "MicroBatcher",
    "Batch",
    "PlanCache",
    "CachedPlan",
    "DeviceWorker",
    "FleetDispatcher",
    "BatchExecution",
    "Placer",
    "PlacementCost",
    "PlacementDecision",
    "PlacementKind",
    "PriorityScheduler",
    "QueuePressure",
    "Autoscaler",
    "AutoscalePolicy",
    "FleetSignals",
    "ReactiveAutoscaler",
    "PredictiveAutoscaler",
    "ScaleAction",
    "ScaleEvent",
    "ScaleKind",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "crash_storm",
    "ResiliencePolicy",
    "SLO",
    "AdmissionController",
    "ClassStats",
    "FleetTimeline",
    "SLOTracker",
    "percentile",
    "BeamformingService",
    "RequestOutcome",
    "ServiceReport",
    "TraceRecorder",
    "NULL_RECORDER",
    "MetricsRegistry",
    "RequestPath",
    "BlameReport",
    "render_trace",
    "write_trace",
    "ServiceMonitor",
    "TimeSeries",
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "ErrorBudget",
    "render_dashboard",
]
