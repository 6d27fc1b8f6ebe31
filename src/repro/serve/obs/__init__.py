"""Observability for the serving tier: tracing, metrics, monitoring.

Six pieces, all deterministic and all off the hot path unless asked
for:

* :mod:`~repro.serve.obs.trace` / :mod:`~repro.serve.obs.events` — a
  :class:`TraceRecorder` of typed span events at every request-lifecycle
  edge, zero-overhead when the default :data:`NULL_RECORDER` is bound;
* :mod:`~repro.serve.obs.perfetto` — Chrome/Perfetto ``trace_event``
  JSON export (open any bench run in https://ui.perfetto.dev);
* :mod:`~repro.serve.obs.critical_path` — exact per-request latency
  decomposition and p99 blame rollup;
* :mod:`~repro.serve.obs.metrics` — the :class:`MetricsRegistry` of
  counters/gauges/histograms the whole stack publishes into;
* :mod:`~repro.serve.obs.monitor` / :mod:`~repro.serve.obs.alerts` —
  fixed-cadence :class:`TimeSeries` sampling of a live run plus SRE-style
  multi-window burn-rate alerting over per-scope SLO error budgets;
* :mod:`~repro.serve.obs.dashboard` — a self-contained, byte-deterministic
  HTML dashboard of a monitored run (``repro-bench --dashboard``).
"""

from repro.serve.obs.alerts import (
    DEFAULT_OBJECTIVE,
    DEFAULT_RULES,
    Alert,
    AlertEngine,
    BurnRateRule,
    ErrorBudget,
)
from repro.serve.obs.critical_path import (
    SEGMENTS,
    BlameReport,
    RequestPath,
    attribute,
    blame,
)
from repro.serve.obs.dashboard import render_dashboard
from repro.serve.obs.events import (
    EVENT_TYPES,
    AdmissionDecided,
    AlertStateChanged,
    BatchClosed,
    BatchExecuted,
    BatcherEnqueued,
    BatchHeld,
    BatchPreempted,
    BatchQueued,
    CacheLookup,
    PlacementDecided,
    RequestArrived,
    RequestCompleted,
    ScaleApplied,
    SpanEvent,
)
from repro.serve.obs.metrics import (
    DEFAULT_LATENCY_EDGES_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.serve.obs.monitor import MetricSampler, ServiceMonitor, TimeSeries
from repro.serve.obs.perfetto import render_trace, trace_to_dict, write_trace
from repro.serve.obs.trace import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "SEGMENTS",
    "BlameReport",
    "RequestPath",
    "attribute",
    "blame",
    "DEFAULT_OBJECTIVE",
    "DEFAULT_RULES",
    "Alert",
    "AlertEngine",
    "BurnRateRule",
    "ErrorBudget",
    "render_dashboard",
    "EVENT_TYPES",
    "AdmissionDecided",
    "AlertStateChanged",
    "BatchClosed",
    "BatchExecuted",
    "BatcherEnqueued",
    "BatchHeld",
    "BatchPreempted",
    "BatchQueued",
    "CacheLookup",
    "PlacementDecided",
    "RequestArrived",
    "RequestCompleted",
    "ScaleApplied",
    "SpanEvent",
    "DEFAULT_LATENCY_EDGES_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricSampler",
    "ServiceMonitor",
    "TimeSeries",
    "render_trace",
    "trace_to_dict",
    "write_trace",
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
]
