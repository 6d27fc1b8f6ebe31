"""Rolling time-series sampling of a live service run.

PR 6 left the serving stack with end-of-run snapshots: a metrics registry
you read after the fact, a trace you post-process. This module adds the
time axis — a :class:`MetricSampler` that snapshots registry gauges and
derived rates into :class:`TimeSeries` at a fixed simulation-time
cadence, and a :class:`ServiceMonitor` that bundles the sampler with an
:class:`~repro.serve.obs.alerts.AlertEngine` so SLO burn-rate alerts are
evaluated on the same ticks.

The monitor is caught up ahead of every event of
:meth:`~repro.serve.service.BeamformingService.run`, with the same
discipline the trace recorder established:

* **zero overhead when disabled** — a service without a monitor performs
  no sampling work at all (every hook is behind ``if monitor is not
  None``), so the golden CSVs and the golden trace replay bit-identically;
* **non-perturbing when enabled** — ticks are caught up *before* each
  real event's handler and only read service state (sample + alert
  evaluation + trace/metrics emission). They never dispatch, drain, or
  mutate simulation state, so a monitored run reports byte-identically to
  an unmonitored one;
* **bit-deterministic** — all timestamps are simulation-clock values and
  all arithmetic is pure, so the rendered series (and the alert sequence)
  are byte-identical for the same seed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ShapeError
from repro.serve.obs.alerts import AlertEngine
from repro.serve.obs.metrics import MetricsRegistry
from repro.serve.obs.trace import NullRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.serve.service import BeamformingService


@dataclass
class TimeSeries:
    """One named series of ``(t_s, value)`` points, strictly time-ordered."""

    name: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def append(self, t_s: float, value: float) -> None:
        """Append one sample; timestamps must strictly increase."""
        if self.points and t_s <= self.points[-1][0]:
            raise ShapeError(
                f"series {self.name!r}: non-increasing timestamp {t_s} "
                f"after {self.points[-1][0]}"
            )
        self.points.append((t_s, value))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def latest(self) -> float:
        if not self.points:
            raise ShapeError(f"series {self.name!r} has no points")
        return self.points[-1][1]

    @property
    def minimum(self) -> float:
        if not self.points:
            raise ShapeError(f"series {self.name!r} has no points")
        return min(v for _, v in self.points)

    @property
    def maximum(self) -> float:
        if not self.points:
            raise ShapeError(f"series {self.name!r} has no points")
        return max(v for _, v in self.points)


class MetricSampler:
    """Deterministic fixed-cadence snapshots of a running service.

    Each :meth:`sample` reads the service's registries and structures
    (admission counts, queue depths, the plan cache, the execution log,
    worker rosters) and appends one point per series. Windowed values
    (rates, cache hit-rate, padded-ops fraction, per-worker busy
    fraction) are deltas over the elapsed interval, so a spike is visible
    at the tick where it happened rather than diluted into a cumulative
    average.

    Series emitted every tick:

    ``rate.arrival_hz`` / ``rate.completed_hz`` / ``rate.shed_hz``
        Offered, completed (by completion instant), and shed request
        rates over the window.
    ``queue.requests`` / ``inflight.requests``
        Requests waiting (batcher + scheduler + held) and on-device.
    ``cache.hit_rate`` / ``ops.padded_fraction``
        Windowed plan-cache hit rate and padded share of dispatched ops.
    ``fleet.accepting`` / ``fleet.provisioned``
        Worker counts (the elastic-fleet timeline).
    ``util.worker{i}``
        Per-worker busy fraction: compute-engine seconds overlapping the
        window, over the window — created when the worker first exists.
    """

    def __init__(self, interval_s: float):
        if interval_s <= 0:
            raise ShapeError(f"sampler interval must be positive, got {interval_s}")
        self.interval_s = interval_s
        self.series: dict[str, TimeSeries] = {}
        self._ticks = 0
        self._last_s = 0.0
        #: previous cumulative values for windowed deltas.
        self._prev: dict[str, float] = {}
        #: completion instants, lazily sorted (settled early, see service).
        self._completions: list[float] = []
        self._completions_dirty = False
        self._completed_before = 0
        #: index into fleet.executions of the first unseen execution.
        self._exec_idx = 0
        #: per-worker compute intervals (start_s, end_s) not yet fully past.
        self._busy: dict[int, list[tuple[float, float]]] = {}
        #: ops dispatched since the last tick (padded fraction's window).
        self._useful_ops_new = 0.0
        self._padded_ops_new = 0.0

    @property
    def next_sample_s(self) -> float:
        """Simulation instant of the next tick (fixed cadence from 0)."""
        return (self._ticks + 1) * self.interval_s

    @property
    def n_ticks(self) -> int:
        return self._ticks

    def note_completion(self, t_s: float) -> None:
        """Record one request completion instant (may be in the future)."""
        self._completions.append(t_s)
        self._completions_dirty = True

    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name)
        return series

    def _delta(self, key: str, cumulative: float) -> float:
        delta = cumulative - self._prev.get(key, 0.0)
        self._prev[key] = cumulative
        return delta

    def _completed_by(self, t_s: float) -> int:
        if self._completions_dirty:
            self._completions.sort()
            self._completions_dirty = False
        return bisect_right(self._completions, t_s)

    def _scan_executions(self, service: BeamformingService) -> None:
        """Fold newly dispatched executions into busy/padded accounting."""
        executions = service.fleet.executions
        for execution in executions[self._exec_idx :]:
            self._useful_ops_new += execution.batch.useful_ops
            self._padded_ops_new += execution.batch.padded_ops
            parts = execution.shards if execution.is_split else [execution]
            for part in parts:
                self._busy.setdefault(part.worker_index, []).append(
                    (part.compute_start_s, part.completion_s)
                )
        self._exec_idx = len(executions)

    def _busy_fraction(self, index: int, t0: float, t1: float) -> float:
        intervals = self._busy.get(index)
        if not intervals:
            return 0.0
        busy = 0.0
        keep: list[tuple[float, float]] = []
        for start, end in intervals:
            busy += max(0.0, min(end, t1) - max(start, t0))
            if end > t1:
                keep.append((start, end))
        self._busy[index] = keep
        return busy / (t1 - t0)

    def sample(self, t_s: float, service: BeamformingService) -> None:
        """Take one snapshot at simulation time ``t_s``."""
        t0, dt = self._last_s, t_s - self._last_s
        if dt <= 0:
            raise ShapeError(f"sampler tick at {t_s} does not advance past {t0}")
        admission = service.admission
        offered = admission.n_admitted + admission.n_shed
        completed = self._completed_by(t_s)
        cache = service.fleet.cache
        self._scan_executions(service)

        point = self._series
        point("rate.arrival_hz").append(t_s, self._delta("offered", offered) / dt)
        point("rate.completed_hz").append(t_s, self._delta("completed", completed) / dt)
        point("rate.shed_hz").append(t_s, self._delta("shed", admission.n_shed) / dt)
        point("queue.requests").append(t_s, service.queued_requests())
        point("inflight.requests").append(
            t_s, sum(n for completion, n in service.in_flight if completion > t_s)
        )
        hits = self._delta("cache.hits", cache.hits)
        misses = self._delta("cache.misses", cache.misses)
        lookups = hits + misses
        point("cache.hit_rate").append(t_s, hits / lookups if lookups else 0.0)
        total_ops = self._useful_ops_new + self._padded_ops_new
        point("ops.padded_fraction").append(
            t_s, self._padded_ops_new / total_ops if total_ops else 0.0
        )
        self._useful_ops_new = self._padded_ops_new = 0.0
        point("fleet.accepting").append(t_s, len(service.fleet.accepting_workers))
        point("fleet.provisioned").append(t_s, len(service.fleet.workers))
        for worker in service.fleet.all_workers:
            point(f"util.worker{worker.index}").append(
                t_s, self._busy_fraction(worker.index, t0, t_s)
            )
        self._ticks += 1
        self._last_s = t_s


class ServiceMonitor:
    """Sampler + alert engine, driven by the service event loop.

    Pass one to :class:`~repro.serve.service.BeamformingService`
    (``monitor=``): the run loop catches the monitor up to every event
    instant (all pending ticks ``<= now`` fire, oldest first, *before*
    the event's handler), and feeds it each shed and completion verdict
    for the alert engine's error budgets. One monitor monitors one run.
    The engine runs the default burn-rate rules and objective of
    :class:`~repro.serve.obs.alerts.AlertEngine`.
    """

    def __init__(self, interval_s: float):
        self.sampler = MetricSampler(interval_s)
        self.engine = AlertEngine()
        #: completions at or under this latency are budget-good; until
        #: :meth:`bind` sets the run's deadline, every completion is.
        self._deadline_s = float("inf")

    def bind(
        self,
        recorder: NullRecorder,
        metrics: MetricsRegistry | None,
        deadline_s: float,
    ) -> None:
        """Attach the run's recorder/metrics and the goodness deadline."""
        self.engine.bind(recorder, metrics)
        self._deadline_s = deadline_s

    @property
    def series(self) -> dict[str, TimeSeries]:
        return self.sampler.series

    def advance(self, now: float, service: BeamformingService) -> None:
        """Catch up every pending tick ``<= now``, oldest first."""
        while self.sampler.next_sample_s <= now:
            t_tick = self.sampler.next_sample_s
            self.sampler.sample(t_tick, service)
            self.engine.evaluate(t_tick)

    @staticmethod
    def _scopes(priority: int, tenant: str) -> tuple[str, str, str]:
        return ("service", f"priority={priority}", f"tenant={tenant}")

    def observe_shed(self, t_s: float, priority: int, tenant: str) -> None:
        """One request shed at the door: always budget-bad."""
        self.engine.observe(t_s, self._scopes(priority, tenant), good=False)

    def observe_completion(
        self, t_s: float, priority: int, tenant: str, latency_s: float
    ) -> None:
        """One request completed; good iff it made the goodness deadline."""
        good = latency_s <= self._deadline_s
        self.engine.observe(t_s, self._scopes(priority, tenant), good=good)
        self.sampler.note_completion(t_s)

    def observe_failure(self, t_s: float, priority: int, tenant: str) -> None:
        """One admitted request lost (crash, retries exhausted): budget-bad.

        Failures burn the error budget exactly like sheds, so a crash
        storm drives the same burn-rate alerts an overload does.
        """
        self.engine.observe(t_s, self._scopes(priority, tenant), good=False)
