"""Elastic fleets: autoscaling policies over the placement layer.

The paper's throughput numbers assume a fixed device set; a serving tier
does not get that luxury — clinic-hours ultrasound traffic swings by an
order of magnitude over a day, and provisioning for the peak wastes most
of the fleet most of the time (the same provisioning-to-ingest-rate
matching that sizes pipeline stages in GPU-powered beamforming deployments).
This module grows and shrinks the simulated fleet *during* a trace:

* the :class:`Autoscaler` is an event source of the service loop —
  every ``interval_s`` of simulated time it snapshots the fleet's
  :class:`FleetSignals` and consults its policy;
* policies are pure deciders (:class:`AutoscalePolicy`): signals in, at
  most one :class:`ScaleAction` out. Two are provided — the
  :class:`ReactiveAutoscaler` (scale up on sustained queue-pressure per
  capability class, down on sustained idle) and the
  :class:`PredictiveAutoscaler` (diurnal-aware: sizes the fleet against
  the arrival generators' :class:`~repro.serve.arrivals.RateForecast`,
  a lead time ahead);
* actions act *through the placement layer*: a scale-up appends a worker
  to the live list the :class:`~repro.serve.placement.Placer` routes
  over (queued and held batches are re-stamped so waiting work can use
  the newcomer immediately), and a scale-down marks a worker draining so
  placement stops targeting it while committed work finishes.

Honesty rules, mirroring the rest of the serving tier:

* *Cold start is charged, never hidden.* A scaled-up worker starts with
  an empty plan-cache segment and engines that free up only after the
  modelled ``startup_s``; its first batches pay the one-time plan builds
  on their own critical path, exactly as PR 2 charges cache misses.
* *Scale-down is non-destructive.* Mirroring PR 3's preemption rule, a
  draining worker finishes its in-flight batches; everything queued or
  held against it re-routes to the remaining fleet; it is retired only
  when idle and unreferenced, at which point its plan-cache segment is
  released (:meth:`PlanCache.release <repro.serve.cache.PlanCache.release>`).
* *The seed fleet is the floor.* The autoscaler drains only workers it
  added (most-recent-first), so ``min_workers`` equals the fleet the
  service was constructed with and capability anchors (the one NVIDIA
  device of a mixed fleet, say) never disappear underneath int1 traffic.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.serve.arrivals import RateForecast
from repro.serve.scheduler import QueuePressure

if TYPE_CHECKING:
    from repro.serve.dispatch import DeviceWorker, FleetDispatcher

#: default autoscaler evaluation interval (simulated seconds).
DEFAULT_INTERVAL_S = 200e-6
#: largest single :class:`ReactiveAutoscaler` scale-up step (workers per action).
MAX_STEP = 4
#: a reactive tick is "idle" when nothing is queued and at most this
#: fraction of accepting workers has a compute backlog.
IDLE_BUSY_FRACTION = 0.5


class ScaleKind(enum.Enum):
    """Direction of one scaling action."""

    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ScaleAction:
    """A policy's verdict at one tick: grow or shrink the fleet by ``n``."""

    kind: ScaleKind
    n: int = 1
    reason: str = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ShapeError(f"scale action count must be >= 1, got {self.n}")


@dataclass(frozen=True)
class ScaleEvent:
    """One applied fleet change, as reports record it.

    ``kind`` is ``"up"`` (worker provisioned), ``"down"`` (drain began),
    or ``"retire"`` (drained worker left the fleet). ``accepting`` /
    ``provisioned`` are the fleet sizes right after the event.
    """

    t_s: float
    kind: str
    worker_index: int
    device_name: str
    accepting: int
    provisioned: int
    reason: str = ""


@dataclass(frozen=True)
class FleetSignals:
    """What a policy sees at one tick — arrival-time information only.

    ``pressure_by_priority`` merges the scheduler's queues with the
    dispatcher's held batches; ``drain_s_by_capability`` is the predicted
    queue-drain time per capability class (a pool with queued work and no
    accepting worker reports ``inf``). Forming batches still inside the
    micro-batcher are deliberately excluded: they wait by policy
    (``max_wait_s``), not because the fleet is behind.
    """

    t_s: float
    n_accepting: int
    n_draining: int
    queued_requests: int
    queued_service_s: float
    pressure_by_priority: dict[int, QueuePressure]
    drain_s_by_capability: dict[str, float]
    busy_workers: int

    @property
    def pressure_s(self) -> float:
        """The scale-up signal: worst per-capability predicted drain."""
        return max(self.drain_s_by_capability.values(), default=0.0)

    @property
    def busy_fraction(self) -> float:
        """Share of accepting workers with a non-empty compute backlog."""
        return self.busy_workers / self.n_accepting if self.n_accepting else 0.0


class AutoscalePolicy(Protocol):
    """A pure scaling decider: fleet signals in, at most one action out.

    Implementations may keep internal trend state (the reactive policy
    counts consecutive pressured/idle ticks) but must be deterministic —
    the same tick sequence always yields the same actions, which is what
    keeps whole autoscaled service runs bit-reproducible.
    """

    def decide(self, signals: FleetSignals) -> ScaleAction | None: ...


@dataclass
class ReactiveAutoscaler:
    """Scale on what the queues are doing right now.

    Scale **up** when the worst per-capability predicted queue-drain time
    (:attr:`FleetSignals.pressure_s`) has exceeded ``up_pressure_s`` for
    ``up_ticks`` consecutive ticks — sustained pressure, not a single
    burst the batcher would absorb anyway. The step is proportional to
    how far past the threshold the pressure is (one worker per threshold
    multiple, capped at :data:`MAX_STEP`): a fleet twice as far behind gets
    capacity twice as fast. Scale **down** when the fleet has been idle
    (:data:`IDLE_BUSY_FRACTION`) for ``down_ticks`` consecutive ticks.
    Both counters reset on any contrary observation, so oscillating load
    keeps the fleet where it is. Reaction is this policy's whole
    character — it cannot tell a draining backlog from a rising rate, so
    it pays a lag (and its cold-start bill) on every fresh peak; that is
    exactly what the predictive policy exists to avoid.
    """

    #: predicted drain seconds that count as pressure (e.g. a fraction of
    #: the SLO deadline — queue time this long will bust the tail).
    up_pressure_s: float
    up_ticks: int = 2
    down_ticks: int = 5
    _pressured: int = field(default=0, init=False, repr=False)
    _idle: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.up_pressure_s <= 0:
            raise ShapeError(f"up_pressure_s must be positive, got {self.up_pressure_s}")
        if self.up_ticks < 1 or self.down_ticks < 1:
            raise ShapeError("tick thresholds must be >= 1")

    def decide(self, signals: FleetSignals) -> ScaleAction | None:
        idle = signals.queued_requests == 0 and signals.busy_fraction <= IDLE_BUSY_FRACTION
        if signals.pressure_s >= self.up_pressure_s:
            self._pressured += 1
            self._idle = 0
            if self._pressured >= self.up_ticks:
                self._pressured = 0
                # pressure_s is inf when a capability's accepting pool is
                # empty — the strongest possible signal, not an error.
                ratio = signals.pressure_s / self.up_pressure_s
                step = MAX_STEP if math.isinf(ratio) else min(MAX_STEP, int(ratio))
                reason = (
                    f"queue drain {signals.pressure_s * 1e3:.3f} ms >= "
                    f"{self.up_pressure_s * 1e3:.3f} ms for {self.up_ticks} ticks"
                )
                return ScaleAction(ScaleKind.UP, n=step, reason=reason)
        elif idle:
            self._idle += 1
            self._pressured = 0
            if self._idle >= self.down_ticks:
                self._idle = 0
                return ScaleAction(
                    ScaleKind.DOWN,
                    reason=f"idle for {self.down_ticks} ticks",
                )
        else:
            self._pressured = 0
            self._idle = 0
        return None


@dataclass
class PredictiveAutoscaler:
    """Size the fleet against a known rate forecast, a lead window ahead.

    Diurnal traffic is *scheduled* — the profile driving
    :func:`~repro.serve.arrivals.diurnal_arrivals` is exactly what an
    operator would configure — so the policy need not wait for queues to
    build: at each tick it sizes the fleet for the **highest** forecast
    rate inside the provisioning window ``[t, t + lead_s]``, with
    ``headroom`` margin. The window max (not the point forecast) is what
    makes the policy calm where the reactive one thrashes: capacity must
    already exist for any traffic arriving sooner than a new worker could
    be made ready, and a trough narrower than the window is ridden out
    *warm* instead of drained and re-provisioned cold for the next peak.
    Scale-ups jump straight to the target (the peak will not wait);
    scale-downs step one worker per tick (draining is cheap, thrash is
    not).
    """

    forecast: RateForecast
    #: sustained requests/s one worker serves for this traffic mix.
    capacity_hz: float
    #: provisioning window: startup latency + plan warmup + margin.
    lead_s: float
    #: capacity margin over the forecast rate (>= 1.0).
    headroom: float = 1.2
    #: keep-warm window for scale-*down* decisions: capacity is shed only
    #: when the forecast shows no need for it over this longer horizon,
    #: so a trough shorter than ``hold_s`` is ridden out warm instead of
    #: repaying the cold start on the next peak. ``None`` means ``lead_s``
    #: (symmetric windows).
    hold_s: float | None = None

    def __post_init__(self) -> None:
        if self.capacity_hz <= 0:
            raise ShapeError(f"capacity_hz must be positive, got {self.capacity_hz}")
        if self.lead_s < 0:
            raise ShapeError(f"lead_s must be >= 0, got {self.lead_s}")
        if self.headroom < 1.0:
            raise ShapeError(f"headroom must be >= 1.0, got {self.headroom}")
        if self.hold_s is not None and self.hold_s < self.lead_s:
            raise ShapeError(f"hold_s must be >= lead_s, got {self.hold_s} < {self.lead_s}")

    def _workers_for(self, t_s: float, window_s: float) -> int:
        rate = self.forecast.max_rate_hz(t_s, t_s + window_s)
        return max(1, math.ceil(rate * self.headroom / self.capacity_hz))

    def target_workers(self, t_s: float) -> int:
        """Workers needed for the worst forecast rate in ``[t, t+lead]``."""
        return self._workers_for(t_s, self.lead_s)

    def decide(self, signals: FleetSignals) -> ScaleAction | None:
        target = self.target_workers(signals.t_s)
        if target > signals.n_accepting:
            rate = self.forecast.max_rate_hz(signals.t_s, signals.t_s + self.lead_s)
            return ScaleAction(
                ScaleKind.UP,
                n=target - signals.n_accepting,
                reason=(
                    f"forecast peaks at {rate:.0f} req/s within "
                    f"{self.lead_s * 1e3:.1f} ms; needs {target} workers"
                ),
            )
        hold_s = self.lead_s if self.hold_s is None else self.hold_s
        hold_target = self._workers_for(signals.t_s, hold_s)
        if hold_target < signals.n_accepting:
            return ScaleAction(
                ScaleKind.DOWN,
                reason=(
                    f"forecast needs only {hold_target} workers for the next "
                    f"{hold_s * 1e3:.1f} ms"
                ),
            )
        return None


class Autoscaler:
    """Drives one policy against a live fleet — the service's scale loop.

    The service calls :meth:`next_tick_s` when merging event sources and
    :meth:`tick` when the tick fires; everything else (bounds, picking
    which worker drains, charging startup) lives here so policies
    stay pure. The autoscaler only ever drains workers it added, newest
    first — the seed fleet is the floor, and ``max_workers`` caps the
    provisioned (accepting + draining) size.
    """

    def __init__(
        self,
        policy: AutoscalePolicy,
        device_factory: Callable[[], Device],
        interval_s: float = DEFAULT_INTERVAL_S,
        max_workers: int = 8,
        startup_s: float = 0.0,
    ):
        if interval_s <= 0:
            raise ShapeError(f"interval_s must be positive, got {interval_s}")
        if max_workers < 1:
            raise ShapeError(f"max_workers must be >= 1, got {max_workers}")
        if startup_s < 0:
            raise ShapeError(f"startup_s must be >= 0, got {startup_s}")
        self.policy = policy
        self.device_factory = device_factory
        self.interval_s = interval_s
        self.max_workers = max_workers
        self.startup_s = startup_s
        self._next_tick_s = interval_s
        #: indices of workers this autoscaler added, in join order; drains
        #: pop from the end (LIFO — the newest capacity leaves first).
        self._added: list[int] = []
        #: optional metrics registry ("autoscale.*" counters; the service
        #: binds its own).
        self.metrics = None

    def next_tick_s(self) -> float:
        """The next evaluation instant (the tick event source's clock)."""
        return self._next_tick_s

    def tick(self, now: float, fleet: "FleetDispatcher", signals: FleetSignals) -> list[ScaleEvent]:
        """Evaluate the policy at ``now`` and apply its action to the fleet.

        Returns the scale events applied (empty on a no-op tick).
        """
        self._next_tick_s = now + self.interval_s
        action = self.policy.decide(signals)
        if action is None:
            return []
        if action.kind is ScaleKind.UP:
            events = self._scale_up(now, fleet, action)
        else:
            events = self._scale_down(now, fleet, action)
        if self.metrics is not None:
            for event in events:
                self.metrics.inc(f"autoscale.{event.kind}")
        return events

    # -- applying actions ----------------------------------------------------

    def _scale_up(
        self, now: float, fleet: "FleetDispatcher", action: ScaleAction
    ) -> list[ScaleEvent]:
        events: list[ScaleEvent] = []
        for _ in range(action.n):
            if len(fleet.workers) >= self.max_workers:
                break
            worker = fleet.add_worker(self.device_factory(), now=now, ready_s=now + self.startup_s)
            self._added.append(worker.index)
            events.append(self._event(now, "up", worker, fleet, action.reason))
        return events

    def _scale_down(
        self, now: float, fleet: "FleetDispatcher", action: ScaleAction
    ) -> list[ScaleEvent]:
        events: list[ScaleEvent] = []
        for _ in range(action.n):
            index = self._pop_drainable(fleet)
            if index is None:
                break
            worker = fleet.begin_drain(index, now)
            events.append(self._event(now, "down", worker, fleet, action.reason))
        return events

    def _pop_drainable(self, fleet: "FleetDispatcher") -> int | None:
        """Newest autoscaler-added worker that is still accepting."""
        while self._added:
            index = self._added[-1]
            worker = next((w for w in fleet.workers if w.index == index), None)
            if worker is not None and worker.accepting:
                return self._added.pop()
            # Already draining/retired (e.g. by a direct fleet call): the
            # stack entry is stale, discard it and keep looking.
            self._added.pop()
        return None

    @staticmethod
    def _event(
        now: float,
        kind: str,
        worker: "DeviceWorker",
        fleet: "FleetDispatcher",
        reason: str,
    ) -> ScaleEvent:
        return ScaleEvent(
            t_s=now,
            kind=kind,
            worker_index=worker.index,
            device_name=worker.device.name,
            accepting=len(fleet.accepting_workers),
            provisioned=len(fleet.workers),
            reason=reason,
        )
