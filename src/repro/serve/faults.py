"""Fault injection and resilience policies for the serving tier.

At the north star's scale — millions of users on an always-on fleet —
failures are the steady state: GPUs drop off the bus, a neighbour's job
turns one worker into a straggler, replacements arrive cold. This module
makes those events first-class citizens of the discrete-event simulation:

* :class:`FaultPlan` — a seeded, deterministic schedule of
  :class:`FaultEvent`\\ s (crashes, transient slowdowns, replacements)
  merged into :meth:`BeamformingService.run
  <repro.serve.service.BeamformingService.run>` as one more event source.
  A crash is the *non-graceful* cousin of PR 5's drain: the worker leaves
  immediately and everything in flight on it is lost, not finished.
* :class:`ResiliencePolicy` — the recovery knobs the service absorbs the
  plan with: per-class retry budgets with deadline-aware re-placement
  through the existing :class:`~repro.serve.placement.Placer`, hedged
  dispatch for batches stuck on a straggler (first completion wins, the
  loser's compute is charged as waste, never hidden), shard-failure
  recovery for split requests (only the lost shard re-executes, on a
  surviving capable worker), and plan-cache re-warm on replacements.
* :func:`crash_storm` — the canonical seeded storm generator the
  "serve-resilience" bench replays: crash + replacement + straggler
  windows over a horizon, bit-reproducible for a fixed seed.

Determinism contract: a service constructed with ``faults=None`` (or an
empty plan) registers no fault event source and otherwise runs the same
code path as a faulted one, and a faulted run is itself bit-reproducible:
same plan, same seed, same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ShapeError
from repro.util.rng import derive_seed, make_rng


class FaultKind(Enum):
    """The fault-event vocabulary the service's handler dispatches on."""

    #: the worker leaves the fleet *now*; its in-flight work is lost.
    CRASH = "crash"
    #: the worker's compute rate degrades by ``factor`` (a straggler).
    SLOW_START = "slow_start"
    #: the straggler recovers to full rate (flapping = repeated pairs).
    SLOW_END = "slow_end"
    #: a replacement device joins the fleet (cold cache, startup delay).
    REPLACE = "replace"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault on the simulation clock.

    ``worker_index`` targets crash/slow events (the *declared* index, so a
    plan written against the seed fleet stays meaningful after scale-ups);
    ``factor`` is the slowdown multiplier (>= 1) of a ``SLOW_START``;
    ``device_name``/``startup_s`` describe a ``REPLACE``'s newcomer.
    """

    t_s: float
    kind: FaultKind
    worker_index: int = -1
    factor: float = 1.0
    device_name: str = ""
    startup_s: float = 0.0

    def __post_init__(self) -> None:
        if self.t_s < 0:
            raise ShapeError(f"fault time must be non-negative, got {self.t_s}")
        if self.factor < 1.0:
            raise ShapeError(f"slowdown factor must be >= 1, got {self.factor}")
        if self.kind in (FaultKind.CRASH, FaultKind.SLOW_START, FaultKind.SLOW_END):
            if self.worker_index < 0:
                raise ShapeError(f"{self.kind.value} fault needs a worker_index")
        if self.kind is FaultKind.REPLACE and not self.device_name:
            raise ShapeError("replace fault needs a device_name")
        if self.startup_s < 0:
            raise ShapeError(f"startup_s must be non-negative, got {self.startup_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, time-sorted schedule of fault events.

    The plan is data, not behavior: the service walks it as one more event
    source, consuming one event per loop iteration. An empty plan is
    equivalent to no plan at all (the service registers no fault source).
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for earlier, later in zip(self.events, self.events[1:]):
            if later.t_s < earlier.t_s:
                raise ShapeError(
                    f"fault plan must be time-sorted: {later.t_s} after {earlier.t_s}"
                )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def n_crashes(self) -> int:
        return sum(1 for e in self.events if e.kind is FaultKind.CRASH)


def crash_storm(
    horizon_s: float,
    worker_indices: list[int],
    n_crashes: int = 1,
    n_slow_windows: int = 2,
    slow_factor: float = 4.0,
    slow_window_s: float | None = None,
    replace_device: str = "",
    replace_startup_s: float = 0.0,
    seed: int = 0,
) -> FaultPlan:
    """A seeded crash + straggler storm over ``[0, horizon_s)``.

    ``n_crashes`` workers (drawn without replacement from
    ``worker_indices``) crash at uniform instants in the middle 80% of the
    horizon; each crash is followed by a replacement (``replace_device``
    joining ``replace_startup_s`` later) when a device name is given.
    ``n_slow_windows`` transient slowdowns of ``slow_factor``x land on the
    surviving workers, each lasting ``slow_window_s`` (default: 10% of the
    horizon). Bit-deterministic for a fixed seed.
    """
    if horizon_s <= 0:
        raise ShapeError(f"horizon must be positive, got {horizon_s}")
    if not worker_indices:
        raise ShapeError("crash_storm needs at least one worker index")
    if n_crashes > len(worker_indices):
        raise ShapeError(
            f"cannot crash {n_crashes} of {len(worker_indices)} workers"
        )
    window_s = horizon_s * 0.1 if slow_window_s is None else slow_window_s
    rng = make_rng(derive_seed(seed, "crash_storm", horizon_s, n_crashes))
    events: list[FaultEvent] = []
    order = [worker_indices[i] for i in rng.permutation(len(worker_indices))]
    crashed = order[:n_crashes]
    for index in crashed:
        t = float(rng.uniform(0.1, 0.9)) * horizon_s
        events.append(FaultEvent(t_s=t, kind=FaultKind.CRASH, worker_index=index))
        if replace_device:
            events.append(
                FaultEvent(
                    t_s=t,
                    kind=FaultKind.REPLACE,
                    device_name=replace_device,
                    startup_s=replace_startup_s,
                )
            )
    survivors = order[n_crashes:] or order
    for i in range(n_slow_windows):
        index = survivors[int(rng.integers(len(survivors)))]
        t = float(rng.uniform(0.0, max(horizon_s - window_s, 0.0)))
        events.append(
            FaultEvent(
                t_s=t, kind=FaultKind.SLOW_START, worker_index=index, factor=slow_factor
            )
        )
        events.append(
            FaultEvent(t_s=t + window_s, kind=FaultKind.SLOW_END, worker_index=index)
        )
    events.sort(key=lambda e: (e.t_s, e.kind.value, e.worker_index))
    return FaultPlan(events=tuple(events))


@dataclass(frozen=True)
class ResiliencePolicy:
    """The recovery knobs a faulted service runs with.

    ``max_retries`` is the default per-request retry budget;
    ``class_retries`` overrides it per priority class (an interactive
    class may deserve more attempts than bulk reprocessing — or fewer, if
    its deadline cannot absorb them anyway). A retry is only submitted
    when its deadline-aware re-placement projects a finish within
    ``retry_deadline_factor`` times the admission deadline; otherwise the
    request fails fast instead of wasting a doomed launch.

    ``hedge_slow_threshold`` arms hedged dispatch: a batch landing on a
    worker whose slowdown factor is at or past the threshold gets a second
    launch on the best healthy candidate. First completion wins; the
    loser's compute is added to the report's wasted-device-seconds — the
    honest bill of hedging. ``inf`` disables hedging.

    ``recover_shards`` re-executes only the lost shard of a split request
    on a surviving capable worker; ``rewarm_plans`` pre-builds the most
    recent ``rewarm_limit`` workloads' plans on a replacement worker
    before it takes traffic (cold-start paid up front, on the replacement,
    instead of by the first unlucky batches).
    """

    max_retries: int = 2
    class_retries: dict[int, int] | None = field(default=None)
    retry_deadline_factor: float = 1.0
    hedge_slow_threshold: float = 2.0
    recover_shards: bool = True
    rewarm_plans: bool = True
    rewarm_limit: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ShapeError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_deadline_factor <= 0:
            raise ShapeError(
                f"retry_deadline_factor must be positive, got {self.retry_deadline_factor}"
            )
        if self.hedge_slow_threshold < 1.0:
            raise ShapeError(
                f"hedge_slow_threshold must be >= 1, got {self.hedge_slow_threshold}"
            )
        if self.rewarm_limit < 0:
            raise ShapeError(f"rewarm_limit must be >= 0, got {self.rewarm_limit}")

    def budget(self, priority: int) -> int:
        """Retry budget of one priority class."""
        if self.class_retries and priority in self.class_retries:
            return self.class_retries[priority]
        return self.max_retries

    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """No recovery at all — the bench's honest no-recovery baseline."""
        return cls(
            max_retries=0,
            hedge_slow_threshold=float("inf"),
            recover_shards=False,
            rewarm_plans=False,
        )
