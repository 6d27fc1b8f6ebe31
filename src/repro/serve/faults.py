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
* :class:`ResiliencePolicy` — recovery on or off. On, the service absorbs
  the plan with a retry budget of :data:`MAX_RETRIES` and deadline-aware
  re-placement through the existing :class:`~repro.serve.placement.Placer`,
  hedged dispatch for batches stuck on a straggler (first completion wins,
  the loser's compute is charged as waste, never hidden), shard-failure
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

from dataclasses import dataclass
from enum import Enum

from repro.errors import ShapeError
from repro.util.rng import derive_seed, make_rng

#: compute-rate slowdown of every :func:`crash_storm` straggler window.
SLOW_FACTOR = 4.0
#: length of one :func:`crash_storm` straggler window, as a share of the horizon.
SLOW_WINDOW_FRACTION = 0.1
#: retries one lost request may take while recovery is on.
MAX_RETRIES = 2
#: slowdown factor at which a batch's worker counts as a straggler and the
#: batch gets a hedged duplicate.
HEDGE_SLOW_THRESHOLD = 2.0
#: most recent workloads whose plans a replacement worker pre-builds.
REWARM_LIMIT = 8


class FaultKind(Enum):
    """The fault-event vocabulary the service's handler dispatches on."""

    #: the worker leaves the fleet *now*; its in-flight work is lost.
    CRASH = "crash"
    #: the worker's compute rate degrades by ``factor`` (a straggler).
    SLOW_START = "slow_start"
    #: one straggler window closes; the worker recovers to full rate once
    #: its last open window has closed (flapping = repeated pairs).
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


def crash_storm(
    horizon_s: float,
    worker_indices: list[int],
    n_crashes: int = 1,
    n_slow_windows: int = 2,
    replace_device: str = "",
    replace_startup_s: float = 0.0,
    seed: int = 0,
) -> FaultPlan:
    """A seeded crash + straggler storm over ``[0, horizon_s)``.

    ``n_crashes`` workers (drawn without replacement from
    ``worker_indices``) crash at uniform instants in the middle 80% of the
    horizon; each crash is followed by a replacement (``replace_device``
    joining ``replace_startup_s`` later) when a device name is given.
    ``n_slow_windows`` transient slowdowns by :data:`SLOW_FACTOR` land on
    the surviving workers, each lasting :data:`SLOW_WINDOW_FRACTION` of the
    horizon; windows on one worker may overlap. Bit-deterministic for a
    fixed seed.
    """
    if horizon_s <= 0:
        raise ShapeError(f"horizon must be positive, got {horizon_s}")
    if not worker_indices:
        raise ShapeError("crash_storm needs at least one worker index")
    if n_crashes > len(worker_indices):
        raise ShapeError(
            f"cannot crash {n_crashes} of {len(worker_indices)} workers"
        )
    window_s = horizon_s * SLOW_WINDOW_FRACTION
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
                t_s=t, kind=FaultKind.SLOW_START, worker_index=index, factor=SLOW_FACTOR
            )
        )
        events.append(
            FaultEvent(t_s=t + window_s, kind=FaultKind.SLOW_END, worker_index=index)
        )
    events.sort(key=lambda e: (e.t_s, e.kind.value, e.worker_index))
    return FaultPlan(events=tuple(events))


@dataclass(frozen=True)
class ResiliencePolicy:
    """Whether a faulted service recovers from its faults.

    With ``enabled`` (the default), a lost request retries up to
    :data:`MAX_RETRIES` times, and a retry is only submitted when its
    deadline-aware re-placement projects a finish within the admission
    deadline; otherwise the request fails fast instead of wasting a doomed
    launch. A batch landing on a worker whose slowdown factor is at or past
    :data:`HEDGE_SLOW_THRESHOLD` gets a second launch on the best healthy
    candidate: first completion wins, and the loser's compute is added to
    the report's wasted-device-seconds — the honest bill of hedging. A
    crash re-executes only the lost shard of a split request on a
    surviving capable worker, and a replacement worker pre-builds the plans
    of the :data:`REWARM_LIMIT` most recent workloads before it takes
    traffic (cold start paid up front, on the replacement, instead of by
    the first unlucky batches).

    Disabled, none of this happens: a lost request fails at once.
    """

    enabled: bool = True

    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """No recovery at all — the bench's honest no-recovery baseline."""
        return cls(enabled=False)
