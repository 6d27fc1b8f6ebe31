"""Service-level objectives, latency accounting, and admission control.

A serving tier is judged on its tail, not its mean: the SLO here is a p99
latency target plus an optional per-request deadline. Under overload an
unprotected queue grows without bound and *every* request misses; the
:class:`AdmissionController` sheds load at the front door instead, keeping
admitted requests inside the deadline at the price of an explicit shed
rate — the classic goodput-over-throughput trade.

Percentiles are computed with deterministic linear interpolation (no NumPy
percentile-method ambiguity), so reports are bit-stable run to run.

Multi-tenant serving additionally needs the tail *per priority class and
per tenant* — an aggregate p99 hides an interactive class being starved by
batch traffic. :class:`SLOTracker` accumulates per-(class, tenant) outcomes
and emits :class:`ClassStats` breakdowns; the :class:`AdmissionController`
keeps per-class shed counters so reports can show where the shedding
landed (a healthy overloaded service sheds its lowest class, nothing else).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import ShapeError


@dataclass(frozen=True)
class SLO:
    """The service-level objective of a deployment.

    ``p99_latency_s``: the reported tail target (attainment check);
    ``deadline_s``: the per-request latency bound admission control
    protects (defaults to the p99 target).
    """

    p99_latency_s: float
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.p99_latency_s <= 0:
            raise ShapeError(f"p99 target must be positive, got {self.p99_latency_s}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ShapeError(f"deadline must be positive, got {self.deadline_s}")

    @property
    def admission_deadline_s(self) -> float:
        return self.deadline_s if self.deadline_s is not None else self.p99_latency_s


def percentile(values: list[float], q: float) -> float:
    """Deterministic percentile with linear interpolation.

    ``q`` in [0, 100]. An empty sample yields 0.0: a report with zero
    completions (every request shed, or lost to a crash storm) has no
    tail, and the latency axes read as zero rather than crashing the
    summary path. A single sample is every percentile; q=0 and q=100 are
    the exact minimum and maximum.
    """
    if not 0.0 <= q <= 100.0:
        raise ShapeError(f"percentile must be in [0, 100], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class ClassStats:
    """Aggregate outcome of one slice (a priority class or a tenant)."""

    label: str
    n_offered: int = 0
    n_admitted: int = 0
    n_completed: int = 0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    goodput_rps: float = 0.0
    throughput_rps: float = 0.0
    #: this slice's share of every shed request in the run (not its own
    #: shed rate) — the "who absorbed the overload" number.
    shed_share: float = 0.0

    @property
    def n_shed(self) -> int:
        return self.n_offered - self.n_admitted

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_offered if self.n_offered else 0.0


@dataclass
class FleetTimeline:
    """Step function of the fleet's size over one service run.

    Elastic fleets change size mid-trace; reports need both views of that:
    ``accepting`` (workers placement may target — what the latency story is
    about) and ``provisioned`` (workers that exist at all, draining ones
    included — what the bill is about). Each point is ``(t_s, accepting,
    provisioned)`` effective from ``t_s`` until the next point; a fixed
    fleet is a single point at ``t=0``.
    """

    points: list[tuple[float, int, int]] = field(default_factory=list)

    def record(self, t_s: float, accepting: int, provisioned: int) -> None:
        """Append one step (collapses consecutive identical sizes)."""
        if self.points and self.points[-1][0] > t_s:
            raise ShapeError(
                f"fleet timeline must advance in time: got {t_s} after "
                f"{self.points[-1][0]}"
            )
        if self.points and self.points[-1][1:] == (accepting, provisioned):
            return
        self.points.append((t_s, accepting, provisioned))

    @property
    def peak_provisioned(self) -> int:
        """Largest *provisioned* size reached (the cost peak — draining
        workers still bill; pairs with :meth:`device_seconds`)."""
        return max((provisioned for _, _, provisioned in self.points), default=0)

    def device_seconds(self, end_s: float) -> float:
        """Integral of the *provisioned* size over ``[first point, end_s]``.

        The cost of the run in device-time: a draining worker is still
        provisioned (it bills) even though placement no longer targets it.
        This is the equal-resources axis on which elastic and fixed fleets
        are compared — an autoscaler is only interesting if it beats a
        fixed fleet of the same device-seconds.
        """
        total = 0.0
        for i, (t, _, provisioned) in enumerate(self.points):
            t_next = self.points[i + 1][0] if i + 1 < len(self.points) else end_s
            total += provisioned * max(min(t_next, end_s) - t, 0.0)
        return total

    def mean_size(self, end_s: float) -> float:
        """Time-averaged provisioned size over the run."""
        if not self.points:
            return 0.0
        span = end_s - self.points[0][0]
        return self.device_seconds(end_s) / span if span > 0 else 0.0


@dataclass
class _Slice:
    n_offered: int = 0
    n_admitted: int = 0
    latencies_s: list[float] = field(default_factory=list)


class SLOTracker:
    """Accumulates per-request outcomes sliced by priority class and tenant.

    Feed it one :meth:`record` per offered request (shed requests carry
    ``latency_s=None``); read back :meth:`by_priority` / :meth:`by_tenant`
    breakdowns. All statistics are deterministic: percentiles use
    :func:`percentile`, empty slices report 0.0 tails rather than raising,
    and slices appear in first-seen order.
    """

    def __init__(self, slo: SLO):
        self.slo = slo
        self._by_priority: dict[int, _Slice] = {}
        self._by_tenant: dict[str, _Slice] = {}

    def record(
        self,
        priority: int,
        tenant: str,
        admitted: bool,
        latency_s: float | None,
    ) -> None:
        """Account one offered request to its class and tenant slices."""
        for table, key in ((self._by_priority, priority), (self._by_tenant, tenant)):
            slice_ = table.get(key)
            if slice_ is None:
                slice_ = table[key] = _Slice()
            slice_.n_offered += 1
            if admitted:
                slice_.n_admitted += 1
            if latency_s is not None:
                slice_.latencies_s.append(latency_s)

    @property
    def n_shed(self) -> int:
        return sum(s.n_offered - s.n_admitted for s in self._by_priority.values())

    def shed_share(self, priority: int) -> float:
        """Fraction of all shed requests that came from one class."""
        total = self.n_shed
        if total == 0:
            return 0.0
        slice_ = self._by_priority.get(priority)
        return (slice_.n_offered - slice_.n_admitted) / total if slice_ else 0.0

    def by_priority(self, span_s: float = 0.0) -> list[ClassStats]:
        """One :class:`ClassStats` per priority class, most urgent first."""
        return [
            self._stats(f"priority={p}", self._by_priority[p], span_s)
            for p in sorted(self._by_priority)
        ]

    def by_tenant(self, span_s: float = 0.0) -> list[ClassStats]:
        """One :class:`ClassStats` per tenant, in first-seen order."""
        return [self._stats(tenant, slice_, span_s) for tenant, slice_ in self._by_tenant.items()]

    def _stats(self, label: str, slice_: _Slice, span_s: float) -> ClassStats:
        lat = slice_.latencies_s
        deadline = self.slo.admission_deadline_s
        good = sum(1 for t in lat if t <= deadline)
        total_shed = self.n_shed
        shed = slice_.n_offered - slice_.n_admitted
        return ClassStats(
            label=label,
            n_offered=slice_.n_offered,
            n_admitted=slice_.n_admitted,
            n_completed=len(lat),
            p50_latency_s=percentile(lat, 50.0) if lat else 0.0,
            p95_latency_s=percentile(lat, 95.0) if lat else 0.0,
            p99_latency_s=percentile(lat, 99.0) if lat else 0.0,
            goodput_rps=good / span_s if span_s > 0 else 0.0,
            throughput_rps=len(lat) / span_s if span_s > 0 else 0.0,
            shed_share=shed / total_shed if total_shed else 0.0,
        )


class AdmissionController:
    """Front-door load shedding against a latency estimate and queue depth.

    A request is admitted unless

    * the projected latency (batching wait + queue backlog + service
      estimate) exceeds the SLO's admission deadline, or
    * more than ``max_queue_depth`` admitted requests are already waiting
      (forming batches plus in-flight dispatches).

    The estimate intentionally uses only information available at arrival time
    — no peeking at future arrivals — so the same controller logic would
    run unchanged in a live deployment.
    """

    def __init__(self, slo: SLO, max_queue_depth: int | None = None):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ShapeError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.slo = slo
        self.max_queue_depth = max_queue_depth
        self.n_admitted = 0
        self.n_shed = 0
        #: per-priority-class shed counts ("who absorbed the overload").
        self.shed_by_class: dict[int, int] = {}
        #: shed counts by cause ("deadline" / "depth").
        self.shed_by_reason: dict[str, int] = {}
        #: cause of the most recent verdict: "ok", "deadline", or "depth"
        #: (tracing reads this right after :meth:`admit`).
        self.last_reason = "ok"
        #: optional :class:`~repro.serve.obs.metrics.MetricsRegistry` the
        #: controller publishes admit/shed counters into.
        self.metrics = None

    def admit(self, estimated_latency_s: float, queue_depth: int, priority: int = 0) -> bool:
        """Decide one arrival; updates the shed/admit counters.

        ``priority`` only labels the decision for the per-class counters.
        Class-awareness lives in the *estimate* the caller passes: the
        service projects latency from the work queued at the request's own
        class and above (more urgent), so under overload the lowest class
        sees the longest projected queue and sheds first — strictly, once
        its backlog alone busts the deadline.
        """
        over_deadline = estimated_latency_s > self.slo.admission_deadline_s
        over_depth = self.max_queue_depth is not None and queue_depth >= self.max_queue_depth
        if over_deadline or over_depth:
            self.n_shed += 1
            self.shed_by_class[priority] = self.shed_by_class.get(priority, 0) + 1
            self.last_reason = "deadline" if over_deadline else "depth"
            self.shed_by_reason[self.last_reason] = (
                self.shed_by_reason.get(self.last_reason, 0) + 1
            )
            if self.metrics is not None:
                self.metrics.inc(f"admission.shed.{self.last_reason}")
            return False
        self.n_admitted += 1
        self.last_reason = "ok"
        if self.metrics is not None:
            self._admitted.inc()
        return True

    @cached_property
    def _admitted(self):
        """The ``admission.admitted`` counter, created on the first admit."""
        return self.metrics.counter("admission.admitted")

    @property
    def shed_rate(self) -> float:
        offered = self.n_admitted + self.n_shed
        return self.n_shed / offered if offered else 0.0
