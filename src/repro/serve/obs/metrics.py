"""Fleet metrics: named counters, gauges, and histograms.

The trace answers "what happened to request 1734"; the
:class:`MetricsRegistry` answers "how is the service doing" — the
aggregate counters a live deployment would export to its monitoring
system. ``service``, ``dispatch``, ``scheduler``, ``cache``, and
``autoscale`` all publish into one registry owned by the
:class:`~repro.serve.service.BeamformingService`; its snapshot lands in
the service report (and in ``repro-bench --output`` JSON as the
``metrics`` block).

Everything here is deterministic: counters are exact integers (or exact
float sums), histograms use fixed bucket edges, and snapshots render in
sorted-name order — so metrics are golden-safe and replay byte-identical
like the rest of the simulation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ShapeError

#: default latency histogram bucket edges, milliseconds.
DEFAULT_LATENCY_EDGES_MS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)


@dataclass
class Counter:
    """A monotonically increasing count (requests admitted, cache hits...)."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ShapeError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time level (queue depth, fleet size); remembers its peak."""

    name: str
    value: float = 0.0
    peak: float = 0.0
    #: number of times the gauge was set (0 means never observed).
    samples: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = value if self.samples == 0 else max(self.peak, value)
        self.samples += 1


@dataclass
class Histogram:
    """Fixed-bucket histogram with exact count/sum (latency distributions).

    ``edges`` are ascending upper bounds; observations land in the first
    bucket whose edge is >= the value, with one implicit overflow bucket
    past the last edge. Deterministic by construction — no adaptive
    binning, no floating-point re-ordering.
    """

    name: str
    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        if list(self.edges) != sorted(set(self.edges)):
            raise ShapeError(f"histogram edges must be strictly ascending, got {self.edges}")
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0


class MetricsRegistry:
    """Get-or-create registry of named counters / gauges / histograms.

    Names are dotted paths (``"cache.hits"``, ``"scheduler.preemptions"``);
    a name is permanently one kind — asking for an existing name as a
    different kind raises. The convenience mutators (:meth:`inc`,
    :meth:`set_gauge`) look a metric up by name on every call; a hot path
    that counts per request binds the metric once instead (the service's
    completion counter and latency histogram, the batcher's and admission's
    per-request counters). :meth:`snapshot` and :meth:`render` are the
    report faces.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------------

    def _check_free(self, name: str, table: dict) -> None:
        for kind, other in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other is not table and name in other:
                raise ShapeError(f"metric {name!r} already registered as a {kind}")

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            self._check_free(name, self._counters)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_free(name, self._gauges)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES_MS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_free(name, self._histograms)
            histogram = self._histograms[name] = Histogram(name, tuple(edges))
        elif histogram.edges != tuple(edges):
            raise ShapeError(
                f"histogram {name!r} already registered with edges {histogram.edges}"
            )
        return histogram

    # -- hot-path mutators ---------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        """Increment the named counter (created on first use)."""
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge (created on first use)."""
        self.gauge(name).set(value)

    # -- report faces --------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready view of every metric, sorted by name within kind."""
        return {
            "counters": {name: self._counters[name].value for name in sorted(self._counters)},
            "gauges": {
                name: {
                    "value": self._gauges[name].value,
                    "peak": self._gauges[name].peak,
                    "samples": self._gauges[name].samples,
                }
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "edges": list(self._histograms[name].edges),
                    "counts": list(self._histograms[name].counts),
                    "total": self._histograms[name].total,
                    "sum": self._histograms[name].sum,
                }
                for name in sorted(self._histograms)
            },
        }

    def render(self) -> str:
        """Text snapshot for report summaries, one metric per line."""
        lines: list[str] = []
        for name in sorted(self._counters):
            value = self._counters[name].value
            text = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"{name} = {text}")
        for name in sorted(self._gauges):
            gauge = self._gauges[name]
            lines.append(f"{name} = {gauge.value:g} (peak {gauge.peak:g})")
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            lines.append(
                f"{name}: n={histogram.total} mean={histogram.mean:.4g} sum={histogram.sum:.4g}"
            )
        return "\n".join(lines)
