"""The observability layer: tracing, Perfetto export, metrics.

Four properties carry the PR's acceptance bars:

* **determinism** — the same seed renders a byte-identical Perfetto
  trace (the small serve run's trace is also pinned byte for byte by the
  golden-file test in ``test_golden_replay.py``);
* **zero overhead** — a traced run and an untraced run of the same
  scenario report bit-identical numbers (the recorder observes the
  simulation, never perturbs it), and tracing is off by default;
* **well-formed export** — async request spans balance (shed requests
  included), timestamps are monotonic, and every completed request's
  span links by flow to the GEMM slice that served it;
* **metrics** — the registry arithmetic is exact, collisions fail loud,
  and the report's snapshot agrees with the report's own aggregates.
"""

from __future__ import annotations

import pytest

from repro.bench.serve import golden_trace
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    NULL_RECORDER,
    SLO,
    BatchingPolicy,
    BeamformingService,
    MetricsRegistry,
    TraceRecorder,
    render_trace,
)
from repro.serve.obs import EVENT_TYPES, trace_to_dict
from repro.serve.obs.events import RequestArrived, RequestCompleted, SpanEvent
from repro.serve.obs.metrics import Counter, Gauge, Histogram
from tests.serve.test_service import overload_trace


def _run(max_batch: int = 16, horizon_s: float = 0.004, recorder=None, n_devices: int = 1):
    service = BeamformingService(
        [Device("A100", ExecutionMode.DRY_RUN) for _ in range(n_devices)],
        policy=BatchingPolicy(max_batch=max_batch, max_wait_s=200e-6),
        slo=SLO(p99_latency_s=5e-3),
        recorder=recorder,
    )
    report = service.run(overload_trace(horizon_s=horizon_s))
    return service, report


class TestTraceDeterminism:
    def test_same_seed_renders_byte_identical_trace(self):
        first = TraceRecorder()
        second = TraceRecorder()
        _run(recorder=first)
        _run(recorder=second)
        assert render_trace(first) == render_trace(second)

    def test_golden_trace_itself_replays_byte_identical(self):
        assert golden_trace() == golden_trace()


class TestZeroOverhead:
    def test_recorder_is_off_by_default_and_records_nothing(self):
        service, _ = _run()
        assert service.recorder is NULL_RECORDER
        assert not NULL_RECORDER.enabled
        # The null recorder swallows emissions without storing anything.
        NULL_RECORDER.emit(RequestArrived(t_s=0.0, rid=1, workload="w", priority=0,
                                          tenant="t"))
        assert not hasattr(NULL_RECORDER, "events")

    def test_traced_and_untraced_runs_report_identically(self):
        _, plain = _run()
        _, traced = _run(recorder=TraceRecorder())
        assert traced.latencies_s == plain.latencies_s
        assert traced.n_batches == plain.n_batches
        assert traced.shed_rate == plain.shed_rate
        assert traced.throughput_rps == plain.throughput_rps
        assert [o.completion_s for o in traced.outcomes] == [
            o.completion_s for o in plain.outcomes
        ]

    def test_metrics_identical_with_and_without_tracing(self):
        _, plain = _run()
        _, traced = _run(recorder=TraceRecorder())
        assert plain.metrics.snapshot() == traced.metrics.snapshot()


class TestRecorder:
    def test_recorder_collects_typed_events_in_emission_order(self):
        recorder = TraceRecorder()
        _, report = _run(recorder=recorder)
        assert recorder.enabled and len(recorder) == len(recorder.events) > 0
        kinds = [type(e) for e in recorder.events]
        assert kinds.count(RequestArrived) == report.n_offered
        assert kinds.count(RequestCompleted) == report.n_completed
        assert all(isinstance(e, SpanEvent) for e in recorder.events)

    def test_nothing_is_reported_before_the_clock_reaches_it(self):
        # A completion is emitted when the clock reaches it, so no arrival
        # emitted afterwards can precede it in simulated time.
        recorder = TraceRecorder()
        _run(recorder=recorder)
        latest_completion = float("-inf")
        early = 0
        for event in recorder.events:
            if isinstance(event, RequestCompleted):
                latest_completion = max(latest_completion, event.t_s)
            elif isinstance(event, RequestArrived) and event.t_s < latest_completion:
                early += 1
        assert latest_completion > float("-inf")
        assert early == 0

    def test_every_event_type_is_registered_and_documented(self):
        assert len(EVENT_TYPES) >= 12
        for name, cls in EVENT_TYPES.items():
            assert cls.__name__ == name
            assert cls.__doc__, f"{name} has no docstring"


class TestPerfettoExport:
    def _trace(self, **kwargs):
        recorder = TraceRecorder()
        _, report = _run(recorder=recorder, **kwargs)
        return trace_to_dict(recorder), report

    def test_timestamps_are_monotonic_after_metadata(self):
        trace, _ = self._trace()
        ts = [e["ts"] for e in trace["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_async_request_spans_balance(self):
        trace, report = self._trace()
        events = trace["traceEvents"]
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == report.n_offered
        assert len(ends) == len(begins)  # shed spans close at the verdict
        assert {e["id"] for e in begins} == {e["id"] for e in ends}

    def test_shed_requests_close_with_the_shed_verdict(self):
        # max_batch=1 under 5x overload sheds heavily (see test_service).
        trace, report = self._trace(max_batch=1)
        assert report.shed_rate > 0.0
        shed_ends = [
            e for e in trace["traceEvents"]
            if e["ph"] == "e" and e.get("args", {}).get("shed")
        ]
        assert len(shed_ends) == report.n_offered - report.n_admitted

    def test_completed_requests_flow_to_their_gemm_slice(self):
        trace, report = self._trace()
        events = trace["traceEvents"]
        flow_starts = {e["id"] for e in events if e["ph"] == "s"}
        flow_finishes = {e["id"] for e in events if e["ph"] == "f"}
        completed = {
            e["id"] for e in events
            if e["ph"] == "e" and not e.get("args", {}).get("shed")
        }
        assert completed and completed <= flow_starts
        assert completed <= flow_finishes

    def test_worker_tracks_and_slices_exist(self):
        trace, report = self._trace()
        events = trace["traceEvents"]
        thread_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "worker0/A100 copy" in thread_names
        assert "worker0/A100 compute" in thread_names
        gemms = [e for e in events if e["ph"] == "X" and e["name"] == "gemm"]
        assert len(gemms) == report.n_batches
        assert all(e["dur"] >= 0 for e in gemms)
        stage_ins = [e for e in events if e["ph"] == "X" and e["name"] == "stage_in"]
        assert len(stage_ins) == report.n_batches

    def test_queue_depth_counter_returns_to_zero(self):
        trace, _ = self._trace()
        depths = [
            e["args"]["batches"] for e in trace["traceEvents"]
            if e["ph"] == "C" and e["name"] == "queue_depth"
        ]
        assert depths and min(depths) >= 0 and depths[-1] == 0


class TestMetricsPrimitives:
    def test_counter_is_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ShapeError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_remembers_peak_and_samples(self):
        gauge = Gauge("g")
        gauge.set(-3.0)
        assert gauge.peak == -3.0  # first sample IS the peak, not max(0, .)
        gauge.set(7.0)
        gauge.set(2.0)
        assert (gauge.value, gauge.peak, gauge.samples) == (2.0, 7.0, 3)

    def test_histogram_buckets_exactly(self):
        histogram = Histogram("h", edges=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.observe(value)
        # bisect_left: values at an edge land in that edge's bucket.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.total == 5
        assert histogram.mean == pytest.approx(106.0 / 5)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ShapeError, match="strictly ascending"):
            Histogram("h", edges=(2.0, 1.0))

    def test_empty_histogram_reports_zeros(self):
        histogram = Histogram("h", edges=(1.0, 2.0))
        assert histogram.total == 0
        assert histogram.sum == 0.0
        assert histogram.mean == 0.0  # no division by zero
        assert histogram.counts == [0, 0, 0]

    def test_single_sample_histogram(self):
        histogram = Histogram("h", edges=(1.0, 2.0))
        histogram.observe(1.5)
        assert histogram.total == 1
        assert histogram.mean == 1.5
        assert histogram.counts == [0, 1, 0]

    def test_histogram_rejects_duplicate_edges(self):
        with pytest.raises(ShapeError, match="strictly ascending"):
            Histogram("h", edges=(1.0, 1.0, 2.0))

    def test_negative_observation_lands_in_the_first_bucket(self):
        histogram = Histogram("h", edges=(1.0, 2.0))
        histogram.observe(-5.0)
        assert histogram.counts == [1, 0, 0]
        assert histogram.mean == -5.0

    def test_registry_rejects_reregistering_with_different_edges(self):
        registry = MetricsRegistry()
        registry.histogram("lat", edges=(1.0, 2.0))
        with pytest.raises(ShapeError, match="already registered with edges"):
            registry.histogram("lat", edges=(1.0, 4.0))
        # The same edges get the same instance back.
        assert registry.histogram("lat", edges=(1.0, 2.0)) is registry.histogram(
            "lat", edges=(1.0, 2.0)
        )

    def test_registry_name_is_one_kind_forever(self):
        registry = MetricsRegistry()
        registry.inc("x")
        with pytest.raises(ShapeError, match="already registered as a counter"):
            registry.gauge("x")
        with pytest.raises(ShapeError, match="already registered as a counter"):
            registry.histogram("x")
        registry.histogram("h").observe(1.0)
        with pytest.raises(ShapeError, match="already registered with edges"):
            registry.histogram("h", edges=(1.0, 2.0))

    def test_snapshot_and_render_are_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.inc("b.second")
        registry.inc("a.first", 2)
        registry.set_gauge("depth", 4)
        registry.histogram("lat").observe(0.2)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "b.second"]
        assert snapshot["gauges"]["depth"] == {"value": 4, "peak": 4, "samples": 1}
        assert snapshot["histograms"]["lat"]["total"] == 1
        lines = registry.render().splitlines()
        assert lines[0] == "a.first = 2"
        assert any(line.startswith("depth = 4 (peak 4)") for line in lines)


class TestMetricsInReport:
    def test_snapshot_agrees_with_report_aggregates(self):
        _, report = _run(n_devices=2)
        counters = report.metrics.snapshot()["counters"]
        assert counters["admission.admitted"] == report.n_admitted
        assert counters["service.completed"] == report.n_completed
        assert counters["dispatch.launches"] == report.n_batches
        assert counters["batcher.offered"] == report.n_offered
        hits = counters["cache.hits"]
        misses = counters["cache.misses"]
        assert hits + misses == report.n_batches
        assert misses == report.cache_misses
        latency = report.metrics.histogram("service.latency_ms")
        assert latency.total == report.n_completed

    def test_per_worker_cache_segments_surface(self):
        # The satellite fix: per-device-segment hit/miss counts were
        # invisible; now they live in cache_by_worker, the per-worker
        # counters, and the summary's plans line.
        _, report = _run(n_devices=2)
        assert len(report.cache_by_worker) == 2
        total_hits = sum(h for (_, _, h, _) in report.cache_by_worker)
        total_misses = sum(m for (_, _, _, m) in report.cache_by_worker)
        counters = report.metrics.snapshot()["counters"]
        assert total_hits == counters["cache.hits"]
        assert total_misses == counters["cache.misses"]
        assert counters["cache.worker0.hits"] == report.cache_by_worker[0][2]
        assert "worker0/A100" in report.summary()

    def test_summary_carries_blame_and_metrics_sections(self):
        _, report = _run()
        summary = report.summary()
        assert "blame:" in summary and "p99 blame" in summary
        assert "metrics:" in summary
        assert "admission.admitted" in summary

    def test_shed_reasons_split_by_cause(self):
        service, report = _run(max_batch=1)
        assert report.shed_rate > 0.0
        counters = report.metrics.snapshot()["counters"]
        shed = sum(v for k, v in counters.items() if k.startswith("admission.shed."))
        assert shed == report.n_offered - report.n_admitted
        assert shed == sum(service.admission.shed_by_reason.values())
