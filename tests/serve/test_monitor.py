"""The service monitor: rolling time-series sampling of a live run.

Three properties carry the monitoring tentpole's acceptance bars:

* **determinism** — two monitored runs of the same seed render
  byte-identical series text and identical alert histories;
* **non-perturbation** — a monitored run reports bit-identically to an
  unmonitored one (ticks only read service state), and tracing on top
  changes nothing either;
* **honest sampling** — rates, queue depths, and busy fractions agree
  with the report's own aggregates where they overlap.
"""

from __future__ import annotations

import pytest

from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    ServiceMonitor,
    TraceRecorder,
)
from repro.serve.obs.monitor import MetricSampler, TimeSeries
from tests.serve.test_service import overload_trace

INTERVAL_S = 100e-6


def _run(monitor=None, recorder=None, horizon_s: float = 0.004):
    service = BeamformingService(
        [Device("A100", ExecutionMode.DRY_RUN)],
        policy=BatchingPolicy(max_batch=16, max_wait_s=200e-6),
        slo=SLO(p99_latency_s=5e-3),
        recorder=recorder,
        monitor=monitor,
    )
    return service.run(overload_trace(horizon_s=horizon_s))


class TestTimeSeries:
    def test_appends_in_order_and_reports_extremes(self):
        series = TimeSeries("q")
        for t, v in [(1.0, 5.0), (2.0, 3.0), (3.0, 7.0)]:
            series.append(t, v)
        assert len(series) == 3
        assert series.points == [(1.0, 5.0), (2.0, 3.0), (3.0, 7.0)]
        assert series.latest == 7.0
        assert series.minimum == 3.0
        assert series.maximum == 7.0

    def test_rejects_non_increasing_timestamps(self):
        series = TimeSeries("q")
        series.append(1.0, 0.0)
        with pytest.raises(ShapeError):
            series.append(1.0, 1.0)
        with pytest.raises(ShapeError):
            series.append(0.5, 1.0)

    def test_empty_series_raises_on_reads(self):
        series = TimeSeries("q")
        for prop in ("latest", "minimum", "maximum"):
            with pytest.raises(ShapeError):
                getattr(series, prop)


class TestSamplerValidation:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ShapeError):
            MetricSampler(0.0)
        with pytest.raises(ShapeError):
            MetricSampler(-1e-3)

    def test_ticks_advance_on_fixed_cadence(self):
        sampler = MetricSampler(interval_s=0.5)
        assert sampler.next_sample_s == 0.5
        assert sampler.n_ticks == 0


class TestMonitorDeterminism:
    def test_same_seed_renders_byte_identical_series(self):
        first = ServiceMonitor(interval_s=INTERVAL_S)
        second = ServiceMonitor(interval_s=INTERVAL_S)
        _run(monitor=first)
        _run(monitor=second)
        series = {name: s.points for name, s in first.series.items()}
        assert series == {name: s.points for name, s in second.series.items()}
        assert any(series.values())  # sampled something
        assert [a.to_dict() for a in first.engine.history] == [
            a.to_dict() for a in second.engine.history
        ]

    def test_monitored_run_reports_identically_to_unmonitored(self):
        plain = _run()
        monitored = _run(monitor=ServiceMonitor(interval_s=INTERVAL_S))
        assert monitored.latencies_s == plain.latencies_s
        assert monitored.n_batches == plain.n_batches
        assert monitored.throughput_rps == plain.throughput_rps
        assert monitored.shed_rate == plain.shed_rate

    def test_tracing_does_not_perturb_a_monitored_run(self):
        untraced_monitor = ServiceMonitor(interval_s=INTERVAL_S)
        traced_monitor = ServiceMonitor(interval_s=INTERVAL_S)
        untraced = _run(monitor=untraced_monitor)
        traced = _run(monitor=traced_monitor, recorder=TraceRecorder())
        assert traced.latencies_s == untraced.latencies_s
        assert {name: s.points for name, s in traced_monitor.series.items()} == {
            name: s.points for name, s in untraced_monitor.series.items()
        }


class TestSampledSeries:
    def test_core_series_exist_and_cover_the_run(self):
        monitor = ServiceMonitor(interval_s=INTERVAL_S)
        report = _run(monitor=monitor)
        for name in (
            "rate.arrival_hz",
            "rate.completed_hz",
            "rate.shed_hz",
            "queue.requests",
            "inflight.requests",
            "cache.hit_rate",
            "ops.padded_fraction",
            "fleet.accepting",
            "fleet.provisioned",
            "util.worker0",
        ):
            assert name in monitor.series, name
            assert len(monitor.series[name]) == monitor.sampler.n_ticks
        # Windowed rates integrate exactly: cumulative completions over
        # every tick equal the completions by the last tick instant (the
        # partial window after it is not a tick and is honestly absent).
        completed = sum(v * INTERVAL_S for _, v in monitor.series["rate.completed_hz"].points)
        last_tick_s = monitor.sampler.n_ticks * INTERVAL_S
        expected = sum(
            1
            for outcome in report.outcomes
            if outcome.completion_s is not None and outcome.completion_s <= last_tick_s
        )
        assert round(completed) == expected
        assert expected >= report.n_completed * 0.9  # the tail window is small

    def test_arrival_rate_integrates_to_offered_requests(self):
        monitor = ServiceMonitor(interval_s=INTERVAL_S)
        report = _run(monitor=monitor)
        offered = sum(v * INTERVAL_S for _, v in monitor.series["rate.arrival_hz"].points)
        # All arrivals land inside the sampled horizon (the drain tail
        # extends past the last arrival), so the integral is exact.
        assert round(offered) == report.n_offered

    def test_busy_fraction_is_a_fraction(self):
        monitor = ServiceMonitor(interval_s=INTERVAL_S)
        _run(monitor=monitor)
        values = [v for _, v in monitor.series["util.worker0"].points]
        assert values and all(0.0 <= v <= 1.0 + 1e-9 for v in values)
        assert max(values) > 0.0  # an overloaded device is busy


class TestReportIntegration:
    def test_summary_reports_busy_and_alert_lines_when_monitored(self):
        report = _run(monitor=ServiceMonitor(interval_s=INTERVAL_S))
        summary = report.summary()
        assert "busy:" in summary
        assert "alerts:" in summary

    def test_unmonitored_summary_has_no_alert_line(self):
        assert "alerts:" not in _run().summary()

    def test_worker_busy_fractions_bounded(self):
        report = _run(monitor=ServiceMonitor(interval_s=INTERVAL_S))
        busy = report.worker_busy_fractions()
        assert len(busy) == 1
        assert 0.0 < busy[0] <= 1.0
