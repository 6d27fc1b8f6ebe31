"""The shared serve-experiment runner: columns, arms, replay, result."""

from __future__ import annotations

from itertools import count

from repro.bench.scenario import Columns, Scenario, experiment_result, fleet
from repro.serve import SLO, BatchingPolicy, BeamformingService, TraceRecorder
from tests.serve.test_service import overload_trace

COLUMNS = Columns("config", ("offered", lambda r: r.n_offered), ("launches", lambda r: r.n_batches))


def _arm(seed: int = 11, recorder=None, monitor=None):
    service = BeamformingService(
        fleet("A100"),
        policy=BatchingPolicy(max_batch=8, max_wait_s=200e-6),
        slo=SLO(p99_latency_s=5e-3),
        recorder=recorder,
        monitor=monitor,
    )
    return service.run(overload_trace(horizon_s=0.001, seed=seed))


def _scenario() -> Scenario:
    return Scenario("headline", 100e-6, lambda r: [COLUMNS.row("headline", r)])


def test_columns_yield_matching_headers_and_rows():
    report = _arm()
    headers, rows = COLUMNS.table([("a", report), ("b", report)])
    assert headers == ["config", "offered", "launches"]
    assert rows == [[label, report.n_offered, report.n_batches] for label in ("a", "b")]


def test_only_the_headline_is_traced_and_monitored():
    recorder = TraceRecorder()
    served = _scenario().serve({"other": _arm, "headline": _arm}, recorder)
    assert list(served.reports) == ["other", "headline"]
    assert served.headline is served.reports["headline"]
    assert served.headline.monitor is served.monitor
    assert served.reports["other"].monitor is None
    assert served.monitor.sampler.n_ticks > 0
    assert recorder.events
    assert served.replay_identical


def test_replay_check_catches_a_nondeterministic_headline():
    seeds = count(11)
    served = _scenario().serve({"headline": lambda **obs: _arm(next(seeds), **obs)})
    assert not served.replay_identical


def test_result_carries_the_headline_artifacts():
    served = _scenario().serve({"headline": _arm})
    result = experiment_result(
        "demo",
        "Demo",
        served,
        [("arms", "All arms", COLUMNS.table(served.reports.items())), "free text"],
        ["a finding (PASS)"],
        dashboard_title="demo dashboard",
    )
    assert list(result.tables) == ["arms"]
    assert result.text.endswith("free text")
    assert result.availability == served.headline.availability
    assert result.alerts == served.monitor.engine.snapshot()
    assert "demo dashboard" in result.dashboard_html
