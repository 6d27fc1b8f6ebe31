"""SLO error budgets and multi-window burn-rate alerting.

Synthetic-feed tests of the judgement half of the monitoring layer: the
budget arithmetic is exact and windowed correctly (future-stamped events
stay in the future), and the engine's pending → firing → resolved /
cancelled lifecycle transitions exactly once per state, lands in the
trace and the metrics registry, and replays deterministically.
"""

from __future__ import annotations

import pytest

from repro.errors import ShapeError
from repro.serve import (
    AlertEngine,
    BurnRateRule,
    ErrorBudget,
    MetricsRegistry,
    TraceRecorder,
)
from repro.serve.obs.alerts import DEFAULT_RULES
from repro.serve.obs.events import AlertStateChanged

#: one rule, wide-open arithmetic: objective 90% leaves a 10% budget, so
#: a fully-bad window burns at 10x and the threshold of 2 is breached.
RULE = BurnRateRule("burn", threshold=2.0, fast_window_s=1.0, slow_window_s=2.0)
HELD_RULE = BurnRateRule(
    "held", threshold=2.0, fast_window_s=1.0, slow_window_s=2.0, pending_s=1.0
)


def _engine(rule: BurnRateRule = RULE, **kwargs) -> AlertEngine:
    return AlertEngine(rules=(rule,), objective=0.9, **kwargs)


class TestBurnRateRule:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            BurnRateRule("", threshold=1.0, fast_window_s=1.0, slow_window_s=1.0)
        with pytest.raises(ShapeError):
            BurnRateRule("r", threshold=0.0, fast_window_s=1.0, slow_window_s=1.0)
        with pytest.raises(ShapeError):
            BurnRateRule("r", threshold=1.0, fast_window_s=0.0, slow_window_s=1.0)
        with pytest.raises(ShapeError):
            BurnRateRule("r", threshold=1.0, fast_window_s=2.0, slow_window_s=1.0)
        with pytest.raises(ShapeError):
            BurnRateRule(
                "r", threshold=1.0, fast_window_s=1.0, slow_window_s=1.0, pending_s=-1.0
            )

    def test_default_rules_are_fast_then_slow(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert names == ["fast-burn", "slow-burn"]
        for rule in DEFAULT_RULES:
            assert rule.fast_window_s <= rule.slow_window_s

    def test_to_dict_round_trips_the_fields(self):
        d = RULE.to_dict()
        assert d == {
            "name": "burn",
            "threshold": 2.0,
            "fast_window_s": 1.0,
            "slow_window_s": 2.0,
            "pending_s": 0.0,
        }


class TestErrorBudget:
    def test_rejects_bad_objective(self):
        for objective in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ShapeError):
                ErrorBudget("svc", objective)

    def test_window_counts_with_out_of_order_appends(self):
        budget = ErrorBudget("svc", 0.9)
        budget.record(3.0, good=False)
        budget.record(1.0, good=True)
        budget.record(2.0, good=False)
        assert budget.window_counts(10.0, now=3.0) == (3, 2)
        assert budget.window_counts(1.0, now=3.0) == (1, 1)  # (2, 3] only

    def test_future_events_stay_in_the_future(self):
        budget = ErrorBudget("svc", 0.9)
        budget.record(5.0, good=False)  # completion settled early
        assert budget.window_counts(10.0, now=1.0) == (0, 0)
        assert budget.error_rate(10.0, now=1.0) == 0.0
        assert budget.window_counts(10.0, now=5.0) == (1, 1)

    def test_burn_rate_scales_error_rate_by_the_budget(self):
        budget = ErrorBudget("svc", 0.9)
        budget.record(1.0, good=False)
        budget.record(1.5, good=True)
        assert budget.error_rate(2.0, now=2.0) == 0.5
        assert budget.burn_rate(2.0, now=2.0) == pytest.approx(5.0)

    def test_empty_window_is_zero_burn(self):
        budget = ErrorBudget("svc", 0.9)
        assert budget.burn_rate(1.0, now=1.0) == 0.0
        with pytest.raises(ShapeError):
            budget.window_counts(0.0, now=1.0)


class TestEngineValidation:
    def test_needs_at_least_one_rule(self):
        with pytest.raises(ShapeError):
            AlertEngine(rules=())

    def test_rejects_duplicate_rule_names(self):
        with pytest.raises(ShapeError):
            AlertEngine(rules=(RULE, RULE))


class TestLifecycle:
    def test_zero_holddown_fires_on_the_breaching_tick(self):
        engine = _engine()
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        (alert,) = engine.history
        assert alert.state == "firing"
        assert alert.pending_s == 1.0
        assert alert.firing_s == 1.0
        # The fast window (1, 2] is clean: the alert resolves.
        engine.evaluate(2.0)
        assert alert.state == "resolved"
        assert alert.resolved_s == 2.0
        assert alert.peak_burn == pytest.approx(10.0)

    def test_holddown_passes_through_pending(self):
        engine = _engine(HELD_RULE)
        engine.observe(0.5, ("svc",), good=False)
        engine.observe(1.5, ("svc",), good=False)
        engine.evaluate(1.0)
        (alert,) = engine.history
        assert alert.state == "pending"
        engine.evaluate(2.0)  # breach held for pending_s=1.0
        assert alert.state == "firing"
        assert alert.firing_s == 2.0

    def test_pending_alert_cancels_when_the_breach_clears(self):
        engine = _engine(HELD_RULE)
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        (alert,) = engine.history
        assert alert.state == "pending"
        engine.evaluate(2.0)  # fast window (1, 2] is clean
        assert alert.state == "cancelled"
        assert alert.cancelled_s == 2.0
        assert alert.firing_s is None

    def test_a_new_breach_opens_a_new_alert_instance(self):
        engine = _engine()
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        engine.evaluate(2.0)  # resolves
        engine.observe(2.5, ("svc",), good=False)
        engine.evaluate(3.0)
        assert [a.aid for a in engine.history] == ["svc/burn#1", "svc/burn#2"]

    def test_slow_window_suppresses_a_single_blip(self):
        # One bad in a sea of good: fast window breaches, slow does not.
        rule = BurnRateRule("r", threshold=5.0, fast_window_s=0.5, slow_window_s=2.0)
        engine = _engine(rule)
        for i in range(16):
            engine.observe(0.1 + i * 0.1, ("svc",), good=True)
        engine.observe(1.75, ("svc",), good=False)
        # fast (1.5, 2]: 1 bad of 6 -> burn ~1.67; under threshold 5 -> quiet.
        engine.evaluate(2.0)
        assert engine.history == []

    def test_scopes_evaluate_in_sorted_order(self):
        engine = _engine()
        engine.observe(0.5, ("zeta", "alpha"), good=False)
        engine.evaluate(1.0)
        assert [a.scope for a in engine.history] == ["alpha", "zeta"]


class TestEmission:
    def test_transitions_land_as_trace_instants_in_order(self):
        engine = _engine()
        recorder = TraceRecorder()
        engine.bind(recorder, None)
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        engine.evaluate(2.0)
        states = [
            e.state for e in recorder.events if isinstance(e, AlertStateChanged)
        ]
        assert states == ["pending", "firing", "resolved"]

    def test_transitions_count_as_metrics(self):
        engine = _engine(HELD_RULE)
        metrics = MetricsRegistry()
        engine.bind(TraceRecorder(), metrics)
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        engine.evaluate(2.0)  # cancels
        assert metrics.counter("alerts.pending").value == 1
        assert metrics.counter("alerts.cancelled").value == 1
        assert metrics.counter("alerts.firing").value == 0

    def test_unbound_engine_emits_nothing_and_still_works(self):
        engine = _engine()
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        assert engine.count("firing") == 1


class TestReporting:
    def test_count_firing_includes_resolved_alerts(self):
        engine = _engine()
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        engine.evaluate(2.0)
        assert engine.count("firing") == 1
        assert engine.count("resolved") == 1
        assert engine.count("cancelled") == 0

    def test_snapshot_shape(self):
        engine = _engine()
        engine.observe(0.5, ("svc",), good=False)
        engine.evaluate(1.0)
        snapshot = engine.snapshot()
        assert set(snapshot) == {
            "objective",
            "rules",
            "history",
            "fired",
            "resolved",
            "cancelled",
        }
        assert snapshot["objective"] == 0.9
        assert snapshot["rules"] == [RULE.to_dict()]
        (alert,) = snapshot["history"]
        assert alert["id"] == "svc/burn#1"
        assert alert["state"] == "firing"

    def test_replay_is_deterministic(self):
        def play() -> list[dict]:
            engine = _engine()
            for i in range(20):
                engine.observe(0.1 * i, ("svc", "tenant=a"), good=i % 3 == 0)
                engine.evaluate(0.1 * i + 0.05)
            return [a.to_dict() for a in engine.history]

        assert play() == play()
