"""SLO error budgets and multi-window burn-rate alerting.

The monitoring layer's judgement half: where :mod:`~repro.serve.obs.monitor`
records what the service *did*, this module decides whether that was *good
enough* — SRE-style, on error budgets.

An :class:`ErrorBudget` accumulates per-scope request verdicts (a request
is *good* when it was served within its admission deadline, *bad* when it
was shed or completed late) and answers windowed error-rate queries. A
:class:`BurnRateRule` turns those into the classic multi-window condition:
alert when the *burn rate* — the windowed error rate divided by the budget
the objective leaves (``1 - objective``) — exceeds a threshold over **both**
a fast window (catches the spike quickly, resets quickly once the bleeding
stops) and a slow window (suppresses one-sample blips). The
:class:`AlertEngine` evaluates every rule against every scope at each
monitor tick and drives a pending → firing → resolved lifecycle whose
transitions land as trace instants and metrics counters.

Everything here runs on the simulation clock with pure-deterministic
arithmetic, so the alert sequence is bit-identical for the same seed.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from repro.errors import ShapeError
from repro.serve.obs.events import AlertStateChanged
from repro.serve.obs.metrics import MetricsRegistry
from repro.serve.obs.trace import NULL_RECORDER, NullRecorder

#: default availability objective: 99.9% of offered requests in-deadline.
DEFAULT_OBJECTIVE = 0.999


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alerting rule.

    Fires when the burn rate meets ``threshold`` over *both* windows: the
    fast window makes the alert react (and later resolve) quickly, the
    slow window keeps one bad sample from paging. ``pending_s`` is the
    hold-down between the condition first holding and the alert firing
    (0 fires on the same tick, after passing through ``pending``).

    Thresholds follow the SRE workbook shape: with objective 99.9%, a
    threshold of 14.4 fires when ~1.44% of a window's requests are bad.
    """

    name: str
    threshold: float
    fast_window_s: float
    slow_window_s: float
    pending_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ShapeError("BurnRateRule needs a non-empty name")
        if self.threshold <= 0:
            raise ShapeError(f"threshold must be positive, got {self.threshold}")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ShapeError("burn-rate windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ShapeError(
                f"fast window ({self.fast_window_s}s) must not exceed "
                f"slow window ({self.slow_window_s}s)"
            )
        if self.pending_s < 0:
            raise ShapeError(f"pending_s must be non-negative, got {self.pending_s}")

    def to_dict(self) -> dict:
        """JSON-ready form for bench reports."""
        return {
            "name": self.name,
            "threshold": self.threshold,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "pending_s": self.pending_s,
        }


#: simulation-scaled defaults (milliseconds stand in for the workbook's
#: hours): a page-grade fast rule and a ticket-grade slow rule.
DEFAULT_RULES: tuple[BurnRateRule, ...] = (
    BurnRateRule("fast-burn", threshold=14.4, fast_window_s=0.5e-3, slow_window_s=2e-3),
    BurnRateRule("slow-burn", threshold=6.0, fast_window_s=2e-3, slow_window_s=8e-3),
)


class ErrorBudget:
    """Windowed good/bad accounting for one scope (service, class, tenant).

    Events arrive out of time order (completions are settled at dispatch,
    with completion instants in the future), so :meth:`record` inserts each
    one in place into two sorted lists — every event time, and the bad
    event times — and a window query is four bisections, whatever the
    history length. All queries treat the window as the half-open interval
    ``(now - window_s, now]`` — events stamped in the future (recorded
    early) never leak into the present.
    """

    def __init__(self, scope: str, objective: float = DEFAULT_OBJECTIVE):
        if not 0.0 < objective < 1.0:
            raise ShapeError(f"objective must be in (0, 1), got {objective}")
        self.scope = scope
        self.objective = objective
        #: every event time, sorted.
        self._times: list[float] = []
        #: the bad events' times, sorted.
        self._bad_times: list[float] = []

    def record(self, t_s: float, good: bool) -> None:
        """Record one request verdict at simulation time ``t_s``."""
        insort(self._times, t_s)
        if not good:
            insort(self._bad_times, t_s)

    def window_counts(self, window_s: float, now: float) -> tuple[int, int]:
        """Event and bad-event counts in the window ``(now - window_s, now]``."""
        if window_s <= 0:
            raise ShapeError(f"window_s must be positive, got {window_s}")
        start = now - window_s
        times, bad = self._times, self._bad_times
        return (
            bisect_right(times, now) - bisect_right(times, start),
            bisect_right(bad, now) - bisect_right(bad, start),
        )

    def error_rate(self, window_s: float, now: float) -> float:
        """Fraction of windowed events that were bad (0 with no events)."""
        n, bad = self.window_counts(window_s, now)
        return bad / n if n else 0.0

    def burn_rate(self, window_s: float, now: float) -> float:
        """Windowed error rate over the budget the objective leaves."""
        return self.error_rate(window_s, now) / (1.0 - self.objective)


@dataclass
class Alert:
    """One alert instance: a rule breaching on a scope, birth to death.

    The lifecycle is ``pending`` → ``firing`` → ``resolved``; a pending
    alert whose condition clears before the hold-down elapses ends
    ``cancelled`` instead (it never paged). ``peak_burn`` is the highest
    fast-window burn rate observed across the alert's lifetime.
    """

    aid: str
    scope: str
    rule: str
    pending_s: float
    firing_s: float | None = None
    resolved_s: float | None = None
    cancelled_s: float | None = None
    peak_burn: float = 0.0

    @property
    def state(self) -> str:
        if self.cancelled_s is not None:
            return "cancelled"
        if self.resolved_s is not None:
            return "resolved"
        if self.firing_s is not None:
            return "firing"
        return "pending"

    def to_dict(self) -> dict:
        """JSON-ready form for bench reports and the dashboard."""
        return {
            "id": self.aid,
            "scope": self.scope,
            "rule": self.rule,
            "state": self.state,
            "pending_s": self.pending_s,
            "firing_s": self.firing_s,
            "resolved_s": self.resolved_s,
            "cancelled_s": self.cancelled_s,
            "peak_burn": self.peak_burn,
        }


@dataclass
class _ActiveKey:
    """Internal: per-(scope, rule) alert sequencing."""

    seq: int = 0
    alert: Alert | None = None


class AlertEngine:
    """Evaluates burn-rate rules over per-scope error budgets.

    The service monitor feeds every request verdict through
    :meth:`observe` (which fans it out to the ``service``, ``priority=N``
    and ``tenant=X`` scopes) and calls :meth:`evaluate` at each sampler
    tick. Evaluation order is deterministic — sorted scopes, rule
    declaration order — so the alert history is bit-identical for the
    same seed. Transitions are emitted as
    :class:`~repro.serve.obs.events.AlertStateChanged` trace instants
    (when a recorder is bound) and counted as ``alerts.{state}`` metrics.
    """

    def __init__(
        self,
        rules: tuple[BurnRateRule, ...] | None = None,
        objective: float = DEFAULT_OBJECTIVE,
    ):
        self.rules = tuple(rules) if rules is not None else DEFAULT_RULES
        if not self.rules:
            raise ShapeError("AlertEngine needs at least one BurnRateRule")
        if len({rule.name for rule in self.rules}) != len(self.rules):
            raise ShapeError("BurnRateRule names must be unique")
        self.objective = objective
        self.recorder: NullRecorder = NULL_RECORDER
        self.metrics: MetricsRegistry | None = None
        self._budgets: dict[str, ErrorBudget] = {}
        self._slots: dict[tuple[str, str], _ActiveKey] = {}
        #: every alert ever created, in creation order.
        self.history: list[Alert] = []

    def bind(self, recorder: NullRecorder, metrics: MetricsRegistry | None) -> None:
        """Attach the run's trace recorder and metrics registry."""
        self.recorder = recorder
        self.metrics = metrics

    def budget(self, scope: str) -> ErrorBudget:
        """The scope's budget, created on first sight."""
        budget = self._budgets.get(scope)
        if budget is None:
            budget = self._budgets[scope] = ErrorBudget(scope, self.objective)
        return budget

    def observe(self, t_s: float, scopes: tuple[str, ...], good: bool) -> None:
        """Record one request verdict into every scope it belongs to."""
        for scope in scopes:
            self.budget(scope).record(t_s, good)

    # -- lifecycle -----------------------------------------------------------

    def evaluate(self, now: float) -> None:
        """Advance every (scope, rule) alert state machine to ``now``."""
        for scope in sorted(self._budgets):
            budget = self._budgets[scope]
            for rule in self.rules:
                fast = budget.burn_rate(rule.fast_window_s, now)
                slow = budget.burn_rate(rule.slow_window_s, now)
                breach = fast >= rule.threshold and slow >= rule.threshold
                self._step(scope, rule, now, fast, slow, breach)

    def _step(
        self,
        scope: str,
        rule: BurnRateRule,
        now: float,
        fast: float,
        slow: float,
        breach: bool,
    ) -> None:
        key = (scope, rule.name)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _ActiveKey()
        alert = slot.alert
        if alert is None:
            if not breach:
                return
            slot.seq += 1
            alert = Alert(
                aid=f"{scope}/{rule.name}#{slot.seq}",
                scope=scope,
                rule=rule.name,
                pending_s=now,
                peak_burn=fast,
            )
            slot.alert = alert
            self.history.append(alert)
            self._transition(alert, "pending", now, fast, slow)
            if rule.pending_s == 0.0:
                alert.firing_s = now
                self._transition(alert, "firing", now, fast, slow)
            return
        alert.peak_burn = max(alert.peak_burn, fast)
        if alert.firing_s is None:
            if not breach:
                alert.cancelled_s = now
                slot.alert = None
                self._transition(alert, "cancelled", now, fast, slow)
            elif now - alert.pending_s >= rule.pending_s:
                alert.firing_s = now
                self._transition(alert, "firing", now, fast, slow)
        elif not breach:
            alert.resolved_s = now
            slot.alert = None
            self._transition(alert, "resolved", now, fast, slow)

    def _transition(
        self, alert: Alert, state: str, now: float, fast: float, slow: float
    ) -> None:
        if self.metrics is not None:
            self.metrics.inc(f"alerts.{state}")
        if self.recorder.enabled:
            self.recorder.emit(
                AlertStateChanged(
                    t_s=now,
                    alert_id=alert.aid,
                    scope=alert.scope,
                    rule=alert.rule,
                    state=state,
                    burn_fast=fast,
                    burn_slow=slow,
                )
            )

    # -- reporting -----------------------------------------------------------

    def count(self, state: str) -> int:
        """Alerts that ever reached ``state`` (firing counts resolved too)."""
        if state == "firing":
            return sum(1 for a in self.history if a.firing_s is not None)
        return sum(1 for a in self.history if a.state == state)

    def snapshot(self) -> dict:
        """JSON-ready summary: objective, rules, full alert history."""
        return {
            "objective": self.objective,
            "rules": [rule.to_dict() for rule in self.rules],
            "history": [alert.to_dict() for alert in self.history],
            "fired": self.count("firing"),
            "resolved": self.count("resolved"),
            "cancelled": self.count("cancelled"),
        }
