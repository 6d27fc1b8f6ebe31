"""Experiment: elastic fleets — reactive vs predictive autoscaling vs fixed.

The paper sizes a fixed device set against a known ingest rate; a serving
tier faces a *diurnal* rate that swings from zero to twice the daily mean.
This experiment drives one compressed two-day LOFAR trace (sinusoidal
rate, dead troughs, peaks at 9x one device's batched capacity) through
three provisioning regimes on simulated A100s:

* **reactive autoscaling** — scale up on sustained queue pressure, down on
  sustained idle (:class:`~repro.serve.autoscale.ReactiveAutoscaler`);
* **predictive autoscaling** — size the fleet against the arrival
  generator's own :class:`~repro.serve.arrivals.RateForecast`, a
  provisioning window ahead
  (:class:`~repro.serve.autoscale.PredictiveAutoscaler`);
* **fixed fleets** — the autoscaler's device-second budget spent as a
  constant fleet (whole devices: the budget's floor and its ceiling).

Checked claims, all deterministic:

* the reactive policy holds its p99 SLO with sub-percent shedding at a
  load where the equal-device-second fixed fleet sheds several percent of
  all requests at the diurnal peaks;
* the predictive policy scales *ahead* of the first peak (its first
  scale-up precedes the reactive policy's by milliseconds of simulated
  time) and pays fewer cold-start-affected requests — capacity warms its
  plan cache before the crush, and short troughs are ridden out warm
  rather than drained and re-provisioned cold;
* every scale-down drains non-destructively (each drain reaches its
  retire event; nothing in flight is revoked);
* a fixed-seed replay reproduces every reported number bit-for-bit.
"""

from __future__ import annotations

from functools import cache, partial

from repro.apps.radioastronomy.beamformer import service_workload as lofar_workload
from repro.bench.report import ExperimentResult
from repro.bench.scenario import (
    Arm,
    Columns,
    Scenario,
    Table,
    experiment_result,
    fleet,
    gemm_capacity_hz,
    verdict,
)
from repro.serve import (
    SLO,
    Autoscaler,
    BatchingPolicy,
    BeamformingService,
    PredictiveAutoscaler,
    RateForecast,
    ReactiveAutoscaler,
    ServiceReport,
    diurnal_arrivals,
)
from repro.serve.arrivals import fit_rate_forecast
from repro.serve.obs import ServiceMonitor
from repro.serve.obs.trace import NullRecorder

GPU = "A100"
SEED = 2027

#: the compressed "day": one diurnal period, trace covers two of them.
PERIOD_S = 8e-3
HORIZON_S = 16e-3
#: daily-mean offered load relative to one device's batched GEMM capacity;
#: amplitude 1.0 makes the peak twice that and the night dead silent.
BASE_LOAD = 4.5
AMPLITUDE = 1.0

SLO_P99_S = 2e-3
#: admission deadline, tighter than the reported p99 target: the margin
#: the fixed fleet's peak queue must fit inside.
DEADLINE_S = 1.3e-3

POLICY = BatchingPolicy(max_batch=32, max_wait_s=0.5e-3)

#: seed fleet (and scale-down floor) of the elastic configurations.
SEED_WORKERS = 2
MAX_WORKERS = 10
#: modelled provisioning latency of a scaled-up worker.
STARTUP_S = 400e-6
#: autoscaler evaluation interval (the fourth event source's clock).
INTERVAL_S = 250e-6
#: monitor sampling cadence (the pure-read fifth event source's clock).
MONITOR_INTERVAL_S = 100e-6

#: reactive knobs: sustained-pressure threshold and trend lengths.
UP_PRESSURE_S = 0.15e-3
UP_TICKS = 2
DOWN_TICKS = 1
#: predictive knobs: provisioning window, keep-warm window, margin.
LEAD_S = 1.5e-3
HOLD_S = 5e-3
HEADROOM = 1.15

#: acceptance bars.
REACTIVE_MAX_SHED = 0.01
FIXED_MIN_SHED = 0.02

#: horizon of the small scenario pinned by the checked-in golden CSV (one
#: diurnal day) — the single source both the golden test and
#: scripts/check_golden.py read.
GOLDEN_HORIZON_S = 8e-3

COLUMNS = Columns(
    "config",
    ("offered", lambda r: r.n_offered),
    ("completed", lambda r: r.n_completed),
    ("shed (%)", lambda r: r.shed_rate * 100.0),
    ("p99 (ms)", lambda r: r.p99_latency_s * 1e3),
    ("device-ms", lambda r: r.device_seconds * 1e3),
    ("mean fleet", lambda r: r.mean_fleet_size),
    ("peak fleet", lambda r: r.peak_fleet_size),
    ("cold-start reqs", lambda r: r.cold_start_requests),
    ("ups", lambda r: r.n_scale_ups),
    ("downs", lambda r: r.n_scale_downs),
)

EVENTS = Columns(
    "policy",
    ("t (ms)", lambda e: e.t_s * 1e3),
    ("event", lambda e: e.kind),
    ("worker", lambda e: e.worker_index),
    ("accepting", lambda e: e.accepting),
    ("provisioned", lambda e: e.provisioned),
)


def _event_rows(label: str, report: ServiceReport) -> list[list[object]]:
    return EVENTS.table((label, e) for e in report.scale_events)[1]


SCENARIO = Scenario(
    "reactive",
    MONITOR_INTERVAL_S,
    lambda r: [COLUMNS.row("reactive", r), *_event_rows("reactive", r)],
)


def _workload():
    return lofar_workload(n_samples=2048)


@cache
def capacity_hz() -> float:
    """Requests/s one device sustains on full merged batches (GEMM-bound,
    the same accounting as the serve-priority bench). Cached: every
    scenario, replay, and golden run consults it."""
    return gemm_capacity_hz(_workload().kernel, GPU, POLICY.max_batch)


@cache
def forecast() -> RateForecast:
    """The diurnal profile: day starts at the trough (night)."""
    return RateForecast(
        base_rate_hz=BASE_LOAD * capacity_hz(),
        amplitude=AMPLITUDE,
        period_s=PERIOD_S,
        phase_s=0.75 * PERIOD_S,
    )


def _trace(horizon_s: float, seed: int):
    profile = forecast()
    return diurnal_arrivals(
        _workload(),
        profile.base_rate_hz,
        profile.amplitude,
        profile.period_s,
        horizon_s,
        seed=seed,
        phase_s=profile.phase_s,
    )


def _serve(
    horizon_s: float,
    seed: int,
    n_devices: int,
    policy=None,
    recorder: NullRecorder | None = None,
    monitor: ServiceMonitor | None = None,
) -> ServiceReport:
    """The trace on ``n_devices`` workers, elastic under ``policy`` if given."""
    autoscaler = None
    if policy is not None:
        autoscaler = Autoscaler(
            policy,
            device_factory=lambda: fleet(GPU)[0],
            interval_s=INTERVAL_S,
            max_workers=MAX_WORKERS,
            startup_s=STARTUP_S,
        )
    return BeamformingService(
        fleet(*[GPU] * n_devices),
        policy=POLICY,
        slo=SLO(p99_latency_s=SLO_P99_S, deadline_s=DEADLINE_S),
        autoscaler=autoscaler,
        recorder=recorder,
        monitor=monitor,
    ).run(_trace(horizon_s, seed))


def reactive_scenario(
    horizon_s: float = HORIZON_S,
    seed: int = SEED,
    recorder: NullRecorder | None = None,
    monitor: ServiceMonitor | None = None,
) -> ServiceReport:
    """The reactive run: queue pressure up, sustained idle down."""
    policy = ReactiveAutoscaler(
        up_pressure_s=UP_PRESSURE_S, up_ticks=UP_TICKS, down_ticks=DOWN_TICKS
    )
    return _serve(horizon_s, seed, SEED_WORKERS, policy, recorder, monitor)


@cache
def fitted_forecast(horizon_s: float = HORIZON_S, seed: int = SEED) -> RateForecast:
    """The forecast a live operator would have: fitted from observed traffic.

    Estimated from the trace's own arrival instants via
    :func:`~repro.serve.arrivals.fit_rate_forecast` — only the period is
    assumed known (the day length is scheduled; the profile is not). The
    profile is periodic, so fitting on the same window the run replays is
    the honest stand-in for "fit on yesterday, provision today".
    """
    trace = _trace(horizon_s, seed)
    return fit_rate_forecast([r.arrival_s for r in trace], PERIOD_S, horizon_s)


def predictive_scenario(
    horizon_s: float = HORIZON_S, seed: int = SEED, oracle: bool = False
) -> ServiceReport:
    """The predictive run: sized against the diurnal rate forecast.

    By default the policy consumes the *fitted* forecast (estimated from
    observed arrivals); ``oracle=True`` hands it the generator's true
    profile instead — the upper bound the regression test pins the fitted
    run against.
    """
    policy = PredictiveAutoscaler(
        forecast=forecast() if oracle else fitted_forecast(horizon_s, seed),
        capacity_hz=capacity_hz(),
        lead_s=LEAD_S,
        hold_s=HOLD_S,
        headroom=HEADROOM,
    )
    return _serve(horizon_s, seed, SEED_WORKERS, policy)


def fixed_scenario(n_devices: int, horizon_s: float = HORIZON_S, seed: int = SEED) -> ServiceReport:
    """The same trace on a fixed fleet of ``n_devices``."""
    return _serve(horizon_s, seed, n_devices)


def _arms(horizon_s: float) -> dict[str, Arm]:
    return {
        "reactive": partial(reactive_scenario, horizon_s),
        "predictive": partial(predictive_scenario, horizon_s),
    }


def _budget(reactive: ServiceReport) -> int:
    """The reactive autoscaler's device-second budget as whole fixed devices."""
    return max(1, int(reactive.mean_fleet_size))


def _fixed_arms(reactive: ServiceReport, horizon_s: float) -> dict[str, Arm]:
    """The budget's floor and its ceiling, spent as fixed fleets."""
    n = _budget(reactive)
    return {f"fixed-{m}": partial(fixed_scenario, m, horizon_s) for m in (n, n + 1)}


def golden_rows(horizon_s: float = GOLDEN_HORIZON_S) -> Table:
    """The scenario rows pinned by the checked-in golden CSV.

    One row per provisioning regime of the headline trace; every value is
    a deterministic function of the seed, so the rendered CSV must match
    the golden file byte for byte on any platform. Regenerate (and
    re-bless deliberately) via ``scripts/check_golden.py --bless``.
    """
    reports = SCENARIO.reports(_arms(horizon_s))
    reports |= SCENARIO.reports(_fixed_arms(reports["reactive"], horizon_s))
    return COLUMNS.table(reports.items())


def run(quick: bool = False) -> ExperimentResult:
    # The two-day trace is the experiment: quick mode keeps the full
    # horizon (a single day would have no second peak for the reactive
    # policy to pay its cold-start bill on) — the run is already small.
    served = SCENARIO.serve(_arms(HORIZON_S))
    reactive, predictive = served.headline, served.reports["predictive"]
    fixed = SCENARIO.reports(_fixed_arms(reactive, HORIZON_S))
    n_budget = _budget(reactive)
    fixed_floor, fixed_ceil = fixed.values()
    sections = [
        (
            "policies",
            f"Two compressed diurnal days on {GPU}s (peak "
            f"{BASE_LOAD * (1 + AMPLITUDE):.0f}x one device's batched "
            f"capacity, dead troughs): elastic vs fixed provisioning",
            COLUMNS.table((served.reports | fixed).items()),
        ),
        (
            "scale_events",
            "Every applied scale event, in time order",
            (
                EVENTS.headers,
                _event_rows("reactive", reactive) + _event_rows("predictive", predictive),
            ),
        ),
    ]
    budget_ratio = fixed_floor.device_seconds / reactive.device_seconds
    reactive_ok = (
        reactive.slo_attained
        and reactive.shed_rate <= REACTIVE_MAX_SHED
        and fixed_floor.shed_rate >= FIXED_MIN_SHED
    )
    # Predictive scaling acts ahead of the peak and pays fewer cold builds.
    first_reactive = min(e.t_s for e in reactive.scale_events)
    first_predictive = min(e.t_s for e in predictive.scale_events)
    predictive_ok = (
        first_predictive < first_reactive
        and predictive.cold_start_requests < reactive.cold_start_requests
        and predictive.shed_rate <= reactive.shed_rate
    )
    # Every scale-down is a non-destructive drain that reaches retirement.
    drains_ok = all(
        r.n_scale_downs == sum(1 for e in r.scale_events if e.kind == "retire")
        for r in (reactive, predictive)
    )
    # Burn-rate alerting sees the peak and resolves after a scale-up.
    fired = [a for a in reactive.alerts() if a.firing_s is not None]
    service_fired = [a for a in fired if a.scope == "service"]
    resolved = [a for a in service_fired if a.resolved_s is not None]
    scaled_into_resolution = any(
        any(e.kind == "up" and a.firing_s <= e.t_s <= a.resolved_s for e in reactive.scale_events)
        for a in resolved
    )
    alerts_ok = bool(service_fired) and bool(resolved) and scaled_into_resolution
    alerting = "burn-rate alerting: no service-scope alert fired at the diurnal peak (FAIL)"
    if service_fired:
        first = service_fired[0]
        alerting = (
            f"burn-rate alerting catches the diurnal peak: "
            f"{len(fired)} alert(s) fired "
            f"(service-scope [{first.aid}] at {first.firing_s * 1e3:.2f} ms, "
            f"peak burn {first.peak_burn:.0f}x the error budget) and "
            f"resolved after scale-up at "
            f"{(resolved[0].resolved_s if resolved else 0.0) * 1e3:.2f} ms "
            f"({verdict(alerts_ok)})"
        )
    findings = [
        f"reactive autoscaling holds p99 {reactive.p99_latency_s * 1e3:.2f} ms "
        f"<= {SLO_P99_S * 1e3:.0f} ms SLO with {reactive.shed_rate:.2%} shed; "
        f"the same device-second budget as a fixed fleet ({n_budget} whole "
        f"devices, {budget_ratio:.0%} of the autoscaler's device-seconds) "
        f"sheds {fixed_floor.shed_rate:.1%} at the diurnal peaks "
        f"({verdict(reactive_ok)})",
        f"buying out of the shedding with fixed capacity takes "
        f"{n_budget + 1} devices — "
        f"{fixed_ceil.device_seconds / reactive.device_seconds - 1:+.0%} "
        f"device-seconds over the reactive fleet for "
        f"{fixed_ceil.shed_rate:.1%} shed",
        f"predictive scaling acts {first_predictive * 1e3:.2f} ms into the "
        f"trace vs the reactive policy's {first_reactive * 1e3:.2f} ms and "
        f"affects {predictive.cold_start_requests} requests with cold plan "
        f"builds vs {reactive.cold_start_requests} reactive (forecast-window "
        f"hold rides out short troughs warm) "
        f"({verdict(predictive_ok)})",
        f"every scale-down drained to retirement "
        f"({reactive.n_scale_downs} reactive + {predictive.n_scale_downs} "
        f"predictive drains, none revoked in flight) "
        f"({verdict(drains_ok)})",
        alerting,
        f"fixed-seed replay reproduces every latency, fleet size, and scale "
        f"event bit-identically ({verdict(served.replay_identical)})",
    ]
    return experiment_result(
        "serve-autoscale",
        "Elastic fleets: reactive and predictive autoscaling vs fixed provisioning",
        served,
        sections,
        findings,
        dashboard_title="serve-autoscale: reactive policy, two compressed diurnal days",
    )
