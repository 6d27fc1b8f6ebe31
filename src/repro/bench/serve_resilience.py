"""Experiment: resilience — a crash + straggler storm, with and without recovery.

The paper benchmarks a healthy device; an always-on serving tier cannot
assume one. This experiment drives one fixed-seed Poisson trace (a fixed
four-A100 fleet at 70% of its batched GEMM capacity) through the same
seeded :func:`~repro.serve.faults.crash_storm` — one worker crash with a
cold replacement, plus two transient 4x straggler windows — under three
regimes:

* **fault-free** — no storm at all: the control arm, and the byte-identity
  witness (a service constructed with an *empty* fault plan must replay
  it bit-for-bit);
* **no-recovery** — the storm with
  :meth:`~repro.serve.faults.ResiliencePolicy.disabled`: whatever was in
  flight on the crashed worker is simply lost;
* **resilient** — the storm with the default
  :class:`~repro.serve.faults.ResiliencePolicy`: retries with
  deadline-aware re-placement, hedged dispatch against the stragglers,
  shard recovery, and plan re-warm on the replacement.

A fourth arm, **split-crash**, is the crash the storm cannot produce:
three oversized survey requests, each split across a four-GH200 fleet,
and one crash halfway through the first split under the default policy.
The dead worker's shards of the two running splits re-execute on the
survivors (shard recovery), and the third split, queued with its shards
committed to the dead worker, is removed from the queue and retried.

Checked claims, all deterministic:

* without recovery the crash costs admitted requests — availability lands
  below the 99.9% bar at the same device-second spend;
* the resilient arm recovers to >= 99.9% availability *and* holds the p99
  SLO through the storm, with the recovery bill (wasted device-seconds
  from hedge losers and burned crash work) reported, never hidden;
* recovery buys availability with work, not with capacity: the resilient
  arm's device-seconds stay within a few percent of the no-recovery arm's;
* a service handed an empty fault plan replays the fault-free arm
  byte-identically (the zero-overhead-when-disabled contract);
* a fixed-seed replay of the resilient arm reproduces every latency and
  recovery counter bit-for-bit;
* in the split-crash arm every survey completes: the crash costs shard
  recoveries and a retry of the stranded split, not a request.
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
    BatchingPolicy,
    BeamformingService,
    FaultEvent,
    FaultKind,
    FaultPlan,
    ResiliencePolicy,
    ServiceReport,
    crash_storm,
    poisson_arrivals,
)
from repro.serve.faults import SLOW_FACTOR
from repro.serve.workload import Request

GPU = "A100"
#: independent child streams: the trace and the storm must not be coupled.
TRACE_SEED = 11
STORM_SEED = 7

N_WORKERS = 4
HORIZON_S = 16e-3
#: offered load relative to the whole fleet's batched GEMM capacity —
#: high enough that a crash always finds batches in flight to kill.
LOAD = 0.7

SLO_P99_S = 3e-3
DEADLINE_S = 2e-3
POLICY = BatchingPolicy(max_batch=32, max_wait_s=0.5e-3)

#: storm shape: one crash (with a cold same-model replacement) and two
#: transient straggler windows on the survivors.
N_CRASHES = 1
N_SLOW_WINDOWS = 2
REPLACE_STARTUP_S = 400e-6

#: the split-crash arm: surveys too large for one device's memory, all
#: arriving at once, so each one splits across the whole fleet.
SPLIT_GPU = "GH200"
N_SPLIT_WORKERS = 4
N_SURVEYS = 3
SURVEY_CHANNELS = 350_000
SURVEY_SLO_P99_S = 0.2

#: monitor sampling cadence of the headline (resilient) run.
MONITOR_INTERVAL_S = 100e-6

#: acceptance bars.
AVAILABILITY_BAR = 0.999
#: device-second parity between the recovery arms (same fleet, same storm,
#: same horizon — recovery must not smuggle in extra capacity).
DEVICE_SECONDS_TOL = 0.03

#: horizon of the small scenario pinned by the checked-in golden CSV —
#: the single source both the golden test and scripts/check_golden.py read.
GOLDEN_HORIZON_S = 8e-3

COLUMNS = Columns(
    "config",
    ("offered", lambda r: r.n_offered),
    ("admitted", lambda r: r.n_admitted),
    ("completed", lambda r: r.n_completed),
    ("availability (%)", lambda r: r.availability * 100.0),
    ("p99 (ms)", lambda r: r.p99_latency_s * 1e3),
    ("shed (%)", lambda r: r.shed_rate * 100.0),
    ("device-ms", lambda r: r.device_seconds * 1e3),
    ("crashes", lambda r: r.n_crashes),
    ("retries", lambda r: r.n_retries),
    ("hedges", lambda r: r.n_hedges),
    ("hedge wins", lambda r: r.n_hedge_wins),
    ("shard recoveries", lambda r: r.n_shard_recoveries),
    ("wasted device-ms", lambda r: r.wasted_device_seconds * 1e3),
)

STORM = Columns(
    "t (ms)",
    ("kind", lambda e: e.kind.value),
    ("worker", lambda e: e.worker_index),
    ("factor", lambda e: e.factor),
    ("device", lambda e: e.device_name),
    ("startup (ms)", lambda e: e.startup_s * 1e3),
)

SCENARIO = Scenario("resilient", MONITOR_INTERVAL_S, lambda r: [COLUMNS.row("resilient", r)])


@cache
def capacity_hz() -> float:
    """Requests/s one device sustains on full merged batches (GEMM-bound,
    the same accounting as the serve-autoscale bench). Cached: a pure
    function of the catalog spec, consulted by every arm and replay."""
    return gemm_capacity_hz(lofar_workload(n_samples=2048).kernel, GPU, POLICY.max_batch)


def storm(horizon_s: float = HORIZON_S) -> FaultPlan:
    """The seeded storm every faulted arm replays (crash + replacement +
    straggler windows), deterministic for a fixed horizon."""
    return crash_storm(
        horizon_s,
        list(range(N_WORKERS)),
        n_crashes=N_CRASHES,
        n_slow_windows=N_SLOW_WINDOWS,
        replace_device=GPU,
        replace_startup_s=REPLACE_STARTUP_S,
        seed=STORM_SEED,
    )


def _serve(horizon_s: float, faults: FaultPlan | None = None, **options) -> ServiceReport:
    """The fixed-seed trace on the fixed fleet, under ``faults``."""
    rate = LOAD * N_WORKERS * capacity_hz()
    return BeamformingService(
        fleet(*[GPU] * N_WORKERS),
        policy=POLICY,
        slo=SLO(p99_latency_s=SLO_P99_S, deadline_s=DEADLINE_S),
        faults=faults,
        **options,
    ).run(poisson_arrivals(lofar_workload(n_samples=2048), rate, horizon_s, seed=TRACE_SEED))


def _survey(faults: FaultPlan | None = None) -> ServiceReport:
    """The surveys on the split fleet, under ``faults`` (default policy)."""
    survey = lofar_workload(n_samples=256, n_channels=SURVEY_CHANNELS)
    return BeamformingService(
        fleet(*[SPLIT_GPU] * N_SPLIT_WORKERS),
        policy=POLICY,
        slo=SLO(p99_latency_s=SURVEY_SLO_P99_S),
        faults=faults,
    ).run([Request(rid=i, workload=survey, arrival_s=0.0) for i in range(N_SURVEYS)])


@cache
def split_crash() -> FaultPlan:
    """One crash, of the first split's first shard worker, halfway through
    that split (timed on a fault-free run)."""
    first = _survey().executions[0]
    mid = (first.start_s + first.completion_s) / 2.0
    return FaultPlan(
        (FaultEvent(t_s=mid, kind=FaultKind.CRASH, worker_index=first.shards[0].worker_index),)
    )


def _arms(horizon_s: float) -> dict[str, Arm]:
    return {
        "fault-free": partial(_serve, horizon_s),
        "no-recovery": partial(
            _serve, horizon_s, storm(horizon_s), resilience=ResiliencePolicy.disabled()
        ),
        # The default recovery policy under the storm — the headline arm.
        "resilient": partial(_serve, horizon_s, storm(horizon_s), resilience=ResiliencePolicy()),
        "split-crash": lambda: _survey(split_crash()),
    }


def golden_rows(horizon_s: float = GOLDEN_HORIZON_S) -> Table:
    """The scenario rows pinned by the checked-in golden CSV.

    One row per arm of the storm scenario over one short horizon; every
    value is a deterministic function of the seeds, so the rendered CSV
    must match the golden file byte for byte on any platform. Regenerate
    (and re-bless deliberately) via ``scripts/check_golden.py --bless``.
    """
    return COLUMNS.table(SCENARIO.reports(_arms(horizon_s)).items())


def run(quick: bool = False) -> ExperimentResult:
    # The storm is the experiment: quick mode keeps the full horizon (the
    # run is already small, and a shorter one would under-sample the
    # straggler windows the hedging claim needs).
    served = SCENARIO.serve(_arms(HORIZON_S))
    fault_free, no_recovery = served.reports["fault-free"], served.reports["no-recovery"]
    split = served.reports["split-crash"]
    resilient = served.headline
    # A service handed an empty fault plan must replay the fault-free arm.
    empty_plan = _serve(HORIZON_S, FaultPlan())
    sections = [
        (
            "arms",
            f"One crash (+cold replacement) and {N_SLOW_WINDOWS} transient "
            f"{SLOW_FACTOR:.0f}x straggler windows on {N_WORKERS} {GPU}s at "
            f"{LOAD:.0%} fleet load: recovery on vs off; then one crash mid-split "
            f"of {N_SURVEYS} surveys on {N_SPLIT_WORKERS} {SPLIT_GPU}s",
            COLUMNS.table(served.reports.items()),
        ),
        (
            "storm",
            "The injected storm, in time order",
            STORM.table((e.t_s * 1e3, e) for e in storm(HORIZON_S).events),
        ),
    ]
    availability_ok = (
        no_recovery.n_failed > 0
        and no_recovery.availability < AVAILABILITY_BAR
        and resilient.availability >= AVAILABILITY_BAR
    )
    slo_ok = resilient.p99_latency_s <= SLO_P99_S and resilient.shed_rate == 0.0
    parity = resilient.device_seconds / no_recovery.device_seconds
    split_ok = (
        split.n_completed == split.n_offered == N_SURVEYS
        and split.n_shard_recoveries > 0
        and split.n_retries > 0
    )
    identical = (
        empty_plan.latencies_s == fault_free.latencies_s
        and empty_plan.summary() == fault_free.summary()
        and COLUMNS.row("fault-free", empty_plan) == COLUMNS.row("fault-free", fault_free)
    )
    findings = [
        f"without recovery the crash loses {no_recovery.n_failed} admitted "
        f"requests ({no_recovery.availability:.3%} available, below the "
        f"{AVAILABILITY_BAR:.1%} bar); the default policy recovers to "
        f"{resilient.availability:.3%} with {resilient.n_retries} retries, "
        f"{resilient.n_hedges} hedges ({resilient.n_hedge_wins} won) "
        f"({verdict(availability_ok)})",
        f"the resilient arm holds p99 {resilient.p99_latency_s * 1e3:.3f} ms "
        f"<= {SLO_P99_S * 1e3:.0f} ms through the storm with "
        f"{resilient.shed_rate:.2%} shed ({verdict(slo_ok)})",
        f"recovery buys availability with work, not capacity: "
        f"{parity:.1%} of the no-recovery arm's device-seconds, with the "
        f"bill reported as {resilient.wasted_device_seconds * 1e3:.3f} wasted "
        f"device-ms (hedge losers + burned crash work) "
        f"({verdict(abs(parity - 1.0) <= DEVICE_SECONDS_TOL)})",
        f"a service handed an empty fault plan replays the fault-free arm "
        f"byte-identically ({verdict(identical)})",
        f"fixed-seed replay reproduces every latency and recovery counter "
        f"bit-identically ({verdict(served.replay_identical)})",
        f"a crash halfway through the first of {N_SURVEYS} survey splits on "
        f"{N_SPLIT_WORKERS} {SPLIT_GPU}s costs no request: "
        f"{split.n_shard_recoveries} lost shards re-run on survivors and "
        f"{split.n_retries} stranded queued split is retried, so "
        f"{split.n_completed} of {split.n_offered} complete, with "
        f"{split.wasted_device_seconds * 1e3:.1f} wasted device-ms "
        f"({verdict(split_ok)})",
    ]
    return experiment_result(
        "serve-resilience",
        "Resilient serving: crash storms, stragglers, and recovery",
        served,
        sections,
        findings,
        dashboard_title=f"serve-resilience: default recovery policy under the {GPU} storm",
    )
