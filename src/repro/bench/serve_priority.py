"""Experiment: priority classes and weighted-fair multi-tenancy under overload.

The paper frames the Tensor-Core Beamformer as one library serving several
disciplines at once. This experiment puts that framing under stress on a
single A100: a latency-critical ultrasound live view (priority 0, tenant
"clinic") shares the device with an offline pulsar-reprocessing campaign
run by two tenants ("pulsar-a" at weight 3, "pulsar-b" at weight 1,
priority 1) whose combined offered load is **5x the device's batched
capacity**. The serving tier must degrade *by policy*, not by collapse:

* **isolation** — the interactive class holds its p99 SLO through the
  overload (queued batch work is preempted non-destructively; in-flight
  launches are merely waited out);
* **shedding** — admission control sheds strictly from the lowest
  priority class (>= 90% of all shed requests, in practice all of them);
* **fairness** — inside the batch class, deficit-round-robin dispatch
  serves the 3:1-weighted tenants within 10% of the 3:1 ratio while both
  are backlogged;
* **determinism** — an identical fixed-seed rerun reproduces every
  reported number bit-for-bit.
"""

from __future__ import annotations

from functools import partial

from repro.apps.radioastronomy.beamformer import service_workload as lofar_workload
from repro.apps.ultrasound.imaging import service_workload as ultrasound_workload
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
    ClassStats,
    Request,
    ServiceMonitor,
    ServiceReport,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serve.obs.trace import NullRecorder

GPU = "A100"
SLO_P99_S = 5e-3
SEED = 2025

#: batch-class offered load relative to the device's *batched* capacity.
OVERLOAD_FACTOR = 5.0
#: interactive offered rate (req/s): a busy clinic, ~13% of the device.
INTERACTIVE_RATE_HZ = 24_000.0
#: DRR weights of the two reprocessing campaigns sharing the batch class.
TENANT_WEIGHTS = {"pulsar-a": 3.0, "pulsar-b": 1.0}

#: acceptance bars.
REQUIRED_SHED_SHARE = 0.90
FAIRNESS_TARGET = 3.0
FAIRNESS_TOLERANCE = 0.10

#: batching knobs per priority class: tight wait for the live view, deep
#: batches for throughput work.
INTERACTIVE_POLICY = BatchingPolicy(max_batch=4, max_wait_s=50e-6)
BATCH_POLICY = BatchingPolicy(max_batch=32, max_wait_s=1e-3)

#: monitoring cadence of the headline run (~80 samples per quick run).
MONITOR_INTERVAL_S = 50e-6

#: horizon of the small scenario pinned by the checked-in golden CSV.
GOLDEN_HORIZON_S = 0.004

SLICES = Columns(
    "slice",
    ("offered", lambda s: s.n_offered),
    ("completed", lambda s: s.n_completed),
    ("shed", lambda s: s.n_shed),
    ("shed rate (%)", lambda s: s.shed_rate * 100.0),
    ("shed share (%)", lambda s: s.shed_share * 100.0),
    ("p50 (ms)", lambda s: s.p50_latency_s * 1e3),
    ("p99 (ms)", lambda s: s.p99_latency_s * 1e3),
    ("thr (req/s)", lambda s: round(s.throughput_rps)),
)


def _overall(report: ServiceReport) -> ClassStats:
    """The whole run as one slice: it owns every shed request."""
    return ClassStats(
        "overall",
        n_offered=report.n_offered,
        n_admitted=report.n_admitted,
        n_completed=report.n_completed,
        p50_latency_s=report.p50_latency_s,
        p99_latency_s=report.p99_latency_s,
        throughput_rps=report.throughput_rps,
        shed_share=1.0 if report.n_offered > report.n_admitted else 0.0,
    )


def _slice_table(*slices: ClassStats) -> Table:
    return SLICES.table((s.label, s) for s in slices)


def _slice_rows(report: ServiceReport) -> list[list[object]]:
    """Per-class, per-tenant, and overall rows of one run."""
    return _slice_table(*report.by_priority(), *report.by_tenant(), _overall(report))[1]


SCENARIO = Scenario("overload", MONITOR_INTERVAL_S, _slice_rows)


def _workloads():
    interactive = ultrasound_workload(n_voxels=4096, k=1024, n_frames=64)
    pulsar_a = lofar_workload(n_samples=2048, tenant="pulsar-a")
    pulsar_b = lofar_workload(n_samples=2048, tenant="pulsar-b")
    return interactive, pulsar_a, pulsar_b


def _batched_capacity_hz(workload) -> float:
    """Requests/s one device sustains on full merged batches of this class."""
    return gemm_capacity_hz(workload.kernel, GPU, BATCH_POLICY.max_batch)


def _serve(
    trace: list[Request],
    slo_s: float = SLO_P99_S,
    recorder: NullRecorder | None = None,
    monitor: ServiceMonitor | None = None,
) -> ServiceReport:
    return BeamformingService(
        fleet(GPU),
        policy=BATCH_POLICY,
        class_policies={0: INTERACTIVE_POLICY},
        slo=SLO(p99_latency_s=slo_s),
        tenant_weights=TENANT_WEIGHTS,
        recorder=recorder,
        monitor=monitor,
    ).run(trace)


def overload_scenario(
    horizon_s: float,
    seed: int = SEED,
    recorder: NullRecorder | None = None,
    monitor: ServiceMonitor | None = None,
) -> ServiceReport:
    """The headline run: clinic + two pulsar campaigns at 5x overload."""
    interactive, pulsar_a, pulsar_b = _workloads()
    batch_rate = OVERLOAD_FACTOR / 2.0 * _batched_capacity_hz(pulsar_a)
    trace = merge_arrivals(
        poisson_arrivals(interactive, INTERACTIVE_RATE_HZ, horizon_s, seed=seed),
        poisson_arrivals(pulsar_a, batch_rate, horizon_s, seed=seed + 1),
        poisson_arrivals(pulsar_b, batch_rate, horizon_s, seed=seed + 2),
    )
    return _serve(trace, recorder=recorder, monitor=monitor)


def fairness_scenario(horizon_s: float, seed: int = SEED) -> ServiceReport:
    """Two 3:1-weighted tenants saturating the batch class, no shedding."""
    _, pulsar_a, pulsar_b = _workloads()
    rate = _batched_capacity_hz(pulsar_a)
    trace = merge_arrivals(
        poisson_arrivals(pulsar_a, rate, horizon_s, seed=seed + 3),
        poisson_arrivals(pulsar_b, rate, horizon_s, seed=seed + 4),
    )
    # An SLO far beyond the drain time disables shedding: fairness is a
    # scheduler property and must be measured without admission bias.
    return _serve(trace, slo_s=10.0)


def _arms(horizon_s: float) -> dict[str, Arm]:
    return {
        "overload": partial(overload_scenario, horizon_s),
        "fairness": partial(fairness_scenario, horizon_s),
    }


def golden_rows(horizon_s: float = GOLDEN_HORIZON_S) -> Table:
    """The small fixed scenario pinned by the checked-in golden CSV.

    Per-class and per-tenant report rows of a short overload run; every
    value is a deterministic function of the seed, so the rendered CSV must
    match the golden file byte for byte on any platform.
    """
    return SLICES.headers, _slice_rows(_arms(horizon_s)["overload"]())


def run(quick: bool = False) -> ExperimentResult:
    horizon_s = 0.004 if quick else 0.01
    served = SCENARIO.serve(_arms(horizon_s))
    report = served.headline
    classes = report.by_priority()
    interactive = classes[0]
    assert interactive.label == "priority=0"
    shed_share = report.shed_share(1)

    # Requests dispatched per tenant while both were backlogged: executions
    # started inside the arrival window.
    served_by = {tenant: 0 for tenant in TENANT_WEIGHTS}
    for execution in served.reports["fairness"].executions:
        if execution.start_s <= horizon_s:
            served_by[execution.batch.tenant] += execution.batch.n_requests
    ratio = served_by["pulsar-a"] / served_by["pulsar-b"] if served_by["pulsar-b"] else 0.0
    fair = abs(ratio - FAIRNESS_TARGET) <= FAIRNESS_TARGET * FAIRNESS_TOLERANCE
    fairness_rows = [[tenant, TENANT_WEIGHTS[tenant], served_by[tenant]] for tenant in served_by]
    sections = [
        (
            "classes",
            f"Priority classes on one {GPU}: live ultrasound (priority 0) vs "
            f"pulsar reprocessing (priority 1) at "
            f"{OVERLOAD_FACTOR:.0f}x batched capacity",
            _slice_table(*classes),
        ),
        ("tenants", "The same run, by tenant", _slice_table(*report.by_tenant())),
        (
            "fairness",
            "Deficit-round-robin service while both tenants are backlogged",
            (["tenant", "weight", "requests served"], fairness_rows),
        ),
    ]
    findings = [
        f"interactive class p99 {interactive.p99_latency_s * 1e3:.2f} ms holds the "
        f"{SLO_P99_S * 1e3:.0f} ms SLO under {OVERLOAD_FACTOR:.0f}x overload with "
        f"{interactive.shed_rate:.1%} of it shed "
        f"({verdict(interactive.p99_latency_s <= SLO_P99_S)})",
        f"{shed_share:.1%} of all shed requests came from the lowest priority "
        f"class ({verdict(shed_share >= REQUIRED_SHED_SHARE)}: "
        f"bar {REQUIRED_SHED_SHARE:.0%}); overall shed rate {report.shed_rate:.1%}",
        f"3:1-weighted tenants served at {ratio:.2f}:1 "
        f"({verdict(fair)}: within "
        f"{FAIRNESS_TOLERANCE:.0%} of {FAIRNESS_TARGET:.0f}:1)",
        f"fixed-seed replay reproduces every class/tenant row and all "
        f"latencies bit-identically ({verdict(served.replay_identical)})",
    ]
    return experiment_result(
        "serve-priority",
        "Multi-tenant serving: priority classes + weighted-fair queueing",
        served,
        sections,
        findings,
        dashboard_title=f"serve-priority: clinic vs pulsar campaigns on one {GPU}",
    )
