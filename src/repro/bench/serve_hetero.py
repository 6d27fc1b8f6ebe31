"""Experiment: cost-model-driven placement on a heterogeneous fleet.

The paper's core argument is that throughput is won by matching the
workload to the hardware: precision support, tensor-core peaks, and
transpose/pack overheads all differ per device (Tables I/III). This
experiment puts the serving tier's placement layer
(:mod:`repro.serve.placement`) on a mixed **GH200 + MI300X** fleet and
checks the three placement decisions end to end, deterministically:

* **capability routing** — int1 ultrasound requests (NVIDIA-only 1-bit
  MMA, paper §II) must *never* land on the MI300X, while float16 LOFAR
  work backfills it; on an AMD-only fleet the same int1 traffic is shed at
  the front door instead of queued hopelessly;
* **shape buckets** — LOFAR dumps of five nearby sample counts, offered at
  the same load, once with exact-shape batching and once padded into one
  2048-sample bucket: the bucketed run must raise goodput, and the padded
  FLOPs it paid are reported (the cost model prices the padding — the
  plans are built at the bucket shape);
* **in-service sharding** — a survey request whose operands exceed *any*
  single device's memory is split across the fleet (memory-proportional
  extents via :func:`~repro.serve.placement.split_extent_weighted`) and
  served, with per-shard utilization reported, instead of being shed;
* **determinism** — a fixed-seed replay of the headline run reproduces
  every number bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from repro.apps.radioastronomy.beamformer import service_workload as lofar_workload
from repro.apps.ultrasound.imaging import service_workload as ultrasound_workload
from repro.bench.report import ExperimentResult
from repro.bench.scenario import (
    Arm,
    Columns,
    Scenario,
    Table,
    block_capacity_hz,
    experiment_result,
    fleet,
    verdict,
)
from repro.serve import (
    SLO,
    BatchingPolicy,
    BeamformingService,
    Request,
    ServiceMonitor,
    ServiceReport,
    merge_arrivals,
    poisson_arrivals,
)
from repro.serve.obs.trace import NullRecorder

SEED = 2026
SLO_P99_S = 5e-3

#: the mixed fleet: one NVIDIA Grace Hopper, one AMD MI300X.
FLEET = ("GH200", "MI300X")

#: int1 live imaging offered rate (req/s).
INT1_RATE_HZ = 24_000.0
#: float16 LOFAR offered load relative to the GH200's *own* batched
#: capacity — above 1.0 the MI300X must absorb the spill.
FLOAT16_OVERLOAD = 1.8

#: nearby LOFAR dump lengths sharing one 2048-sample bucket.
NEARBY_SAMPLES = (1792, 1856, 1920, 1984, 2048)
BUCKET_EDGES = (2048,)
#: bucket-scenario offered load relative to the GH200's batched capacity —
#: high enough that exact-shape batching's five shallow groups hurt its
#: tail, low enough that neither configuration sheds.
BUCKET_OVERLOAD = 2.5

#: the oversized survey request: channels x pols far beyond any single
#: device's memory (~229 GB of operands at float16).
SURVEY_CHANNELS = 350_000

BATCH_POLICY = BatchingPolicy(max_batch=32, max_wait_s=1e-3)
INTERACTIVE_POLICY = BatchingPolicy(max_batch=4, max_wait_s=50e-6)

#: monitoring cadence of the headline run (~80 samples per quick run).
MONITOR_INTERVAL_S = 50e-6

#: horizon of the small scenario pinned by the checked-in golden CSV.
GOLDEN_HORIZON_S = 0.004

BUCKETED = f"buckets {BUCKET_EDGES}"

COLUMNS = Columns(
    "config",
    ("offered", lambda r: r.n_offered),
    ("completed", lambda r: r.n_completed),
    ("goodput (req/s)", lambda r: round(r.goodput_rps)),
    ("p99 (ms)", lambda r: r.p99_latency_s * 1e3),
    ("shed (%)", lambda r: r.shed_rate * 100.0),
    ("launches", lambda r: r.n_batches),
    ("padded ops (%)", lambda r: r.padded_ops_fraction * 100.0),
)


def _precision_by_device(report: ServiceReport) -> Counter[tuple[str, str]]:
    """Launch counts per (device, precision), shard placements included."""
    return Counter(
        (part.device_name, execution.batch.workload.precision.value)
        for execution in report.executions
        for part in (execution.shards if execution.is_split else [execution])
    )


def _placement_rows(report: ServiceReport) -> list[list[object]]:
    return [[dev, prec, n] for (dev, prec), n in sorted(_precision_by_device(report).items())]


def _worker_rows(report: ServiceReport) -> list[list[object]]:
    return [
        [w["device"], w["batches"], w["requests"], w["utilization"] * 100.0]
        for w in report.by_worker()
    ]


SCENARIO = Scenario("mixed", MONITOR_INTERVAL_S, lambda r: _placement_rows(r) + _worker_rows(r))


def _capacity_hz(workload) -> float:
    """Requests/s the GH200 sustains on full merged batches of this class."""
    return block_capacity_hz(workload.kernel, "GH200", BATCH_POLICY.max_batch)


def mixed_scenario(
    horizon_s: float,
    seed: int = SEED,
    recorder: NullRecorder | None = None,
    monitor: ServiceMonitor | None = None,
) -> ServiceReport:
    """int1 imaging + float16 LOFAR on the mixed fleet (the headline run)."""
    imaging = ultrasound_workload(n_voxels=4096, k=1024, n_frames=64)
    beams = lofar_workload(n_samples=2048)
    rate = FLOAT16_OVERLOAD * _capacity_hz(beams)
    trace = merge_arrivals(
        poisson_arrivals(imaging, INT1_RATE_HZ, horizon_s, seed=seed),
        poisson_arrivals(beams, rate, horizon_s, seed=seed + 1),
    )
    return BeamformingService(
        fleet(*FLEET),
        policy=BATCH_POLICY,
        class_policies={0: INTERACTIVE_POLICY},
        slo=SLO(p99_latency_s=SLO_P99_S),
        recorder=recorder,
        monitor=monitor,
    ).run(trace)


def amd_only_scenario(horizon_s: float, seed: int = SEED) -> ServiceReport:
    """The same int1 traffic against an MI300X-only fleet: front-door shed."""
    imaging = ultrasound_workload(n_voxels=4096, k=1024, n_frames=64)
    return BeamformingService(
        fleet("MI300X"),
        policy=BATCH_POLICY,
        class_policies={0: INTERACTIVE_POLICY},
        slo=SLO(p99_latency_s=SLO_P99_S),
    ).run(poisson_arrivals(imaging, INT1_RATE_HZ, horizon_s, seed=seed))


def bucket_scenario(horizon_s: float, bucketed: bool, seed: int = SEED) -> ServiceReport:
    """Five nearby LOFAR shapes, exact-shape vs one-bucket batching."""
    policy = BatchingPolicy(
        max_batch=BATCH_POLICY.max_batch,
        max_wait_s=BATCH_POLICY.max_wait_s,
        sample_buckets=BUCKET_EDGES if bucketed else (),
    )
    reference = lofar_workload(n_samples=max(NEARBY_SAMPLES))
    per_shape_rate = BUCKET_OVERLOAD * _capacity_hz(reference) / len(NEARBY_SAMPLES)
    streams = [
        poisson_arrivals(lofar_workload(n_samples=n), per_shape_rate, horizon_s, seed=seed + i)
        for i, n in enumerate(NEARBY_SAMPLES)
    ]
    trace = merge_arrivals(*streams)
    service = BeamformingService(fleet(*FLEET), policy=policy, slo=SLO(p99_latency_s=SLO_P99_S))
    return service.run(trace)


def split_scenario(horizon_s: float, seed: int = SEED) -> ServiceReport:
    """A survey request bigger than any device, over background traffic.

    The survey job is offline work (minutes-scale SLO); the point is that
    it is *served* — sharded across the fleet in proportion to device
    memory — rather than shed for not fitting anywhere.
    """
    survey = lofar_workload(n_samples=256, n_channels=SURVEY_CHANNELS)
    background = lofar_workload(n_samples=256)
    rate = 0.5 * _capacity_hz(background)
    trace = merge_arrivals(
        poisson_arrivals(background, rate, horizon_s, seed=seed),
        [Request(rid=0, workload=survey, arrival_s=horizon_s / 2.0)],
    )
    service = BeamformingService(fleet(*FLEET), policy=BATCH_POLICY, slo=SLO(p99_latency_s=120.0))
    return service.run(trace)


def _arms(horizon_s: float) -> dict[str, Arm]:
    return {
        "mixed": partial(mixed_scenario, horizon_s),
        "amd-only": partial(amd_only_scenario, horizon_s),
        "exact-shape": partial(bucket_scenario, horizon_s, False),
        BUCKETED: partial(bucket_scenario, horizon_s, True),
        "split": partial(split_scenario, horizon_s),
    }


def golden_rows(horizon_s: float = GOLDEN_HORIZON_S) -> Table:
    """The scenario rows pinned by the checked-in golden CSV.

    One row per arm over one short horizon, in the bucket table's columns;
    every value is a deterministic function of the seed, so the rendered
    CSV must match the golden file byte for byte on any platform.
    """
    return COLUMNS.table(SCENARIO.reports(_arms(horizon_s)).items())


def run(quick: bool = False) -> ExperimentResult:
    horizon_s = 0.004 if quick else 0.01
    served = SCENARIO.serve(_arms(horizon_s))
    mixed, amd_only, split = served.headline, served.reports["amd-only"], served.reports["split"]
    exact, bucketed = served.reports["exact-shape"], served.reports[BUCKETED]

    by_dev = _precision_by_device(mixed)
    int1_on_amd = sum(n for (dev, prec), n in by_dev.items() if prec == "int1" and dev != "GH200")
    int1_on_gh200 = by_dev.get(("GH200", "int1"), 0)
    float16_on_amd = by_dev.get(("MI300X", "float16"), 0)
    goodput_gain = bucketed.goodput_rps / exact.goodput_rps if exact.goodput_rps > 0 else 0.0

    split_execs = [e for e in split.executions if e.is_split]
    shard_rows = [
        [shard.device_name, extent, shard.gemm_s * 1e3, shard.gemm_s / e.service_s * 100.0]
        for e in split_execs
        for shard, extent in zip(e.shards, e.batch.decision.shard_extents)
    ]
    survey_outcome = next(
        o for o in split.outcomes if o.request.workload.batch_per_request == SURVEY_CHANNELS
    )
    served_survey = survey_outcome.completion_s is not None
    shard_devices = {s.device_name for s in split_execs[0].shards} if split_execs else set()

    sections = [
        (
            "placement",
            "Launch placement on the GH200 + MI300X fleet (int1 imaging + float16 LOFAR)",
            (["device", "precision", "launches"], _placement_rows(mixed)),
        ),
        (
            "workers",
            "Per-worker totals of the same run",
            (["device", "launches", "requests", "utilization (%)"], _worker_rows(mixed)),
        ),
        (
            "buckets",
            f"Shape-bucket pad-and-merge vs exact-shape batching "
            f"(LOFAR dumps of {NEARBY_SAMPLES} samples, same offered load)",
            COLUMNS.table([("exact-shape", exact), (BUCKETED, bucketed)]),
        ),
        (
            "shards",
            f"In-service sharding of a {SURVEY_CHANNELS:,}-channel survey "
            "request (memory-proportional extents)",
            (["device", "channels", "gemm (ms)", "shard utilization (%)"], shard_rows),
        ),
    ]
    findings = [
        f"capability routing: {int1_on_gh200} int1 launches, "
        f"{int1_on_amd} of them on the MI300X "
        f"({verdict(int1_on_amd == 0 and int1_on_gh200 > 0)}: "
        "1-bit MMA is NVIDIA-only)",
        f"heterogeneous backfill: the MI300X served {float16_on_amd} float16 "
        f"launches the GH200 alone could not absorb "
        f"({verdict(float16_on_amd > 0)})",
        f"AMD-only fleet: {amd_only.shed_rate:.1%} of int1 requests shed at "
        f"admission with {amd_only.n_batches} launches attempted "
        f"({verdict(amd_only.shed_rate == 1.0 and amd_only.n_batches == 0)})",
        f"shape buckets raise goodput {goodput_gain:.2f}x at the same offered "
        f"load, paying {bucketed.padded_ops_fraction:.1%} padded FLOPs over "
        f"{bucketed.n_batches} launches (vs {exact.n_batches} exact-shape) "
        f"({verdict(goodput_gain > 1.0)})",
        f"oversized survey request ({SURVEY_CHANNELS:,} channels, ~229 GB of "
        f"operands) served via in-service sharding across "
        f"{sorted(shard_devices)} instead of being shed "
        f"({verdict(served_survey and shard_devices == set(FLEET))})",
        f"fixed-seed replay reproduces every latency, launch count, and "
        f"placement decision bit-identically ({verdict(served.replay_identical)})",
    ]
    return experiment_result(
        "serve-hetero",
        "Heterogeneous fleets: capability routing, shape buckets, in-service sharding",
        served,
        sections,
        findings,
        dashboard_title="serve-hetero: int1 imaging + float16 LOFAR on GH200 + MI300X",
    )
