"""Experiment: the serving tier under load (beyond-paper scenario axis).

The paper measures the beamformer as a library — one caller, saturating
batches. The roadmap's production scenario is the opposite: many callers,
each bringing a request far too small to fill a tensor-core GPU. This
experiment quantifies what the :mod:`repro.serve` tier buys back:

* **headline** — naive per-request execution vs dynamic micro-batching on
  one A100 under the same Poisson overload (5x the naive single-device
  capacity, self-calibrated from the cost model): micro-batching must
  sustain >= 3x the naive throughput with p99 inside the SLO;
* **policies** — the max-batch x fleet-size knob grid;
* **traffic** — Poisson / bursty / diurnal shapes through the batched
  configuration (admission control keeps the tail bounded by shedding);
* **ultrasound** — the same story on low-latency 2-D live-view frame
  requests (big requests batch less: the win shifts to the plan cache);
* **determinism** — two identical runs must agree bit-for-bit.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from functools import partial

from repro.apps.radioastronomy.beamformer import service_workload as lofar_workload
from repro.apps.ultrasound.imaging import service_workload as ultrasound_workload
from repro.bench.report import ExperimentResult
from repro.bench.scenario import (
    Arm,
    Columns,
    Scenario,
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
    TraceRecorder,
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    render_dashboard,
    render_trace,
)
from repro.serve.obs.trace import NullRecorder
from repro.util.formatting import ascii_scatter

#: serving GPU and SLO of every scenario in this experiment.
GPU = "A100"
SLO_P99_S = 5e-3
MAX_WAIT_S = 200e-6
SEED = 2025

#: offered load relative to the naive single-device capacity (1 / t_request).
OVERLOAD_FACTOR = 5.0

#: the acceptance bar: batched throughput over naive throughput.
REQUIRED_SPEEDUP = 3.0

#: monitoring cadence of the headline run (~120 samples per quick run).
MONITOR_INTERVAL_S = 100e-6

#: horizon of the small traced run pinned by the checked-in golden trace.
#: Short on purpose — a few hundred requests already exercise every event
#: type while keeping the checked-in JSON reviewable.
GOLDEN_HORIZON_S = 0.001

HEADLINE = "batched (max_batch=32)"

COLUMNS = Columns(
    "config",
    ("offered", lambda r: r.n_offered),
    ("thr (req/s)", lambda r: round(r.throughput_rps)),
    ("p50 (ms)", lambda r: r.p50_latency_s * 1e3),
    ("p99 (ms)", lambda r: r.p99_latency_s * 1e3),
    ("shed (%)", lambda r: r.shed_rate * 100.0),
    ("batch", lambda r: r.mean_batch_size),
    ("cache hit (%)", lambda r: r.cache_hit_rate * 100.0),
    ("util[0] (%)", lambda r: r.utilizations[0] * 100.0),
)

SCENARIO = Scenario(HEADLINE, MONITOR_INTERVAL_S, lambda r: [COLUMNS.row(HEADLINE, r)])


def _rate_hz(workload) -> float:
    """Self-calibrated overload: OVERLOAD_FACTOR x naive device capacity."""
    return block_capacity_hz(workload.kernel, GPU, 1, load=OVERLOAD_FACTOR)


def _simulate(
    arrivals: Callable[[], list[Request]],
    max_batch: int,
    n_devices: int = 1,
    recorder: NullRecorder | None = None,
    monitor: ServiceMonitor | None = None,
) -> ServiceReport:
    return BeamformingService(
        fleet(*[GPU] * n_devices),
        policy=BatchingPolicy(max_batch=max_batch, max_wait_s=MAX_WAIT_S),
        slo=SLO(p99_latency_s=SLO_P99_S),
        recorder=recorder,
        monitor=monitor,
    ).run(arrivals())


def _arms(horizon_s: float, sweep: tuple[int, ...] = (1, 4, 32)) -> dict[str, Arm]:
    beams = lofar_workload()
    rate_hz = _rate_hz(beams)
    poisson = partial(poisson_arrivals, beams, rate_hz, horizon_s, seed=SEED)
    bursty = partial(
        bursty_arrivals,
        beams,
        rate_on_hz=rate_hz,
        rate_off_hz=rate_hz / 20.0,
        mean_on_s=horizon_s / 6.0,
        mean_off_s=horizon_s / 6.0,
        horizon_s=horizon_s,
        seed=SEED,
    )
    diurnal = partial(
        diurnal_arrivals,
        beams,
        base_rate_hz=rate_hz * 0.6,
        amplitude=0.8,
        period_s=horizon_s / 2.0,
        horizon_s=horizon_s,
        seed=SEED,
    )
    frames = ultrasound_workload(n_voxels=4096, k=1024, n_frames=64)
    live = partial(poisson_arrivals, frames, _rate_hz(frames), horizon_s, seed=SEED + 1)
    grid = {
        f"batch<={b} x {n} dev": partial(_simulate, poisson, b, n) for n in (1, 2) for b in sweep
    }
    return {
        "naive (max_batch=1)": partial(_simulate, poisson, 1),
        HEADLINE: partial(_simulate, poisson, 32),
        **grid,
        "poisson": partial(_simulate, poisson, 32),
        "bursty": partial(_simulate, bursty, 32),
        "diurnal": partial(_simulate, diurnal, 32),
        "naive": partial(_simulate, live, 1),
        "batched (max_batch=8)": partial(_simulate, live, 8),
    }


def golden_trace(horizon_s: float = GOLDEN_HORIZON_S) -> str:
    """The rendered Perfetto JSON pinned by the checked-in golden trace.

    Traces the headline batched configuration over a short fixed-seed
    Poisson overload. Timestamps come from the simulation clock and the
    rendering sorts keys with fixed separators, so the returned text must
    match the golden file byte for byte on any platform.
    """
    recorder = TraceRecorder()
    _arms(horizon_s)[HEADLINE](recorder=recorder)
    return render_trace(recorder) + "\n"


def golden_dashboard(horizon_s: float = GOLDEN_HORIZON_S) -> str:
    """The rendered dashboard HTML pinned by the checked-in golden digest.

    Monitors the same short headline configuration as :func:`golden_trace`.
    Sampling, alert evaluation, and HTML rendering are all deterministic
    functions of the simulation clock, so the page must hash identically
    on any platform; ``scripts/check_golden.py`` gates the digest.
    """
    report = _arms(horizon_s)[HEADLINE](monitor=ServiceMonitor(interval_s=MONITOR_INTERVAL_S))
    return render_dashboard(report, title=f"serve (golden): batched LOFAR overload on one {GPU}")


def golden_dashboard_digest(horizon_s: float = GOLDEN_HORIZON_S) -> str:
    """sha256 hex digest of :func:`golden_dashboard`, plus a trailing newline."""
    return hashlib.sha256(golden_dashboard(horizon_s).encode("utf-8")).hexdigest() + "\n"


def run(quick: bool = False) -> ExperimentResult:
    horizon_s = 0.012 if quick else 0.03
    sweep = (1, 4, 32) if quick else (1, 4, 16, 32)
    served = SCENARIO.serve(_arms(horizon_s, sweep))
    reports = served.reports
    naive, batched = reports["naive (max_batch=1)"], served.headline

    def table(*labels: str):
        return COLUMNS.table((label, reports[label]) for label in labels)

    speedup = batched.throughput_rps / naive.throughput_rps
    one_device = [reports[f"batch<={b} x 1 dev"].throughput_rps for b in sweep]
    fleet_scaling = round(reports["batch<=1 x 2 dev"].throughput_rps) / naive.throughput_rps
    traffic = ("poisson", "bursty", "diurnal")
    us_naive, us_batched = reports["naive"], reports["batched (max_batch=8)"]
    frames = ultrasound_workload(n_voxels=4096, k=1024, n_frames=64)
    sections = [
        (
            "headline",
            f"LOFAR beam blocks on one {GPU}, Poisson "
            f"{_rate_hz(lofar_workload()) / 1e3:.0f}k req/s "
            f"({OVERLOAD_FACTOR:.0f}x naive capacity)",
            table("naive (max_batch=1)", HEADLINE),
        ),
        (
            "policies",
            "Scheduling policy grid",
            table(*(f"batch<={b} x {n} dev" for n in (1, 2) for b in sweep)),
        ),
        ascii_scatter(
            [float(b) for b in sweep],
            one_device,
            xlabel="max_batch",
            ylabel="req/s",
            title="Single-device throughput vs batching knob",
            logx=True,
        ),
        ("traffic", "Traffic shapes (batched, 1 device)", table(*traffic)),
        (
            "ultrasound",
            f"Ultrasound 2-D live-view frames (4096 voxels, K=1024), "
            f"Poisson {_rate_hz(frames) / 1e3:.0f}k req/s",
            table("naive", "batched (max_batch=8)"),
        ),
    ]
    findings = [
        f"micro-batching sustains {speedup:.2f}x the naive per-request "
        f"throughput under the same Poisson overload "
        f"({verdict(speedup >= REQUIRED_SPEEDUP)}: bar {REQUIRED_SPEEDUP:.0f}x)",
        f"batched p99 {batched.p99_latency_s * 1e3:.2f} ms inside the "
        f"{SLO_P99_S * 1e3:.0f} ms SLO with {batched.shed_rate:.1%} shed "
        f"({verdict(batched.slo_attained and batched.shed_rate == 0)}); "
        f"naive sheds {naive.shed_rate:.1%} to hold its tail",
        f"plan cache: {batched.cache_misses} builds over "
        f"{batched.n_batches} launches ({batched.cache_hit_rate:.1%} hit rate)",
        f"least-loaded fleet routing: 2 devices carry {fleet_scaling:.2f}x the "
        f"naive single-device throughput "
        f"({verdict(fleet_scaling >= 1.8)}: bar 1.8x)",
        f"SLO attained across poisson/bursty/diurnal traffic "
        f"({verdict(all(reports[label].slo_attained for label in traffic))})",
        f"ultrasound frame requests: "
        f"{us_batched.throughput_rps / us_naive.throughput_rps:.2f}x from batching at "
        f"batch<=8 (int1 per-request transpose+pack included)",
        f"fixed-seed replay is bit-identical (throughput, p99, shed, "
        f"launches) ({verdict(served.replay_identical)})",
    ]
    return experiment_result(
        "serve",
        "Beamforming-as-a-service: micro-batching, plan cache, SLO control",
        served,
        sections,
        findings,
        dashboard_title=f"serve: batched LOFAR overload on one {GPU}",
    )
