"""The benchmark's workloads, built only from the public ``repro`` APIs.

Two functional workloads run the real host compute (app adapter ->
``tcbf`` plan -> ``ccglib`` layers, on NumPy) in a closed loop with one
caller. Two serve workloads replay a seeded open-loop arrival trace through
the ``repro.serve`` discrete-event simulator; their wall time is the
simulator's own cost. Every workload offers the same protocol:

* ``setup()`` builds the program objects and makes the first, untimed call
  or replay (the benchmark times it as set-up);
* ``block(i)`` returns a zero-argument callable, the i-th timed call or
  replay; anything it must construct first happens outside the timing;
* ``check(i, result)`` verifies the result against an oracle, outside the
  timed region, and returns ``(ok, max_rel_err)``;
* ``targets`` are the attributes the traced pass wraps (see
  :mod:`spans`), the first being the root layer.

Sizes (shapes and horizons) are constructor arguments so the tests can
run the same code on tiny shapes and short horizons; the defaults are the
benchmark's. Offered loads are class constants: ``BENCHMARK.json`` fixes
them.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import repro.ccglib.gemm as ccglib_gemm
import repro.tcbf.plan as tcbf_plan
from repro.apps.radioastronomy import LOFARBeamformer
from repro.apps.radioastronomy import pipeline_workload as radio_pipeline
from repro.apps.radioastronomy import service_workload as radio_service
from repro.apps.ultrasound import (
    ImagingConfig,
    TransducerArray,
    UltrasoundBeamformer,
    VoxelGrid,
    build_model_matrix,
)
from repro.apps.ultrasound import imaging as ultrasound_imaging
from repro.apps.ultrasound import pipeline_workload as ultrasound_pipeline
from repro.ccglib.bit_gemm import bit_gemm_reference
from repro.ccglib.precision import PARITY_TOLERANCES, Precision
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    SLO,
    AdmissionController,
    AlertEngine,
    Autoscaler,
    BatchingPolicy,
    BeamformingService,
    FleetDispatcher,
    MicroBatcher,
    PlanCache,
    Placer,
    PriorityScheduler,
    ReactiveAutoscaler,
    ResiliencePolicy,
    ServiceMonitor,
    SLOTracker,
    crash_storm,
    diurnal_arrivals,
    merge_arrivals,
    poisson_arrivals,
)
from metrics import MODEL_LAYERS
from spans import Target

GPU = "A100"


def _complex_normal(rng: np.random.Generator, shape, scale: float = 1.0) -> np.ndarray:
    values = rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)
    return values.astype(np.complex64)


def _digest(array: np.ndarray) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(array).data, usedforsecurity=False).digest()


def _f16(values: np.ndarray) -> np.ndarray:
    """Round real and imaginary parts to float16, as the f16 MMA does."""
    return (
        values.real.astype(np.float16).astype(np.float64)
        + 1j * values.imag.astype(np.float16).astype(np.float64)
    )


# -- functional workloads ----------------------------------------------------


class FunctionalWorkload:
    """Closed loop, one caller: ``n_blocks`` seeded inputs in rotation."""

    kind = "functional"
    requests_per_block = 1
    #: the :mod:`hostspeed` kernel that does this workload's kind of work.
    host_kernel: str

    def __init__(self, n_blocks: int):
        self.n_blocks = n_blocks
        self.adapter = None
        self.first_result = None
        self._verified: dict[int, tuple[bytes, float]] = {}

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """GEMM shape (batch, M, N, K) of one block."""
        raise NotImplementedError

    @property
    def ops_per_block(self) -> float:
        """Useful complex ops of one block: 8 * B * M * N * K."""
        b, m, n, k = self.shape
        return 8.0 * b * m * n * k

    def layer_work(self) -> dict[str, float]:
        """Computed bytes (memory-bound layers) or ops (GEMM layers) of one
        block, from the array shapes; cache effects are not counted."""
        b, m, n, k = self.shape
        kp = self.adapter.plan.padded_k
        return {
            # reads the complex64 streamed block
            "tcbf.scaling": 8.0 * b * k * n,
            # complex64 in, planar float32 out, both operands
            "ccglib.layouts": 16.0 * b * (m * k + k * n),
            # planar float32 read and written
            "ccglib.transpose": 16.0 * b * k * n,
            # planar float32 in, 1 bit per value out (padded K)
            "ccglib.packing.weights": b * (8.0 * m * k + m * kp / 4.0),
            "ccglib.packing.stream": b * (8.0 * n * k + n * kp / 4.0),
            "ccglib.complex_mma": self.ops_per_block,
            "ccglib.bit_gemm": self.ops_per_block,
        }

    def check(self, i: int, result) -> tuple[bool, float]:
        """Oracle-check the first output of each input block; later outputs
        of that block must then match it bit for bit (NumPy is
        deterministic), and any that does not is checked again in full."""
        block = i % self.n_blocks
        out = result.output
        digest = _digest(out)
        known = self._verified.get(block)
        if known is not None and known[0] == digest:
            return True, known[1]
        ok, err = self._oracle(block, out)
        if ok and known is None:
            self._verified[block] = (digest, err)
        return ok, err

    def model_metrics(self) -> dict[str, float]:
        """Per-block model times of the first call (A100 cost model)."""
        result = self.first_result
        stages = {"transpose": "ccglib.transpose", "pack_bits": "ccglib.packing.stream"}
        gemm_layer = (
            "ccglib.bit_gemm" if self.precision is Precision.INT1 else "ccglib.complex_mma"
        )
        out = {name: 0.0 for name in MODEL_LAYERS}
        for cost in result.costs[:-1]:
            out[stages[cost.name]] += cost.time_s * 1e3
        out[gemm_layer] += result.costs[-1].time_s * 1e3
        metrics = {f"{layer}.model_ms": value for layer, value in out.items()}
        metrics["model.block_ms"] = result.total.time_s * 1e3
        return metrics

    #: the traced pass's targets below the app adapter, shared by both.
    LAYER_TARGETS = (
        Target(tcbf_plan.BeamformerPlan, "execute", ("tcbf.plan",)),
        Target(tcbf_plan, "rms", ("tcbf.scaling",)),
        Target(tcbf_plan, "transpose_cost", ("ccglib.perfmodel",)),
        Target(tcbf_plan, "packing_cost", ("ccglib.perfmodel",)),
        Target(ccglib_gemm.Gemm, "run", ("ccglib.gemm",)),
        Target(ccglib_gemm, "model_gemm", ("ccglib.perfmodel",)),
        Target(ccglib_gemm, "to_planar", ("ccglib.layouts",)),
        Target(ccglib_gemm, "planar_to_kmajor", ("ccglib.transpose",)),
        Target(
            ccglib_gemm,
            "pack_sign_planar",
            ("ccglib.packing.weights", "ccglib.packing.stream"),
        ),
        Target(ccglib_gemm, "complex_mma_f16_batched", ("ccglib.complex_mma",)),
        Target(ccglib_gemm, "complex_bit_gemm", ("ccglib.bit_gemm",)),
    )


class LofarF16(FunctionalWorkload):
    """``LOFARBeamformer.form_beams`` in float16 on GPU-resident data.

    One weight set, ``n_blocks`` seeded station-data blocks; no transpose
    or packing stage, output scale restored.
    """

    name = "lofar-f16"
    precision = Precision.FLOAT16
    host_kernel = "matmul"
    targets = (
        Target(LOFARBeamformer, "form_beams", ("apps",)),
    ) + FunctionalWorkload.LAYER_TARGETS

    def __init__(
        self,
        seed: int,
        n_beams: int = 256,
        n_stations: int = 64,
        n_samples: int = 256,
        n_channels: int = 16,
        n_polarizations: int = 2,
        n_blocks: int = 8,
    ):
        super().__init__(n_blocks)
        self.dims = (n_beams, n_stations, n_samples, n_channels, n_polarizations)
        batch = n_channels * n_polarizations
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(batch, n_beams, n_stations))
        self.weights = np.exp(1j * phases).astype(np.complex64)
        # Station voltages well away from unit RMS, so the scale restore
        # is visible in the output.
        self.data = [
            _complex_normal(rng, (batch, n_stations, n_samples), scale=3.0)
            for _ in range(n_blocks)
        ]

    @property
    def shape(self):
        n_beams, n_stations, n_samples, n_channels, n_pols = self.dims
        return (n_channels * n_pols, n_beams, n_samples, n_stations)

    def setup(self) -> None:
        n_beams, n_stations, n_samples, n_channels, n_pols = self.dims
        self.adapter = LOFARBeamformer(
            Device(GPU),
            n_beams=n_beams,
            n_stations=n_stations,
            n_samples=n_samples,
            n_channels=n_channels,
            n_polarizations=n_pols,
        )
        self.first_result = self.adapter.form_beams(self.weights, self.data[0])

    def block(self, i: int):
        adapter, weights, data = self.adapter, self.weights, self.data[i % self.n_blocks]
        return lambda: adapter.form_beams(weights, data)

    def _oracle(self, block: int, out: np.ndarray) -> tuple[bool, float]:
        """complex128 product of the f16-rounded, unit-RMS operands, scale
        restored; per batch item to keep the check's memory small."""
        data = self.data[block]
        # The unit-RMS scale in the operand's own precision (complex64), so
        # the oracle rounds exactly the values the plan rounds to float16.
        scale = float(np.sqrt(np.mean(np.abs(data) ** 2)))
        tol = PARITY_TOLERANCES[Precision.FLOAT16]
        weights = _f16(self.weights)
        worst_diff = worst_ref = 0.0
        ok = out.shape == (len(data), self.weights.shape[1], data.shape[2])
        for b in range(len(data) if ok else 0):
            ref = (weights[b] @ _f16(data[b] / np.float32(scale))) * scale
            diff = np.abs(out[b] - ref)
            ok = ok and bool(np.all(diff <= tol.atol + tol.rtol * np.abs(ref)))
            worst_diff = max(worst_diff, float(diff.max()))
            worst_ref = max(worst_ref, float(np.abs(ref).max()))
        return ok, (worst_diff / worst_ref if worst_ref else math.inf)


class UltrasoundInt1(FunctionalWorkload):
    """``UltrasoundBeamformer.reconstruct`` in 1-bit mode.

    Transpose and packing of each measurement batch are part of the call
    (the paper's Fig 5 accounting); ``n_blocks`` seeded measurement
    batches. Set-up builds the model matrix, auto-tunes and prepares it.
    """

    name = "ultrasound-int1"
    precision = Precision.INT1
    host_kernel = "popcount"
    targets = (
        Target(UltrasoundBeamformer, "reconstruct", ("apps",)),
    ) + FunctionalWorkload.LAYER_TARGETS

    def __init__(
        self,
        seed: int,
        grid: tuple[int, int, int] = (16, 16, 8),
        n_frequencies: int = 4,
        n_transmissions: int = 4,
        n_frames: int = 64,
        n_blocks: int = 8,
    ):
        super().__init__(n_blocks)
        self.config = ImagingConfig(
            array=TransducerArray(8, 8),
            grid=VoxelGrid(grid),
            n_frequencies=n_frequencies,
            n_transmissions=n_transmissions,
        )
        self.n_frames = n_frames
        rng = np.random.default_rng(seed)
        self.measurements = [
            _complex_normal(rng, (self.config.n_rows, n_frames)) for _ in range(n_blocks)
        ]
        self._a_bits = None

    @property
    def shape(self):
        return (1, self.config.n_voxels, self.n_frames, self.config.n_rows)

    def setup(self) -> None:
        # The adapter caches tuned parameters per process; set-up is timed
        # as a fresh process would pay it, auto-tune included.
        ultrasound_imaging._APP_PARAMS_CACHE.clear()
        model = build_model_matrix(self.config)
        self.adapter = UltrasoundBeamformer(Device(GPU), model, n_frames=self.n_frames)
        self.adapter.prepare_model()
        self.first_result = self.adapter.reconstruct(self.measurements[0])
        self._a_bits = None

    def block(self, i: int):
        adapter, measurement = self.adapter, self.measurements[i % self.n_blocks]
        return lambda: adapter.reconstruct(measurement)

    def _oracle(self, block: int, out: np.ndarray) -> tuple[bool, float]:
        """Bit-exact equality with ``bit_gemm_reference`` on the sign bits."""
        if self._a_bits is None:
            filt = self.adapter.model.matched_filter()
            self._a_bits = np.stack([filt.real >= 0, filt.imag >= 0]).astype(np.uint8)
        y = self.measurements[block]
        b_bits = np.stack([y.real.T >= 0, y.imag.T >= 0]).astype(np.uint8)
        # Row chunks of A bound the reference's int64 temporaries.
        ref = np.concatenate(
            [
                bit_gemm_reference(self._a_bits[:, r : r + 256], b_bits)
                for r in range(0, self._a_bits.shape[1], 256)
            ],
            axis=1,
        )
        if out.shape != ref.shape[1:]:
            return False, math.inf
        diff = np.maximum(np.abs(out.real - ref[0]), np.abs(out.imag - ref[1])).max()
        scale = float(np.abs(ref).max()) or 1.0
        return bool(diff == 0), float(diff) / scale


# -- serve workloads -----------------------------------------------------------


def _dry(name: str = GPU) -> Device:
    return Device(name, ExecutionMode.DRY_RUN)


def fingerprint(report) -> tuple:
    """What two replays of one trace must agree on exactly."""
    return (
        report.throughput_rps,
        report.p99_latency_s,
        report.shed_rate,
        report.n_batches,
        report.n_retries,
    )


def conserved(report, n_offered: int) -> bool:
    """Every offered request reached exactly one terminal state."""
    outcomes = report.outcomes
    if len(outcomes) != n_offered or any(o is None for o in outcomes):
        return False
    completed = shed = failed = 0
    for outcome in outcomes:
        if not outcome.admitted:
            shed += outcome.completion_s is None
        elif outcome.completion_s is None:
            failed += 1
        elif outcome.completion_s >= outcome.request.arrival_s:
            completed += 1
    return completed + shed + failed == n_offered


class ServeWorkload:
    """Repeated replays of one seeded trace through a fresh service."""

    kind = "serve"
    host_kernel = "interpreter"
    targets = (
        Target(BeamformingService, "run", ("serve.service",)),
        Target(FleetDispatcher, "submit", ("serve.dispatch",)),
        Target(FleetDispatcher, "drain", ("serve.dispatch",)),
        Target(FleetDispatcher, "next_accept_s", ("serve.dispatch",)),
        Target(Placer, "place", ("serve.placement",)),
        Target(Placer, "select_worker", ("serve.placement",)),
        Target(MicroBatcher, "offer", ("serve.batching",)),
        Target(MicroBatcher, "due", ("serve.batching",)),
        Target(PriorityScheduler, "enqueue", ("serve.scheduler",)),
        Target(PriorityScheduler, "next", ("serve.scheduler",)),
        Target(PriorityScheduler, "queued_service_s", ("serve.scheduler",)),
        Target(PriorityScheduler, "pressure_by_class", ("serve.scheduler",)),
        Target(PlanCache, "get", ("serve.cache",)),
        Target(AdmissionController, "admit", ("serve.slo",)),
        Target(SLOTracker, "record", ("serve.slo",)),
        Target(Autoscaler, "tick", ("serve.autoscale",)),
        Target(ServiceMonitor, "advance", ("serve.obs",)),
        Target(AlertEngine, "evaluate", ("serve.obs",)),
    )

    def __init__(self, trace):
        self.trace = trace
        self.requests_per_block = len(trace)
        self.first_result = None
        self._reference = None
        self.ops_per_block = 0.0

    def service(self) -> BeamformingService:
        raise NotImplementedError

    def setup(self) -> None:
        self.first_result = self.service().run(self.trace)
        self._reference = fingerprint(self.first_result)
        self.ops_per_block = sum(e.batch.useful_ops for e in self.first_result.executions)

    def block(self, i: int):
        service, trace = self.service(), self.trace
        return lambda: service.run(trace)

    def check(self, i: int, report) -> tuple[bool, float]:
        ok = conserved(report, len(self.trace)) and fingerprint(report) == self._reference
        return ok, 0.0

    def model_metrics(self) -> dict[str, float]:
        """Simulated outcomes of the first replay (deterministic)."""
        report = self.first_result
        return {
            "model.p99_ms": report.p99_latency_s * 1e3,
            "model.thr_rps": report.throughput_rps,
            "model.availability": report.availability,
            "serve.count.batches": float(report.n_batches),
            "serve.count.mean_batch": report.mean_batch_size,
            "serve.ratio.cache_hit": report.cache_hit_rate,
            "serve.ratio.padded_ops": report.padded_ops_fraction,
            "serve.count.retries": float(report.n_retries),
            "serve.count.scale_events": float(len(report.scale_events)),
        }


def _first(n: int, generate) -> list:
    """The first ``n`` arrivals of a stream generated over twice its nominal
    horizon: every seed offers the same number of requests, so the work of
    a replay does not vary with the seed."""
    requests = generate(2.0)
    if len(requests) < n:
        raise ValueError(f"stream offered {len(requests)} < {n} requests")
    return requests[:n]


class ServeBatching(ServeWorkload):
    """Plain micro-batching: LOFAR beam blocks at 5x the naive capacity of
    one dry-run A100; no monitor, autoscaler, faults or pipelines."""

    name = "serve-batching"
    policy = BatchingPolicy(max_batch=32, max_wait_s=200e-6)
    #: offered load, in multiples of the naive (unbatched) A100 capacity.
    overload = 5.0

    def __init__(self, seed: int, horizon_s: float = 0.01):
        blocks = radio_service()
        rate_hz = self.overload / blocks.kernel.make_plan(_dry(), 1).predict_block_cost().time_s
        super().__init__(
            _first(
                round(rate_hz * horizon_s),
                lambda f: poisson_arrivals(blocks, rate_hz, f * horizon_s, seed=seed),
            )
        )

    def service(self) -> BeamformingService:
        return BeamformingService(
            [_dry()], policy=self.policy, slo=SLO(p99_latency_s=5e-3)
        )


class ServeMixed(ServeWorkload):
    """Every event source live: survey and imaging DAGs plus diurnal LOFAR
    beam blocks on an A100 + GH200 fleet with stage-locality placement, a
    reactive autoscaler, a crash-and-straggler storm with the default
    resilience policy, and a service monitor. Every time constant scales
    with the horizon, so the dynamics fit any horizon; the storm is part of
    the scenario, the same for every seed."""

    name = "serve-mixed"
    policy = BatchingPolicy(max_batch=8, max_wait_s=100e-6)
    storm_seed = 7
    #: offered loads, in multiples of batched capacity: the DAGs of their
    #: beamform stage on a GH200, the beam blocks on an A100 (an overload).
    pipeline_load = 0.05
    block_load = 1.5

    def __init__(self, seed: int, horizon_s: float = 1.5e-3):
        self.horizon_s = h = horizon_s
        survey = radio_pipeline(
            n_beams=256, n_stations=64, n_samples=256, n_channels=32, n_dms=64
        )
        imaging = ultrasound_pipeline(n_voxels=4096, k=1024, n_frames=64, n_ensemble=32)
        blocks = radio_service()
        survey_hz = self.pipeline_load * self._capacity_hz(survey, "GH200")
        imaging_hz = self.pipeline_load * self._capacity_hz(imaging, "GH200")
        blocks_hz = self.block_load * self._capacity_hz(blocks, GPU)
        trace = merge_arrivals(
            _first(
                round(survey_hz * h),
                lambda f: poisson_arrivals(survey, survey_hz, f * h, seed=seed),
            ),
            _first(
                round(imaging_hz * h),
                lambda f: poisson_arrivals(imaging, imaging_hz, f * h, seed=seed + 1),
            ),
            _first(
                round(blocks_hz * h),
                lambda f: diurnal_arrivals(
                    blocks, blocks_hz, amplitude=0.8, period_s=h / 2, horizon_s=f * h,
                    seed=seed + 2,
                ),
            ),
        )
        super().__init__(trace)

    def _capacity_hz(self, workload, gpu: str) -> float:
        """Requests/s one device sustains on full batches of the workload's
        beamforming kernel (the ``beamform`` stage of a pipeline)."""
        names = [stage.name for stage in workload.stages]
        kernel = workload.stage("beamform" if "beamform" in names else names[0]).workload
        n = self.policy.max_batch
        return n / kernel.make_plan(_dry(gpu), n).predict_block_cost().time_s

    def service(self) -> BeamformingService:
        h = self.horizon_s
        return BeamformingService(
            [_dry(GPU), _dry("GH200")],
            policy=self.policy,
            slo=SLO(p99_latency_s=10e-3),
            placer=Placer(stage_locality=True),
            autoscaler=Autoscaler(
                ReactiveAutoscaler(up_pressure_s=0.15e-3, up_ticks=2, down_ticks=1),
                device_factory=_dry,
                interval_s=h / 40,
                max_workers=6,
                startup_s=h / 40,
            ),
            faults=crash_storm(
                h,
                [0, 1],
                n_crashes=1,
                n_slow_windows=2,
                replace_device=GPU,
                replace_startup_s=h / 40,
                seed=self.storm_seed,
            ),
            resilience=ResiliencePolicy(),
            monitor=ServiceMonitor(interval_s=h / 100),
        )


WORKLOADS = {
    cls.name: cls for cls in (LofarF16, UltrasoundInt1, ServeBatching, ServeMixed)
}
