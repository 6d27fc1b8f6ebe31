"""The LOFAR tensor-core beamformer: central coherent/incoherent stage.

"A LOFAR tensor-core beamformer is implemented using the 16-bit mode of
ccglib" (paper §V-B). The mapping onto the GEMM is the paper's exactly:
"M represents the number of beams ... N is the number of samples ... K
corresponds to the number of stations ... the product of the number of
polarizations and channels is the batch size."

The coherent path is a thin domain adapter over
:class:`repro.tcbf.BeamformerPlan`: the streaming transpose is disabled
because "data are typically already GPU-resident and remain on the GPU for
further computations" (§V-B) and a float16 plan has no packing stage, so
the per-block cost is the GEMM alone, and the operand scale is restored on
the output (absolute beam powers feed the pulsar search downstream).

Incoherent beamforming ("discards phase information and instead combines
the power from each station") is also provided: it is a memory-bound
reduction with no tensor-core benefit, which is why only the coherent path
goes through ccglib.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import Bound, KernelCost
from repro.tcbf import BeamformerPlan, BeamformResult

if TYPE_CHECKING:
    from repro.serve.workload import PipelineWorkload

#: Attribute-compatible alias: reads (``.beams``, ``.cost``, ``.tflops``)
#: work as before, but results are constructed by the TCBF plan, not by
#: callers — the old dataclass constructor signature is gone.
BeamformOutput = BeamformResult


class LOFARBeamformer:
    """Coherent tied-array beamformer on (simulated) tensor cores.

    Parameters follow the paper's benchmark configuration defaults:
    1024 beams, 1024 samples, 8..512 stations, batch 256 (channels x pols).
    """

    def __init__(
        self,
        device: Device,
        n_beams: int,
        n_stations: int,
        n_samples: int,
        n_channels: int,
        n_polarizations: int = 1,
        precision: Precision = Precision.FLOAT16,
        params: TuneParams | None = None,
        backend=None,
    ):
        self.device = device
        self.n_beams = n_beams
        self.n_stations = n_stations
        self.n_samples = n_samples
        self.n_channels = n_channels
        self.n_polarizations = n_polarizations
        self.precision = precision
        self.batch = n_channels * n_polarizations
        self._plan = BeamformerPlan(
            device,
            n_beams=n_beams,
            n_receivers=n_stations,
            n_samples=n_samples,
            batch=self.batch,
            precision=precision,
            params=params,
            include_transpose=False,
            restore_output_scale=True,
            backend=backend,
            name="lofar_beamform",
        )

    @property
    def plan(self) -> BeamformerPlan:
        """The underlying TCBF plan (streaming/sharding entry point)."""
        return self._plan

    def predict_cost(self) -> KernelCost:
        """Cost of one beamforming block without executing (Fig 7 data).

        Only the matrix-multiplication component is considered, "as data
        are typically already GPU-resident and remain on the GPU for
        further computations" (paper §V-B).
        """
        return self._plan.predict_gemm_cost()

    def prepare_weights(self, weights: np.ndarray | None = None) -> KernelCost:
        """One-time preparation of the beam weight set.

        A weight set is fixed for an observation while station data
        stream through, so the plan converts it to its planar GEMM operand
        once and every ``form_beams(None, data)`` reuses it (see
        :meth:`repro.tcbf.BeamformerPlan.prepare_weights`, which also
        records the one-time cost outside the per-block budget). The kept
        operand is a snapshot: call this again after the weights change.
        """
        return self._plan.prepare_weights(weights)

    def form_beams(
        self, weights: np.ndarray | None = None, data: np.ndarray | None = None
    ) -> BeamformResult:
        """Beamform one block: beams[b] = sum_st w[b, st] * X[st, t].

        ``weights``: (batch, n_beams, n_stations) complex, or ``None`` to
        use the set given to :meth:`prepare_weights`; ``data``: (batch,
        n_stations, n_samples) complex. Required in functional mode;
        ignored in dry-run. Scaling, validation, and cost accounting all
        live in :class:`repro.tcbf.BeamformerPlan`.
        """
        return self._plan.execute(weights, data)


def service_workload(
    *,
    n_beams: int = 256,
    n_stations: int = 64,
    n_samples: int = 256,
    n_channels: int = 1,
    n_polarizations: int = 1,
    precision: Precision = Precision.FLOAT16,
    weights_version: int = 0,
    priority: int = 1,
    tenant: str = "astronomy",
    params: TuneParams | None = None,
    weights: np.ndarray | None = None,
) -> "PipelineWorkload":
    """The radio-astronomy request class for :mod:`repro.serve`.

    **Adapter contract** (shared with
    :func:`repro.apps.ultrasound.imaging.service_workload`): every
    parameter is keyword-only; the leading keywords are the domain's shape
    vocabulary and the tail is the shared serving surface, in this fixed
    order — ``precision``, ``weights_version``, ``priority``, ``tenant``,
    ``params``, ``weights``. The return value is the **single-stage
    pipeline form** (:meth:`Workload.single_stage
    <repro.serve.workload.Workload.single_stage>`): behaviourally
    byte-identical to the bare workload it wraps, accepted everywhere a
    workload is (arrivals generators, SLO maps); its ``.kernel`` is the
    bare single-kernel :class:`~repro.serve.workload.Workload`.

    One request is a beam block — a channel range of station voltages to
    tied-array beamform, the unit a correlator node hands off. Data are
    GPU-resident (§V-B), so the per-block accounting is GEMM-only, and the
    operand scale is restored (absolute beam powers feed the pulsar search).
    ``weights`` optionally carries the ``(channels x pols, beams, stations)``
    weight set for functional fleets; bump ``weights_version`` on
    calibration updates so stale and fresh requests never share a batch.
    ``params`` pins the tuning parameters of the merged plan (part of the
    batching identity, like everything else here).

    Offline reprocessing is throughput work, so the default ``priority`` is
    1 (the batch class — lower numbers are more urgent); a live transient
    follow-up would pass ``priority=0``. ``tenant`` names the observing
    campaign for weighted-fair queueing when several share a fleet.

    On a heterogeneous fleet the placement layer does the rest: float16
    runs anywhere, the channel batch makes large surveys splittable across
    devices (``batch_per_request = channels x pols``), and nearby
    ``n_samples`` dumps can share a launch through the batcher's shape
    buckets — see :mod:`repro.serve.placement`.
    """
    from repro.serve.workload import Workload

    return Workload(
        name="lofar_beam_block",
        n_beams=n_beams,
        n_receivers=n_stations,
        n_samples=n_samples,
        batch_per_request=n_channels * n_polarizations,
        precision=precision,
        include_transpose=False,
        restore_output_scale=True,
        weights_version=weights_version,
        priority=priority,
        tenant=tenant,
        params=params,
        weights=weights,
    ).single_stage()


def pipeline_workload(
    *,
    n_beams: int = 256,
    n_stations: int = 64,
    n_samples: int = 256,
    n_channels: int = 64,
    n_polarizations: int = 1,
    n_dms: int = 64,
    precision: Precision = Precision.FLOAT16,
    weights_version: int = 0,
    priority: int = 1,
    tenant: str = "astronomy",
    params: TuneParams | None = None,
) -> "PipelineWorkload":
    """The full observatory chain: channelize → beamform → dedisperse.

    The paper's radio-astronomy deployment is a pipeline, not one kernel
    (§V-B: the beamformer sits between the station channelizers and the
    pulsar search). One request is one correlator dump processed end to
    end; the serving tier batches each stage across concurrent dumps,
    releases a stage the instant its dependencies complete, and prices the
    inter-stage buffers as resident (same worker) or transferred.

    * ``channelize`` — the polyphase filterbank as a batched DFT GEMM: one
      ``(n_channels, n_channels)`` filter matrix against each station's
      sample block, batched over stations. Station voltages arrive from
      the network, so the transpose is included.
    * ``beamform`` — the tied-array beamformer at the LOFAR shape (exactly
      :func:`service_workload`'s kernel): ``n_beams x n_stations`` weights
      against GPU-resident channelized voltages, batched over
      channels x polarizations, output scale restored.
    * ``dedisperse`` — the dedispersion search as a GEMM over trial
      dispersion measures: an ``(n_dms, n_channels)`` delay matrix against
      each beam's dynamic spectrum (matrix-multiplication dedispersion à
      la dedisp/FDMT), consuming the beamformer's output in place.

    ``priority``/``tenant`` apply to the whole pipeline (one scheduling
    class, one accountable caller); per-stage precision is fixed by the
    physics above — ``precision`` selects the beamforming GEMM's mode, the
    channelizer/dedispersion stages run float16. ``params`` pins the
    beamforming stage's tuning only; the flanking stages auto-tune.
    """
    from repro.serve.workload import PipelineWorkload, Stage, Workload

    channelize = Workload(
        name="channelize",
        n_beams=n_channels,
        n_receivers=n_channels,
        n_samples=n_samples,
        batch_per_request=n_stations * n_polarizations,
        precision=Precision.FLOAT16,
        include_transpose=True,
        weights_version=weights_version,
    )
    beamform = Workload(
        name="beamform",
        n_beams=n_beams,
        n_receivers=n_stations,
        n_samples=n_samples,
        batch_per_request=n_channels * n_polarizations,
        precision=precision,
        include_transpose=False,
        restore_output_scale=True,
        weights_version=weights_version,
        params=params,
    )
    dedisperse = Workload(
        name="dedisperse",
        n_beams=n_dms,
        n_receivers=n_channels,
        n_samples=n_samples,
        batch_per_request=n_beams,
        precision=Precision.FLOAT16,
        include_transpose=False,
        weights_version=weights_version,
    )
    return PipelineWorkload(
        name="lofar_pulsar",
        stages=(
            Stage(name="channelize", workload=channelize),
            Stage(name="beamform", workload=beamform, depends_on=("channelize",)),
            Stage(name="dedisperse", workload=dedisperse, depends_on=("beamform",)),
        ),
        priority=priority,
        tenant=tenant,
    )


def incoherent_beam(
    device: Device,
    data: np.ndarray | None,
    batch: int,
    n_stations: int,
    n_samples: int,
) -> tuple[np.ndarray | None, KernelCost]:
    """Incoherent station-power sum: P[ch, t] = sum_st |X[ch, st, t]|^2.

    "Computationally less demanding and well-suited for all-sky surveys"
    (paper §V-B): a pure reduction, bound by memory bandwidth, modelled as
    one read of the station data.
    """
    spec = device.spec
    n_values = batch * n_stations * n_samples
    dram_bytes = n_values * 8.0 + batch * n_samples * 4.0
    bw = spec.mem_bandwidth_bytes() * spec.mem_efficiency
    time_s = dram_bytes / bw + spec.kernel_launch_overhead_s
    power = device.power.kernel_power(
        precision=None,
        tensor_utilization=0.0,
        dram_utilization=min(1.0, (dram_bytes / time_s) / spec.mem_bandwidth_bytes()),
        smem_utilization=0.0,
    )
    cost = KernelCost(
        name="incoherent_beam",
        time_s=time_s,
        useful_ops=4.0 * n_values,
        issued_ops=4.0 * n_values,
        dram_bytes=dram_bytes,
        smem_bytes=0.0,
        bound=Bound.MEMORY,
        power_w=power.total_w,
        energy_j=power.total_w * time_s,
    )
    device.record_kernel(cost)
    out = None
    if device.is_functional:
        if data is None:
            raise ShapeError("functional incoherent beamforming requires data")
        out = (np.abs(data) ** 2).sum(axis=-2)
    return out, cost
