"""The ultrasound tensor-core beamformer: a thin wrapper around the TCBF.

"In this work we show the use of an ultrasound tensor-core beamformer
implemented as a wrapper around ccglib" (paper §V-A). Reconstruction is the
matched-filter product ``X = conj(H).T @ Y``:

* A-operand: the (V, K) matched filter from the model matrix — it is
  converted to planar form and, in the 1-bit pipeline, sign-quantized and
  packed **once before the experiment** by :meth:`UltrasoundBeamformer.prepare_model`
  ("this typically happens once ... and does not need to be repeated"),
  and every frame batch reuses the prepared operand, so its cost is
  excluded from the per-frame budget;
* B-operand: the (K, N) measurement matrix — its transpose and 1-bit
  packing run for every frame batch and **are** included (Fig 5: "The
  processing includes the 1-bit packing and transpose of the measurement
  matrix").

Both behaviours are native :class:`repro.tcbf.BeamformerPlan` features
(``prepare_weights`` and the per-block stages), so this module only maps
the imaging vocabulary (model matrix, matched filter, frames) onto the
shared library.

The GEMM uses parameters auto-tuned for the ultrasound shape (huge M = many
voxels, large K, moderate N = frames); the shipped generic defaults would
re-stream the enormous model matrix once per N-block, so wide ``block_n``
tiles matter here. This is the paper's "GPU-specific optimization is best"
point made concrete.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.ultrasound.model_matrix import ModelMatrix
from repro.ccglib.perfmodel import GemmProblem
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import KernelCost
from repro.kerneltuner.strategies import GreedyILS
from repro.kerneltuner.tuner import tune_gemm
from repro.tcbf import BeamformerPlan, BeamformResult

if TYPE_CHECKING:
    from repro.serve.workload import PipelineWorkload

#: cache of tuned parameters keyed by (gpu, precision, shape bucket).
_APP_PARAMS_CACHE: dict[tuple[str, str, int, int, int], TuneParams] = {}

#: Attribute-compatible alias: reads (``.frames``, ``.costs``, ``.total``,
#: ``.time_s``) work as before, but results are constructed by the TCBF
#: plan, not by callers — the old dataclass constructor signature is gone.
ReconstructionResult = BeamformResult


def ultrasound_gemm_params(
    device: Device, precision: Precision, m: int, n: int, k: int
) -> TuneParams:
    """Auto-tune the GEMM for the reconstruction shape (cached).

    A reduced-budget local search is plenty: the landscape is smooth and
    the tuning runs against the analytic model.
    """
    key = (device.spec.name, precision.value, m, n, k)
    if key not in _APP_PARAMS_CACHE:
        result = tune_gemm(
            device.spec,
            precision,
            problem=GemmProblem(batch=1, m=m, n=n, k=k),
            strategy=GreedyILS(budget=120, seed=1),
        )
        _APP_PARAMS_CACHE[key] = result.best_params
    return _APP_PARAMS_CACHE[key]


class UltrasoundBeamformer:
    """cUSi reconstruction on a (simulated) GPU via the TCBF.

    Parameters
    ----------
    device:
        Target device (functional or dry-run).
    n_voxels, k:
        GEMM M and K. For functional use, pass ``model`` instead and the
        shapes are taken from it.
    precision:
        ``Precision.INT1`` (the paper's real-time mode: sign of model and
        measurement) or ``Precision.FLOAT16``.
    """

    def __init__(
        self,
        device: Device,
        model: ModelMatrix | None = None,
        *,
        n_voxels: int | None = None,
        k: int | None = None,
        n_frames: int = 1024,
        precision: Precision = Precision.INT1,
        params: TuneParams | None = None,
        fused_transpose: bool = False,
        backend=None,
    ):
        """``fused_transpose`` prototypes the paper's §VI future-work item:
        a GEMM that consumes interleaved data directly, removing the
        separate transpose kernel from the per-batch path ("in the future,
        we would like to provide a matrix-matrix multiplication kernel that
        does not require this transpose"; the tensor-core correlator [4]
        already uses this technique)."""
        self.device = device
        self.model = model
        if model is not None:
            n_voxels, k = model.n_voxels, model.k
        if n_voxels is None or k is None:
            raise ShapeError("need a model matrix or explicit (n_voxels, k)")
        self.n_voxels = n_voxels
        self.k = k
        self.n_frames = n_frames
        self.precision = precision
        self.fused_transpose = fused_transpose
        self.params = params or ultrasound_gemm_params(device, precision, n_voxels, n_frames, k)
        self._plan = BeamformerPlan(
            device,
            n_beams=n_voxels,
            n_receivers=k,
            n_samples=n_frames,
            batch=1,
            precision=precision,
            params=self.params,
            include_transpose=not fused_transpose,
            restore_output_scale=False,
            backend=backend,
            name="ultrasound_reconstruction",
        )

    @property
    def plan(self) -> BeamformerPlan:
        """The underlying TCBF plan (its shape, padding and cost predictions)."""
        return self._plan

    @property
    def model_prep_cost(self) -> KernelCost | None:
        """Cost of the one-time model preparation (excluded from Fig 5)."""
        return self._plan.weight_prep_cost

    def prepare_model(self) -> None:
        """One-time model-matrix preparation (tiling transpose + 1-bit pack).

        Runs outside the per-frame budget: "It excludes these steps for the
        model matrix, as this typically happens once before the experiment"
        (paper §V-A). In functional mode the plan also keeps the prepared
        matched filter, which every :meth:`reconstruct` reuses; call this
        again if the model matrix changes.
        """
        weights = None
        if self.model is not None and self.device.is_functional:
            weights = self.model.matched_filter()
        self._plan.prepare_weights(weights, name="model_prep")

    def reconstruct(self, measurement: np.ndarray | None = None) -> BeamformResult:
        """Beamform one frame batch.

        ``measurement`` is the (K, N) complex measurement matrix (already
        clutter-filtered); required in functional mode. The returned costs
        follow the paper's Fig 5 accounting: transpose + (1-bit) packing of
        the measurement, then the GEMM. The image is scale-invariant, so
        the unit-RMS operand normalization is not undone on the output.

        A functional call without a prior :meth:`prepare_model` prepares
        the model once, lazily, through :meth:`prepare_model`, which also
        keeps the one-time ``model_prep`` cost in ``model_prep_cost``.
        """
        if not self.device.is_functional:
            return self._plan.execute()
        if measurement is None:
            raise ShapeError("functional reconstruction requires the measurement matrix")
        if measurement.shape != (self.k, self.n_frames):
            raise ShapeError(
                f"measurement must be (K={self.k}, N={self.n_frames}), "
                f"got {measurement.shape}"
            )
        if self.model is None:
            raise ShapeError("functional mode requires a model matrix")
        if self.model_prep_cost is None:
            self.prepare_model()
        result = self._plan.execute(None, measurement)
        # The imaging API is unbatched: strip the TCBF plan's batch axis.
        return replace(result, output=result.output[0])


def service_workload(
    *,
    n_voxels: int = 16384,
    k: int = 4096,
    n_frames: int = 256,
    precision: Precision = Precision.INT1,
    weights_version: int = 0,
    priority: int = 0,
    tenant: str = "clinic",
    params: TuneParams | None = None,
    weights: np.ndarray | None = None,
) -> "PipelineWorkload":
    """The ultrasound request class for :mod:`repro.serve`.

    **Adapter contract** (shared with
    :func:`repro.apps.radioastronomy.beamformer.service_workload`): every
    parameter is keyword-only; the leading keywords are the domain's shape
    vocabulary and the tail is the shared serving surface, in this fixed
    order — ``precision``, ``weights_version``, ``priority``, ``tenant``,
    ``params``, ``weights``. The return value is the **single-stage
    pipeline form** (:meth:`Workload.single_stage
    <repro.serve.workload.Workload.single_stage>`): behaviourally
    byte-identical to the bare workload it wraps, accepted everywhere a
    workload is (arrivals generators, SLO maps); its ``.kernel`` is the
    bare single-kernel :class:`~repro.serve.workload.Workload`.

    One request is a frame batch — ``n_frames`` acquisitions of one probe
    to reconstruct against a shared model matrix (the matched filter).
    Measurement transpose and (for int1) packing run per request (the
    Fig 5 accounting); the image is scale-invariant, so the operand scale
    is not restored. ``weights`` optionally carries the ``(voxels, K)``
    matched filter for functional fleets; bump ``weights_version`` when
    the probe's model matrix is recomputed.

    A sonographer is watching the screen, so the default ``priority`` is 0
    — the most urgent class, preempting queued batch work (lower numbers
    are more urgent). ``tenant`` names the imaging site for weighted-fair
    queueing when several share a fleet.

    Capability note for mixed fleets: the default int1 precision exists on
    NVIDIA tensor cores only (paper §II), so the placement layer
    (:mod:`repro.serve.placement`) will never route these requests to an
    AMD device — and will shed them at the front door if the fleet has no
    NVIDIA device at all. Pass ``precision=Precision.FLOAT16`` to make the
    workload placeable fleet-wide at the float16 cost model.
    """
    from repro.serve.workload import Workload

    return Workload(
        name="ultrasound_frames",
        n_beams=n_voxels,
        n_receivers=k,
        n_samples=n_frames,
        batch_per_request=1,
        precision=precision,
        include_transpose=True,
        restore_output_scale=False,
        weights_version=weights_version,
        priority=priority,
        tenant=tenant,
        params=params,
        weights=weights,
    ).single_stage()


def pipeline_workload(
    *,
    n_voxels: int = 16384,
    k: int = 4096,
    n_frames: int = 256,
    n_ensemble: int = 64,
    precision: Precision = Precision.INT1,
    weights_version: int = 0,
    priority: int = 0,
    tenant: str = "clinic",
    params: TuneParams | None = None,
) -> "PipelineWorkload":
    """The functional-imaging chain: beamform → Doppler ensemble.

    Clinical functional imaging does not stop at the reconstructed frame:
    the frame ensemble feeds a Doppler/power-Doppler estimator (wall
    filter + lag-one autocorrelation over the ensemble — the same
    ensemble-processing stage that follows beamforming in every
    ultrafast-Doppler pipeline). One request is one acquisition ensemble
    processed end to end; the serving tier batches each stage across
    concurrent probes and prices the reconstructed-frame buffer between
    the stages as resident or transferred.

    * ``beamform`` — exactly :func:`service_workload`'s kernel: the
      matched-filter GEMM at ``precision`` (int1 by default — the paper's
      real-time mode, NVIDIA-only), measurement transpose/packing charged
      per request.
    * ``doppler`` — the ensemble correlator as a float16 GEMM: per voxel
      block, an ``(n_ensemble, n_frames)`` wall-filter/lag matrix against
      the reconstructed ``(n_frames, n_voxels)`` ensemble. Float16 keeps
      the Doppler stage placeable fleet-wide even when beamforming is
      pinned to NVIDIA int1 — the mixed-precision pipeline is the normal
      case, not a corner.

    ``priority``/``tenant`` apply to the whole pipeline; ``params`` pins
    the beamforming stage's tuning only.
    """
    from repro.serve.workload import PipelineWorkload, Stage, Workload

    beamform = Workload(
        name="beamform",
        n_beams=n_voxels,
        n_receivers=k,
        n_samples=n_frames,
        batch_per_request=1,
        precision=precision,
        include_transpose=True,
        restore_output_scale=False,
        weights_version=weights_version,
        params=params,
    )
    doppler = Workload(
        name="doppler",
        n_beams=n_ensemble,
        n_receivers=n_frames,
        n_samples=n_voxels,
        batch_per_request=1,
        precision=Precision.FLOAT16,
        include_transpose=False,
        weights_version=weights_version,
    )
    return PipelineWorkload(
        name="doppler_imaging",
        stages=(
            Stage(name="beamform", workload=beamform),
            Stage(name="doppler", workload=doppler, depends_on=("beamform",)),
        ),
        priority=priority,
        tenant=tenant,
    )

