"""The domain-level Tensor-Core Beamformer plan.

The paper's headline artifact is a beamformer library that "hides the
complexities of tensor-core programming": the user states the beamforming
problem — beams M x receivers K x samples N, optionally batched over
channels x polarizations — and the library composes ccglib's transpose,
packing, quantization/scaling and GEMM stages underneath
(paper §V: both the ultrasound and the LOFAR beamformer are "a wrapper
around ccglib").

:class:`BeamformerPlan` is that composition point. Unlike the raw
:class:`~repro.ccglib.gemm.Gemm` plan it accounts costs **end-to-end**: the
per-block total includes the streaming-operand transpose and (for int1) the
packing kernel, not just the GEMM — the accounting of the paper's Fig 5
("The processing includes the 1-bit packing and transpose of the measurement
matrix"). Applications where data are already GPU-resident in GEMM layout
(the LOFAR central beamformer, §V-B) disable the transpose, and a float
plan has no packing stage, so the total collapses to the GEMM cost alone.
The caller states only the problem; the MMA shape, the 1-bit multiply op
and packing are ccglib's to decide (paper §III).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.gemm import Gemm, PreparedOperand
from repro.ccglib.layouts import ensure_batched
from repro.ccglib.packing import packing_cost
from repro.ccglib.precision import Precision, traits
from repro.ccglib.transpose import transpose_cost
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.gpusim.timing import KernelCost, combine_costs
from repro.tcbf.result import BeamformResult
from repro.tcbf.scaling import rms

#: bytes per real-valued component of the unquantized host operand.
_HOST_BYTES_PER_VALUE = 4.0


class BeamformerPlan:
    """A beamforming problem bound to a device, streaming stages included.

    Parameters
    ----------
    device:
        Target :class:`~repro.gpusim.device.Device` (functional or dry-run).
    n_beams, n_receivers, n_samples:
        The GEMM mapping of the paper: "M represents the number of beams
        ... N is the number of samples ... K corresponds to the number of
        stations" (§V-B) — or voxels/frequencies·transceivers/frames for
        ultrasound (§V-A).
    batch:
        Independent problems per block (channels x polarizations for LOFAR).
    precision:
        Any supported :class:`~repro.ccglib.precision.Precision`.
    include_transpose:
        Charge the per-block transpose of the streaming (B) operand. Off
        when data arrive already tiled/K-major (GPU-resident pipelines) or
        when an interleaved-input GEMM is used (§VI future work). The 1-bit
        packing of the streaming operand is charged iff the precision is
        int1 — the functional GEMM packs it on every call.
    restore_output_scale:
        Multiply the output by the operand RMS again after the GEMM. On for
        absolute-calibrated pipelines (LOFAR); off for scale-invariant
        imaging (ultrasound power Doppler).
    backend:
        Array-execution backend for the functional path (name, instance, or
        ``None`` for the NumPy reference). The whole pipeline — RMS
        normalization, pack, transpose, GEMM, scale restore — runs in this
        backend's namespace; outputs stay on its device.
    name:
        Label of the combined multi-stage cost record.
    """

    def __init__(
        self,
        device: Device,
        *,
        n_beams: int,
        n_receivers: int,
        n_samples: int,
        batch: int = 1,
        precision: Precision = Precision.FLOAT16,
        params: TuneParams | None = None,
        include_transpose: bool = True,
        restore_output_scale: bool = False,
        backend: ArrayBackend | str | None = None,
        name: str = "beamform_block",
    ):
        self.device = device
        self.backend = get_backend(backend)
        self.n_beams = n_beams
        self.n_receivers = n_receivers
        self.n_samples = n_samples
        self.batch = batch
        self.precision = precision
        self.include_transpose = include_transpose
        self.restore_output_scale = restore_output_scale
        self.name = name
        self._gemm = Gemm(
            device,
            precision,
            batch=batch,
            m=n_beams,
            n=n_samples,
            k=n_receivers,
            params=params,
            backend=self.backend,
        )
        #: one-time weight/filter preparation cost (set by prepare_weights).
        self.weight_prep_cost: KernelCost | None = None
        #: A operand kept by prepare_weights for ``execute(None, data)``.
        self._prepared_a: PreparedOperand | None = None

    # -- introspection -------------------------------------------------------

    @property
    def params(self) -> TuneParams:
        """Tuning parameters the underlying GEMM resolved for this shape."""
        return self._gemm.params

    @property
    def include_packing(self) -> bool:
        """Whether the per-block 1-bit packing stage is charged (int1 only)."""
        return self.precision is Precision.INT1

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of this built plan (cache ground truth).

        Two plans with equal keys predict identical costs and accept the
        same operands: device, shape, precision (which fixes the packing
        stage), resolved tuning parameters, the transpose and scale flags
        and the backend participate. Caching
        layers that key on pre-build descriptors — the serving tier's
        :class:`~repro.serve.cache.PlanCache` derives its key from
        :meth:`Workload.compat_key <repro.serve.workload.Workload.compat_key>`
        before any plan exists — use this property to cross-check that
        distinct entries really hold distinct plans.
        """
        return (
            self.device.name,
            self.batch,
            self.n_beams,
            self.n_receivers,
            self.n_samples,
            self.precision.value,
            self.params,
            self.include_transpose,
            self.restore_output_scale,
            self.backend.name,
        )

    @property
    def padded_k(self) -> int:
        return self._gemm.padded_k

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """(batch, n_beams, n_receivers, n_samples)."""
        return (self.batch, self.n_beams, self.n_receivers, self.n_samples)

    #: number of real values in one streaming (B) operand block.
    @property
    def _stream_values(self) -> int:
        return 2 * self.batch * self.n_receivers * self.n_samples

    def predict_gemm_cost(self) -> KernelCost:
        """GEMM-only cost prediction (the paper's Fig 7 accounting)."""
        return self._gemm.predict_cost()

    @property
    def needs_scale(self) -> bool:
        """Whether execution normalizes the operand by its RMS.

        Sign quantization is invariant under positive scaling, so a
        non-restoring int1 plan skips the normalization entirely; the
        serving tier's split placement reads this to skip the block RMS
        too.
        """
        return self.restore_output_scale or self.precision is not Precision.INT1

    def _stage_in_costs(self) -> list[KernelCost]:
        """The per-block streaming stage costs, in execution order.

        Single source of the transpose/packing stage selection: both the
        prediction path (:meth:`stage_in_cost`) and :meth:`execute` consume
        this list.
        """
        costs: list[KernelCost] = []
        tr = traits(self.precision)
        if self.include_transpose:
            costs.append(transpose_cost(self.device, self._stream_values, tr.input_bytes))
        if self.include_packing:
            costs.append(packing_cost(self.device, self._stream_values, _HOST_BYTES_PER_VALUE))
        return costs

    def stage_in_cost(self) -> KernelCost | None:
        """Combined cost of the per-block streaming stages (transpose+pack).

        ``None`` when the plan charges no streaming stage (GPU-resident
        data); this is also the copy-side time a serving worker
        (:class:`~repro.serve.dispatch.DeviceWorker`) overlaps with the
        previous batch's GEMM.
        """
        costs = self._stage_in_costs()
        if not costs:
            return None
        if len(costs) == 1:
            return costs[0]
        return combine_costs("stage_in", costs)

    def predict_block_cost(self) -> KernelCost:
        """End-to-end cost of one block: transpose + packing + GEMM.

        This is what distinguishes the beamformer-level accounting from the
        GEMM-level one: the streaming helper kernels are part of the block
        budget (Fig 5), not an afterthought.
        """
        stage_in = self.stage_in_cost()
        gemm = self.predict_gemm_cost()
        if stage_in is None:
            return gemm
        return combine_costs(self.name, [stage_in, gemm])

    # -- one-time weight preparation ----------------------------------------

    @property
    def _weight_values(self) -> int:
        """Real values in the A operand (weights / matched filter)."""
        return 2 * self.batch * self.n_beams * self.n_receivers

    def predict_weight_prep_cost(self, name: str = "weight_prep") -> KernelCost:
        """Pure prediction of :meth:`prepare_weights` — nothing is prepared.

        The weight-side stages, in execution order: the tiling transpose,
        plus the 1-bit pack for int1 (the counterpart of
        :meth:`_stage_in_costs` for the streaming operand). Placement layers
        price the cold-start (plan build + one-time weight preparation) of
        candidate devices they may never dispatch to.
        """
        tr = traits(self.precision)
        costs = [transpose_cost(self.device, self._weight_values, tr.input_bytes)]
        if self.precision is Precision.INT1:
            costs.append(packing_cost(self.device, self._weight_values, _HOST_BYTES_PER_VALUE))
        return combine_costs(name, costs)

    def prepare_weights(self, weights: Any | None = None, name: str = "weight_prep") -> KernelCost:
        """One-time preparation of the A operand (weights / matched filter).

        Charges the tiling transpose plus — for int1 — the sign packing at
        the GEMM's padded K to :attr:`weight_prep_cost`, kept out of the
        per-block budget: "this typically happens once before the
        experiment and does not need to be repeated" (paper §V-A).

        Given ``weights`` — (batch, n_beams, n_receivers) complex, 2-D
        allowed when ``batch == 1`` — on a functional device, the plan
        also keeps the prepared operand (:meth:`Gemm.prepare_a
        <repro.ccglib.gemm.Gemm.prepare_a>`: packed words for int1, planar
        planes already rounded to the precision's grid otherwise) and
        ``execute(None, data)`` reuses it on every block. The operand is
        a snapshot: call this again after the weights change. Without
        ``weights`` (or on a dry-run device) only the cost is charged.
        Malformed weights raise :class:`~repro.errors.ShapeError` before
        anything is charged.
        """
        if weights is not None and self.device.is_functional:
            self._prepared_a = self._gemm.prepare_a(self._validated_weights(weights))
        self.weight_prep_cost = self.predict_weight_prep_cost(name)
        return self.weight_prep_cost

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        weights: np.ndarray | None = None,
        data: np.ndarray | None = None,
        *,
        scale: float | None = None,
    ) -> BeamformResult:
        """Beamform one block: ``out[b] = weights[b] @ data[b]``.

        ``weights``: (batch, n_beams, n_receivers) complex (2-D allowed when
        ``batch == 1``), or ``None`` to use the operand kept by
        :meth:`prepare_weights`; ``data``: (batch, n_receivers, n_samples)
        complex. Per-call weights are prepared again on every block, so
        in-place updates between blocks are honoured. In functional mode
        ``data`` and one of the two weight sources are required (a
        :class:`~repro.errors.ShapeError` otherwise, raised before any work
        is done); dry-run ignores the operands. Returns the end-to-end
        :class:`~repro.tcbf.result.BeamformResult`, whose ``costs`` list
        every charged stage in execution order.

        ``scale`` overrides the automatic unit-RMS operand normalization —
        the serving tier's split placement passes one global scale so every
        shard of a block normalizes identically. The RMS is computed here, once per
        block; the divide of ``data`` by the scale (and, for
        ``restore_output_scale``, the multiply of the output by it) happen
        in :meth:`Gemm.run <repro.ccglib.gemm.Gemm.run>`, which on NumPy
        float16 applies both one cache-sized chunk of batch items at a
        time, bit for bit as the whole-array ``data / scale`` and
        ``output *= scale``.
        """
        if self.device.is_functional:
            weights = self._prepared_a if weights is None else self._validated_weights(weights)
            if weights is None:
                raise ShapeError(
                    "functional beamforming requires weights (per call or from "
                    "prepare_weights) and data"
                )
            data = self._validated_data(data)
        # Per-block streaming stages (cost accounting only: the functional
        # data movement happens inside the GEMM plan, which consumes the
        # interleaved host layout directly).
        costs = self._stage_in_costs()
        output = None
        if self.device.is_functional:
            be = self.backend
            if self.needs_scale and scale is None:
                scale = rms(data, backend=be)
            # Pre-normalized data (scale 1.0) are neither divided nor
            # restored; complex64 data are not cast: no hidden block copies.
            if self.needs_scale and scale != 1.0:
                gemm_result = self._gemm.run(
                    weights, data, scale=scale, restore_scale=self.restore_output_scale
                )
            else:
                gemm_result = self._gemm.run(weights, be.astype(data, be.xp.complex64))
            output = gemm_result.output
        else:
            gemm_result = self._gemm.run()
        costs.append(gemm_result.cost)
        total = costs[0] if len(costs) == 1 else combine_costs(self.name, costs)
        return BeamformResult(
            output=output,
            costs=costs,
            total=total,
            n_frames=self.n_samples,
        )

    # -- internals -----------------------------------------------------------

    def _validated_weights(self, weights: Any) -> Any:
        """Shape-check the interleaved A operand and make it complex64.

        The cast is free for complex64 inputs (the common case for a weight
        set reused across streamed blocks). Per-call weights are re-read on
        every block, so in-place updates between blocks are honoured; the
        operand kept by :meth:`prepare_weights` is a snapshot that must be
        re-prepared after the weights change.
        """
        be = self.backend
        batched, _ = ensure_batched(be.asarray(weights), 3, backend=be)
        expect_w = (self.batch, self.n_beams, self.n_receivers)
        if batched.shape != expect_w:
            raise ShapeError(f"weights must be {expect_w}, got {batched.shape}")
        return be.astype(batched, be.xp.complex64)

    def _validated_data(self, data: Any | None) -> Any:
        """Shape-check the streaming operand before any work is done."""
        if data is None:
            raise ShapeError("functional beamforming requires weights and data")
        data, _ = ensure_batched(self.backend.asarray(data), 3, backend=self.backend)
        expect_d = (self.batch, self.n_receivers, self.n_samples)
        if data.shape != expect_d:
            raise ShapeError(f"data must be {expect_d}, got {data.shape}")
        return data
