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
(the LOFAR central beamformer, §V-B) disable those stages and the total
collapses to the GEMM cost alone.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.gemm import Gemm
from repro.ccglib.layouts import ensure_batched
from repro.ccglib.packing import packing_cost, run_pack_kernel
from repro.ccglib.precision import Precision, traits
from repro.ccglib.transpose import run_transpose_kernel, transpose_cost
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError
from repro.gpusim.arch import BitOp, FragmentShape
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
        when an interleaved-input GEMM is used (§VI future work).
    include_packing:
        Charge the per-block 1-bit packing of the streaming operand;
        defaults to ``precision is INT1``. Meaningless (and forced off) for
        float precisions.
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
        bit_op: BitOp | None = None,
        fragment: FragmentShape | None = None,
        experimental_ok: bool = False,
        include_transpose: bool = True,
        include_packing: bool | None = None,
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
        if include_packing is None:
            include_packing = precision is Precision.INT1
        self.include_packing = include_packing and precision is Precision.INT1
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
            bit_op=bit_op,
            fragment=fragment,
            experimental_ok=experimental_ok,
            backend=self.backend,
        )
        #: one-time weight/filter preparation cost (set by prepare_weights).
        self.weight_prep_cost: KernelCost | None = None

    # -- introspection -------------------------------------------------------

    @property
    def params(self) -> TuneParams:
        """Tuning parameters the underlying GEMM resolved for this shape."""
        return self._gemm.params

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of this built plan (cache ground truth).

        Two plans with equal keys predict identical costs and accept the
        same operands: device, shape, precision, resolved tuning
        parameters, and every stage-inclusion flag participate. Caching
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
            self.include_packing,
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
        sharding layer reads this to stay in lockstep.
        """
        return self.restore_output_scale or self.precision is not Precision.INT1

    def _stage_in_costs(self) -> list[KernelCost]:
        """The per-block streaming stage costs, in execution order.

        Single source of the transpose/packing stage selection: both the
        prediction path (:meth:`stage_in_cost`) and the recording path
        (:meth:`execute`) consume this list.
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
        data); this is also the copy-side time the streaming executor
        overlaps with the previous block's GEMM.
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
        """Pure prediction of :meth:`prepare_weights` — nothing recorded.

        Placement layers price the cold-start (plan build + one-time weight
        preparation) of candidate devices they may never dispatch to; this
        keeps those what-if estimates off the device timeline.
        """
        tr = traits(self.precision)
        costs = [transpose_cost(self.device, self._weight_values, tr.input_bytes)]
        if self.precision is Precision.INT1:
            costs.append(packing_cost(self.device, self._weight_values, _HOST_BYTES_PER_VALUE))
        return combine_costs(name, costs)

    def prepare_weights(
        self, values_planar: np.ndarray | None = None, name: str = "weight_prep"
    ) -> KernelCost:
        """One-time preparation of the A operand (weights / matched filter).

        Tiling transpose plus — for int1 — sign packing at the GEMM's padded
        K. Recorded on the device timeline but kept out of the per-block
        budget: "this typically happens once before the experiment and does
        not need to be repeated" (paper §V-A).
        """
        n_values = self._weight_values
        tr = traits(self.precision)
        costs: list[KernelCost] = []
        _, t_cost = run_transpose_kernel(self.device, None, n_values, tr.input_bytes)
        costs.append(t_cost)
        if self.precision is Precision.INT1:
            _, p_cost = run_pack_kernel(
                self.device,
                values_planar,
                n_values,
                input_bytes_per_value=_HOST_BYTES_PER_VALUE,
                k_pad_to=self.padded_k,
                backend=self.backend,
            )
            costs.append(p_cost)
        self.weight_prep_cost = combine_costs(name, costs)
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
        ``batch == 1``); ``data``: (batch, n_receivers, n_samples) complex.
        Both are required in functional mode and ignored in dry-run. Records
        every charged stage on the device timeline in execution order and
        returns the end-to-end :class:`~repro.tcbf.result.BeamformResult`.

        ``scale`` overrides the automatic unit-RMS operand normalization —
        the sharding layer passes one global scale so every shard of a
        block normalizes identically.
        """
        if self.device.is_functional:
            weights = self._prepared_weights(weights)
            data = self._validated_data(data)
        # Per-block streaming stages (cost accounting only: the functional
        # data movement happens inside the GEMM plan, which consumes the
        # interleaved host layout directly).
        costs = self._stage_in_costs()
        for stage in costs:
            self.device.record_kernel(stage)
        output = None
        if self.device.is_functional:
            be = self.backend
            if self.needs_scale and scale is None:
                scale = rms(data, backend=be)
            # Skip the divide for pre-normalized data (scale 1.0) and the
            # cast for complex64 inputs: no hidden full-block copies.
            normalized = (
                data if not self.needs_scale or scale == 1.0 else data / scale
            )
            gemm_result = self._gemm.run(weights, be.astype(normalized, be.xp.complex64))
            output = gemm_result.output
            if self.restore_output_scale and scale != 1.0:
                # The GEMM output is fresh: restore in place, no block copy
                # (immutable backends rebind instead).
                output *= scale
        else:
            gemm_result = self._gemm.run()
        costs.append(gemm_result.cost)
        total = costs[0] if len(costs) == 1 else combine_costs(self.name, costs)
        return BeamformResult(
            output=output,
            costs=costs,
            total=total,
            n_frames=self.n_samples,
            backend=self.backend,
        )

    # -- internals -----------------------------------------------------------

    def _prepared_weights(self, weights: Any | None) -> Any:
        """Validate and convert the A operand.

        ``copy=False`` makes the conversion free for complex64 inputs (the
        common case for a weight set reused across streamed blocks) while
        still re-reading the array every call, so in-place weight updates
        between blocks are honored.
        """
        if weights is None:
            raise ShapeError("functional beamforming requires weights and data")
        be = self.backend
        batched, _ = ensure_batched(be.asarray(weights), 3, backend=be)
        expect_w = (self.batch, self.n_beams, self.n_receivers)
        if batched.shape != expect_w:
            raise ShapeError(f"weights must be {expect_w}, got {batched.shape}")
        return be.astype(batched, be.xp.complex64)

    def _validated_data(self, data: Any | None) -> Any:
        """Shape-check the streaming operand before any cost is recorded."""
        if data is None:
            raise ShapeError("functional beamforming requires weights and data")
        data, _ = ensure_batched(self.backend.asarray(data), 3, backend=self.backend)
        expect_d = (self.batch, self.n_receivers, self.n_samples)
        if data.shape != expect_d:
            raise ShapeError(f"data must be {expect_d}, got {data.shape}")
        return data
