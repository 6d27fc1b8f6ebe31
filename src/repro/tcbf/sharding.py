"""Multi-device beamforming: shard one problem across several GPUs.

The roadmap scenario beyond the paper: a telescope with more channels (or an
imaging volume with more voxels) than one GPU can beamform in real time.
Two axes shard naturally:

* ``batch`` — the channels x polarizations batch is embarrassingly parallel
  (each device beamforms a disjoint channel range with the full weight set);
* ``beams`` — the M axis splits the weight matrix, every device sees all
  input samples but forms a disjoint beam range (useful when a single batch
  item is too large).

:class:`ShardedBeamformer` builds one :class:`~repro.tcbf.plan.BeamformerPlan`
per device and runs them through :func:`execute_shards` — the one sharded
execution path, which the serving tier's split placements share — and
aggregates the per-shard costs: the modelled wall time of a block is the slowest shard (devices run
concurrently), so aggregate throughput is total useful ops over that
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import ensure_batched
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import DeviceError, ShapeError
from repro.gpusim.device import Device
from repro.tcbf.plan import BeamformerPlan
from repro.tcbf.result import BeamformResult
from repro.tcbf.scaling import rms
from repro.util.units import tera

#: dimensions a beamforming problem can be sharded along.
SHARD_DIMS = ("batch", "beams")


def split_extent(total: int, parts: int) -> list[int]:
    """Near-equal split of ``total`` units over ``parts`` shards.

    The first ``total % parts`` shards get one extra unit; every shard is
    non-empty (raises :class:`ShapeError` otherwise).
    """
    if parts < 1:
        raise ShapeError(f"need at least one shard, got {parts}")
    if total < parts:
        raise ShapeError(f"cannot split {total} units over {parts} devices")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def split_extent_weighted(total: int, weights: Sequence[float]) -> list[int]:
    """Capacity-proportional split of ``total`` units over weighted shards.

    Largest-remainder rounding, deterministic (remainder ties go to the
    lowest index), every shard non-empty. The heterogeneous-fleet
    counterpart of :func:`split_extent`: a device with twice the memory (or
    throughput) weight takes twice the extent, which is what lets a
    GH200 + MI300X pair host a problem an equal split would overflow on
    the smaller device.
    """
    if not weights:
        raise ShapeError("need at least one shard weight")
    if any(w <= 0 for w in weights):
        raise ShapeError(f"shard weights must be positive, got {list(weights)}")
    parts = len(weights)
    if total < parts:
        raise ShapeError(f"cannot split {total} units over {parts} devices")
    wsum = float(sum(weights))
    raw = [total * w / wsum for w in weights]
    extents = [int(r) for r in raw]
    order = sorted(range(parts), key=lambda i: (-(raw[i] - extents[i]), i))
    for i in order[: total - sum(extents)]:
        extents[i] += 1
    # A vanishing weight share can round to zero; steal a unit from the
    # largest shard (ties: lowest index) so every device gets real work.
    for i in range(parts):
        while extents[i] < 1:
            donor = max(range(parts), key=lambda k: (extents[k], -k))
            extents[donor] -= 1
            extents[i] += 1
    return extents


def merge_batch_operands(
    weights: Any,
    data_blocks: Sequence[Any],
    backend: ArrayBackend | None = None,
) -> tuple[Any, Any]:
    """Stack compatible per-request operands into one batched GEMM block.

    The inverse direction of sharding: several small requests that share one
    weight set (same calibration / matched filter) coalesce into a single
    :class:`~repro.tcbf.plan.BeamformerPlan` execution with
    ``batch = n_requests * per_request_batch``. ``weights`` is the shared
    per-request A operand ``(b, M, K)`` (2-D allowed when ``b == 1``) and is
    repeated once per request; ``data_blocks`` holds each request's B operand
    ``(b, K, N)``. The merged output splits back per request with
    :func:`split_batched_output`.
    """
    if not data_blocks:
        raise ShapeError("cannot merge an empty request list")
    be = get_backend(backend)
    weights, _ = ensure_batched(be.asarray(weights), 3, backend=be)
    blocks = []
    for block in data_blocks:
        block, _ = ensure_batched(be.asarray(block), 3, backend=be)
        if block.shape[0] != weights.shape[0] or block.shape[1] != weights.shape[2]:
            raise ShapeError(
                f"request block {block.shape} incompatible with weights "
                f"{weights.shape}: per-request batch and K must match"
            )
        blocks.append(block)
    if len({b.shape for b in blocks}) > 1:
        raise ShapeError(f"cannot merge blocks of differing shapes: {[b.shape for b in blocks]}")
    merged_weights = be.xp.concatenate([weights] * len(blocks), axis=0)
    merged_data = be.xp.concatenate(blocks, axis=0)
    return merged_weights, merged_data


def split_batched_output(
    output: Any,
    extents: Sequence[int],
    axis: int = 0,
    backend: ArrayBackend | None = None,
) -> list[Any]:
    """Scatter a merged batch output back into per-request slices.

    ``extents`` are the batch extents of the coalesced requests in merge
    order; they must exactly cover ``output`` along ``axis``. Returns one
    view per request (no copies), so the serving layer can hand each caller
    its own result without duplicating the block.
    """
    if not extents:
        raise ShapeError("cannot split over an empty extent list")
    if any(e < 1 for e in extents):
        raise ShapeError(f"extents must be positive, got {list(extents)}")
    total = sum(extents)
    if output.shape[axis] != total:
        raise ShapeError(
            f"extents sum to {total} but output has {output.shape[axis]} "
            f"along axis {axis}"
        )
    be = get_backend(backend)
    bounds = [int(b) for b in np.cumsum(list(extents))[:-1]]
    return be.xp.split(output, bounds, axis=axis)


@dataclass
class ShardResult:
    """Outcome of one multi-device beamformed block.

    ``output`` is the merged result (concatenated along the sharded axis);
    ``shards`` holds each device's own :class:`BeamformResult`. Devices run
    concurrently, so the block's wall time is the slowest shard — the basis
    of every aggregate throughput accessor.
    """

    output: Any | None
    shards: list[BeamformResult]
    shard_dim: str
    shard_sizes: list[int]

    @property
    def wall_time_s(self) -> float:
        """Modelled block latency: the slowest device's end-to-end time."""
        return max(s.total.time_s for s in self.shards)

    @property
    def useful_ops(self) -> float:
        """Application-level GEMM operations across all shards.

        Helper-kernel element moves are excluded, matching the GEMM-only
        numerator of ``BeamformResult.tflops``.
        """
        return sum(s.gemm_cost.useful_ops for s in self.shards)

    @property
    def energy_j(self) -> float:
        return sum(s.total.energy_j for s in self.shards)

    @property
    def ops_per_second(self) -> float:
        """Aggregate throughput: all shards' useful ops over the wall time."""
        return self.useful_ops / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def tflops(self) -> float:
        return self.ops_per_second / tera

def execute_shards(
    plans: Sequence[BeamformerPlan],
    weights: Any | None,
    data: Any | None,
    shard_dim: str = "batch",
) -> ShardResult:
    """Beamform one block across per-shard plans and merge the outputs.

    The one sharded-execution path: :class:`ShardedBeamformer` and the
    serving tier's split placements both run here. Each plan covers one
    disjoint range of ``shard_dim`` — batch items (full weights and data
    rows per range) or beams (weight rows, with the full data) — and every
    other extent is shared. Functional plans validate the operands against
    the full problem shape first, so an oversized operand is rejected like
    the single-device plan rejects it, never silently truncated; normalize
    the block by one global RMS (per-shard RMS would scale each slice
    differently and corrupt relative amplitudes across the merged output);
    and concatenate the shard outputs back along the same axis. Dry-run
    plans ignore the operands and return their shard's cost only.
    """
    if not plans:
        raise ShapeError("sharded execution requires at least one plan")
    if shard_dim not in SHARD_DIMS:
        raise ShapeError(f"shard_dim must be one of {SHARD_DIMS}, got {shard_dim!r}")
    first = plans[0]
    extents = [p.batch if shard_dim == "batch" else p.n_beams for p in plans]
    be = first.backend
    scale = None
    if not first.device.is_functional:
        # Dry-run shards ignore operands (like the single-device plan), so
        # skip the full-block normalization pass and copies.
        weights = data = None
    elif weights is not None and data is not None:
        total = sum(extents)
        batch = total if shard_dim == "batch" else first.batch
        n_beams = total if shard_dim == "beams" else first.n_beams
        weights, _ = ensure_batched(be.asarray(weights), 3, backend=be)
        data, _ = ensure_batched(be.asarray(data), 3, backend=be)
        expect_w = (batch, n_beams, first.n_receivers)
        expect_d = (batch, first.n_receivers, first.n_samples)
        if weights.shape != expect_w:
            raise ShapeError(f"weights must be {expect_w}, got {weights.shape}")
        if data.shape != expect_d:
            raise ShapeError(f"data must be {expect_d}, got {data.shape}")
        # Skipped entirely when the plans skip it too (int1 without
        # output-scale restore).
        if first.needs_scale:
            scale = rms(data, backend=be)
            if shard_dim == "beams":
                # Every shard consumes the identical full data block, so
                # normalize it once instead of once per device.
                data = be.astype(data / scale, be.xp.complex64)
    shards: list[BeamformResult] = []
    offset = 0
    for plan, size in zip(plans, extents):
        w_shard = d_shard = shard_scale = None
        if weights is not None and data is not None:
            if shard_dim == "batch":
                w_shard = weights[offset : offset + size]
                d_shard = data[offset : offset + size]
                shard_scale = scale
            else:
                w_shard = weights[..., offset : offset + size, :]
                d_shard = data
                shard_scale = 1.0  # already normalized (or scale-free)
        result = plan.execute(w_shard, d_shard, scale=shard_scale)
        if (
            shard_dim == "beams"
            and plan.restore_output_scale
            and result.output is not None
            and scale is not None
            and scale != 1.0
        ):
            # Beams-mode plans saw pre-normalized data (unit scale), so
            # restore the true scale here, in place on the shard's fresh
            # output (immutable backends rebind).
            result.output *= scale
        shards.append(result)
        offset += size
    output = None
    if all(s.output is not None for s in shards):
        axis = 0 if shard_dim == "batch" else 1
        output = be.xp.concatenate([s.output for s in shards], axis=axis)
    return ShardResult(output=output, shards=shards, shard_dim=shard_dim, shard_sizes=extents)


class ShardedBeamformer:
    """One beamforming problem spread over several (simulated) devices.

    Accepts the same problem description as :class:`BeamformerPlan` plus the
    device list and the shard dimension; every stage-inclusion flag is
    forwarded to the per-device plans, so sharded LOFAR (GEMM-only
    accounting) and sharded ultrasound (transpose+pack included) both work.
    Execution is :func:`execute_shards` over those plans.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        *,
        n_beams: int,
        n_receivers: int,
        n_samples: int,
        batch: int = 1,
        precision: Precision = Precision.FLOAT16,
        shard_dim: str = "batch",
        params: TuneParams | None = None,
        include_transpose: bool = True,
        restore_output_scale: bool = False,
        backend: ArrayBackend | str | None = None,
        name: str = "beamform_block",
    ):
        if not devices:
            raise ShapeError("sharding requires at least one device")
        if shard_dim not in SHARD_DIMS:
            raise ShapeError(f"shard_dim must be one of {SHARD_DIMS}, got {shard_dim!r}")
        if len({device.is_functional for device in devices}) > 1:
            # A mixed fleet would silently drop the functional shards'
            # outputs (dry-run shards produce none to merge).
            raise DeviceError(
                "sharded devices must share one execution mode; "
                "got a mix of functional and dry-run"
            )
        self.devices = list(devices)
        self.shard_dim = shard_dim
        total = batch if shard_dim == "batch" else n_beams
        self.shard_sizes = split_extent(total, len(self.devices))
        self.plans = [
            BeamformerPlan(
                device,
                n_beams=size if shard_dim == "beams" else n_beams,
                n_receivers=n_receivers,
                n_samples=n_samples,
                batch=size if shard_dim == "batch" else batch,
                precision=precision,
                params=params,
                include_transpose=include_transpose,
                restore_output_scale=restore_output_scale,
                backend=backend,
                name=name,
            )
            for device, size in zip(self.devices, self.shard_sizes)
        ]

    # -- execution -----------------------------------------------------------

    def execute(self, weights: Any | None = None, data: Any | None = None) -> ShardResult:
        """Beamform one block across all devices and merge the outputs."""
        return execute_shards(self.plans, weights, data, self.shard_dim)
