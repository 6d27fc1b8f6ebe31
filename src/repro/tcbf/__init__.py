"""The Tensor-Core Beamformer (TCBF): the paper's unified beamformer library.

One domain-level API over ccglib for every beamforming workload ("hides the
complexities of tensor-core programming ... for multidisciplinary use"):

* :class:`~repro.tcbf.plan.BeamformerPlan` — a beams x receivers x samples
  (x batch) problem bound to a device, composing transpose, 1-bit packing,
  RMS scaling, and the complex GEMM with end-to-end cost accounting;
* :class:`~repro.tcbf.result.BeamformResult` — the shared result record
  (``beams``/``frames`` aliases, ``tflops``/``fps`` throughput accessors);
* :class:`~repro.tcbf.sharding.ShardedBeamformer` — batch- or beam-dimension
  sharding across multiple devices with aggregate-throughput accounting;
  its :func:`~repro.tcbf.sharding.execute_shards` is the one sharded
  execution path, shared with the serving tier's split placements.

A plan takes only what callers vary: the problem shape, precision, tuning
parameters, and the transpose and output-scale flags. The 1-bit packing
stage is charged iff the precision is int1, and the MMA shape and the
1-bit multiply op are ccglib's choice (paper §III).

The domain applications (:mod:`repro.apps.radioastronomy`,
:mod:`repro.apps.ultrasound`) are thin adapters over this package.
"""

from repro.tcbf.plan import BeamformerPlan
from repro.tcbf.result import BeamformResult
from repro.tcbf.scaling import rms
from repro.tcbf.sharding import (
    ShardedBeamformer,
    ShardResult,
    execute_shards,
    merge_batch_operands,
    split_batched_output,
    split_extent,
    split_extent_weighted,
)

__all__ = [
    "BeamformerPlan",
    "BeamformResult",
    "ShardedBeamformer",
    "ShardResult",
    "split_extent",
    "split_extent_weighted",
    "execute_shards",
    "merge_batch_operands",
    "split_batched_output",
    "rms",
]
