"""The Tensor-Core Beamformer (TCBF): the paper's unified beamformer library.

One domain-level API over ccglib for every beamforming workload ("hides the
complexities of tensor-core programming ... for multidisciplinary use"):

* :class:`~repro.tcbf.plan.BeamformerPlan` — a beams x receivers x samples
  (x batch) problem bound to a device, composing transpose, 1-bit packing,
  RMS scaling, and the complex GEMM with end-to-end cost accounting;
* :class:`~repro.tcbf.result.BeamformResult` — the shared result record
  (``beams``/``frames`` aliases, ``tflops``/``fps`` throughput accessors);
* :func:`~repro.tcbf.scaling.rms` — the block's unit-RMS operand scale.

A plan beamforms on one device, as the paper's library does. Splitting a
problem over several devices is the serving tier's job
(:mod:`repro.serve`'s split placement), which runs one plan per shard.

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

__all__ = [
    "BeamformerPlan",
    "BeamformResult",
    "rms",
]
