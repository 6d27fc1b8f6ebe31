"""Multi-stage shared-memory pipeline model (paper §III-C).

On NVIDIA Ampere and later, ccglib overlaps tensor-core computation with
asynchronous global->shared copies through a multi-stage buffer: "While data
is being copied to one buffer, another buffer can be copied to the register
file and used for computations." The number of buffers is a tuning
parameter; it is "automatically set to one on AMD GPUs, which do not support
these asynchronous copies" — AMD instead hides latency through wavefront
occupancy.

Two artifacts live here:

* :func:`overlap_factor` — the analytic overlap efficiency used by the
  kernel performance model. float16 stages are kilobytes-large, so two
  stages cover DRAM latency and deeper pipelines only add shared-memory
  pressure and synchronization cost; int1 stages are tiny (a 128+64-tile
  stage is ~12 KiB even at K-chunk 256), so deeper pipelines keep winning —
  this is why Table III tunes A100 int1 to 4 buffers but all float16
  kernels to 2.
* :class:`MultiStageBuffer` — a functional model of the producer/consumer
  stage cycling with the CUDA-pipeline commit/wait semantics: no stage is
  read before it is written and at most ``num_buffers`` stages are ever in
  flight. :class:`~repro.tcbf.streaming.BlockExecutor` drives it with one
  stage per data block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ccglib.precision import Precision
from repro.errors import KernelConfigError
from repro.gpusim.arch import ArchCapabilities

#: overlap efficiency by (precision family, num_buffers) on NVIDIA.
_NVIDIA_OVERLAP: dict[Precision, dict[int, float]] = {
    Precision.FLOAT16: {1: 0.70, 2: 0.93, 3: 0.92, 4: 0.90},
    Precision.TF32: {1: 0.70, 2: 0.93, 3: 0.92, 4: 0.90},
    Precision.INT1: {1: 0.65, 2: 0.90, 3: 0.92, 4: 0.93},
}

#: AMD: no async copies; overlap comes from occupancy (modelled separately
#: by the occupancy factor), leaving a constant issue-efficiency here.
_AMD_OVERLAP = 0.92


def overlap_factor(caps: ArchCapabilities, precision: Precision, num_buffers: int) -> float:
    """Fraction of ideal MMA issue rate achieved by the copy/compute overlap."""
    if num_buffers < 1:
        raise KernelConfigError(f"num_buffers must be >= 1, got {num_buffers}")
    if not caps.async_copies:
        if num_buffers != 1:
            raise KernelConfigError(
                f"{caps.arch.value}: multi-stage buffers require asynchronous "
                "copies; num_buffers is fixed to 1 on AMD GPUs"
            )
        return _AMD_OVERLAP
    table = _NVIDIA_OVERLAP[precision]
    return table[min(num_buffers, max(table))]


@dataclass
class _Stage:
    """One shared-memory stage of the pipeline."""

    chunk_id: int | None = None
    committed: bool = False


@dataclass
class MultiStageBuffer:
    """Functional model of the CUDA pipeline primitives over N stages.

    The producer calls :meth:`producer_acquire`/:meth:`producer_commit` to
    fill stages in order; the consumer calls :meth:`consumer_wait`/
    :meth:`consumer_release`. Raises :class:`KernelConfigError` on protocol
    violations (reading uncommitted data, overrunning the stage ring).
    """

    num_buffers: int
    _stages: list[_Stage] = field(default_factory=list)
    _head: int = 0  # next stage to fill
    _tail: int = 0  # next stage to consume
    _in_flight: int = 0

    def __post_init__(self) -> None:
        if self.num_buffers < 1:
            raise KernelConfigError("pipeline needs at least one stage")
        self._stages = [_Stage() for _ in range(self.num_buffers)]

    def producer_acquire(self, chunk_id: int) -> int:
        """Claim the next stage for an async copy of ``chunk_id``."""
        if self._in_flight >= self.num_buffers:
            raise KernelConfigError(f"pipeline overrun: {self._in_flight} stages already in flight")
        idx = self._head
        stage = self._stages[idx]
        stage.chunk_id = chunk_id
        stage.committed = False
        self._head = (self._head + 1) % self.num_buffers
        self._in_flight += 1
        return idx

    def producer_commit(self, idx: int) -> None:
        """Mark the async copy into stage ``idx`` complete."""
        self._stages[idx].committed = True

    def consumer_wait(self) -> int:
        """Block until the oldest stage is committed; return its chunk id."""
        stage = self._stages[self._tail]
        if self._in_flight == 0:
            raise KernelConfigError("consumer_wait with empty pipeline")
        if not stage.committed:
            raise KernelConfigError(f"stage {self._tail} read before its copy was committed")
        assert stage.chunk_id is not None
        return stage.chunk_id

    def consumer_release(self) -> None:
        """Free the oldest stage for reuse by the producer."""
        if self._in_flight == 0:
            raise KernelConfigError("consumer_release with empty pipeline")
        self._stages[self._tail] = _Stage()
        self._tail = (self._tail + 1) % self.num_buffers
        self._in_flight -= 1
