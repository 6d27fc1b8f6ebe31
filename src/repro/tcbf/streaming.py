"""Streaming block execution with cross-block copy/compute overlap.

A real-time beamformer does not see one matrix: it sees an endless sequence
of data blocks. Within a kernel, ccglib already overlaps async copies with
tensor-core math through its multi-stage buffer (paper §III-C); this module
lifts the same producer/consumer discipline one level up, so the transpose +
packing of block *i+1* ("stage-in", the copy side) overlaps the GEMM of
block *i* (the compute side).

:class:`BlockExecutor` reuses :class:`~repro.ccglib.pipeline.MultiStageBuffer`
for the protocol — blocks must be consumed in submission order, at most
``num_buffers`` blocks may be in flight, and violations raise
:class:`~repro.errors.KernelConfigError` exactly like the kernel-level
pipeline. The pipelined makespan comes from a small event model over the two
"engines" (copy, compute): with one buffer the schedule degenerates to
serial execution, mirroring the AMD no-async-copies case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.ccglib.pipeline import MultiStageBuffer
from repro.errors import KernelConfigError
from repro.tcbf.plan import BeamformerPlan
from repro.tcbf.result import BeamformResult
from repro.util.units import tera


@dataclass(frozen=True)
class StreamStats:
    """Aggregate timing of a streamed block sequence.

    ``serial_time_s`` is the no-overlap sum of every stage;
    ``pipelined_time_s`` is the modelled makespan with stage-in/GEMM overlap
    across blocks (equal to serial when ``num_buffers == 1``).
    """

    num_blocks: int
    num_buffers: int
    n_frames_per_block: int
    serial_time_s: float
    pipelined_time_s: float
    stage_in_time_s: float
    compute_time_s: float
    #: application-level GEMM operations across all blocks (helper-kernel
    #: element moves excluded).
    useful_ops: float

    @property
    def overlap_speedup(self) -> float:
        """serial / pipelined — 1.0 means no overlap was won."""
        if self.pipelined_time_s <= 0:
            return 1.0
        return self.serial_time_s / self.pipelined_time_s

    @property
    def blocks_per_second(self) -> float:
        return self.num_blocks / self.pipelined_time_s if self.pipelined_time_s > 0 else 0.0

    @property
    def fps(self) -> float:
        """Sustained frames (samples) per second across the whole stream."""
        return self.blocks_per_second * self.n_frames_per_block

    @property
    def tflops(self) -> float:
        """Sustained useful throughput over the pipelined makespan."""
        return self.useful_ops / self.pipelined_time_s / tera if self.pipelined_time_s > 0 else 0.0


class BlockExecutor:
    """Pipelines data blocks through a :class:`BeamformerPlan`.

    ``submit`` stages a block (producer acquire + commit); ``collect``
    consumes the oldest staged block (consumer wait + release) and runs the
    plan on it. Submitting more than ``num_buffers`` blocks without
    collecting overruns the stage ring and raises
    :class:`~repro.errors.KernelConfigError`, as does collecting from an
    empty pipeline — the same protocol the in-kernel pipeline enforces.

    Per-block history (``consumed``, the timing lists behind :meth:`stats`)
    grows with the stream.
    """

    def __init__(self, plan: BeamformerPlan, num_buffers: int = 2):
        self.plan = plan
        self.num_buffers = num_buffers
        self._pipe = MultiStageBuffer(num_buffers)
        self._staged: deque[tuple[int, Any | None, Any | None]] = deque()
        self._next_id = 0
        #: block ids in consumption order (a test invariant: equals submission order).
        self.consumed: list[int] = []
        self._stage_in_times: list[float] = []
        self._compute_times: list[float] = []
        self._gemm_ops: list[float] = []

    def submit(self, weights: Any | None = None, data: Any | None = None) -> int:
        """Stage one block for execution; returns its sequence id."""
        idx = self._pipe.producer_acquire(self._next_id)
        self._pipe.producer_commit(idx)
        self._staged.append((self._next_id, weights, data))
        self._next_id += 1
        return self._next_id - 1

    def collect(self) -> BeamformResult:
        """Execute and return the oldest staged block (submission order)."""
        chunk_id = self._pipe.consumer_wait()
        block_id, weights, data = self._staged[0]
        if block_id != chunk_id:
            raise KernelConfigError(
                f"pipeline consumed block {chunk_id} but block {block_id} was next"
            )
        # Execute before releasing the stage: a rejected block (shape error)
        # must stay staged so the executor state and stats remain consistent.
        result = self.plan.execute(weights, data)
        self._pipe.consumer_release()
        self._staged.popleft()
        self.consumed.append(chunk_id)
        gemm = result.gemm_cost
        self._stage_in_times.append(result.total.time_s - gemm.time_s)
        self._compute_times.append(gemm.time_s)
        # Count the GEMM's application-level ops only: transpose/pack report
        # element moves in useful_ops, which are not FLOPs.
        self._gemm_ops.append(gemm.useful_ops)
        return result

    def run_stream(
        self,
        blocks: list[Any | None],
        weights: Any | None = None,
    ) -> tuple[list[BeamformResult], StreamStats]:
        """Software-pipeline a whole block sequence.

        ``blocks`` holds the streaming (B) operand of each block (``None``
        entries for dry-run devices); ``weights`` is the A operand shared by
        every block (beam weights / matched filter change rarely). Prefetches
        up to ``num_buffers`` blocks, then steady-state collect-one /
        submit-one, and returns results in submission order plus the
        aggregate :class:`StreamStats`.
        """
        if self._staged:
            raise KernelConfigError(
                f"run_stream on an executor with {len(self._staged)} manually "
                "staged block(s): collect them first, or stream everything "
                "through run_stream"
            )
        results: list[BeamformResult] = []
        n_blocks = len(blocks)
        first_block = len(self._compute_times)
        submitted = 0
        for _ in range(min(self.num_buffers, n_blocks)):
            self.submit(weights, blocks[submitted])
            submitted += 1
        while len(results) < n_blocks:
            results.append(self.collect())
            if submitted < n_blocks:
                self.submit(weights, blocks[submitted])
                submitted += 1
        return results, self.stats(start_block=first_block)

    def stats(self, start_block: int = 0) -> StreamStats:
        """Timing aggregate over collected blocks.

        By default covers the executor's whole lifetime; ``start_block``
        restricts it to a suffix — ``run_stream`` uses this so a reused
        executor returns stats for its own blocks only.
        """
        stage_in = self._stage_in_times[start_block:]
        compute = self._compute_times[start_block:]
        makespan = pipelined_makespan(stage_in, compute, self.num_buffers)
        return StreamStats(
            num_blocks=len(compute),
            num_buffers=self.num_buffers,
            n_frames_per_block=self.plan.n_samples,
            serial_time_s=sum(stage_in) + sum(compute),
            pipelined_time_s=makespan,
            stage_in_time_s=sum(stage_in),
            compute_time_s=sum(compute),
            useful_ops=sum(self._gemm_ops[start_block:]),
        )


def pipelined_makespan(
    stage_in_times: list[float], compute_times: list[float], num_buffers: int
) -> float:
    """Makespan of an in-order two-engine pipeline with a bounded ring.

    Block *i*'s stage-in may start once the copy engine is free **and** the
    stage ring has room (block ``i - num_buffers`` fully consumed); its GEMM
    starts once its stage-in and the previous GEMM are done. With
    ``num_buffers == 1`` the ring constraint serializes everything — the
    same degeneration the kernel-level pipeline has on AMD.
    """
    if num_buffers < 1:
        raise KernelConfigError(f"num_buffers must be >= 1, got {num_buffers}")
    if len(stage_in_times) != len(compute_times):
        raise ValueError("stage-in and compute time lists must align")
    copy_end: list[float] = []
    compute_end: list[float] = []
    for i, (t_in, t_c) in enumerate(zip(stage_in_times, compute_times)):
        copy_start = copy_end[i - 1] if i > 0 else 0.0
        if i >= num_buffers:
            copy_start = max(copy_start, compute_end[i - num_buffers])
        copy_end.append(copy_start + t_in)
        compute_start = max(copy_end[i], compute_end[i - 1] if i > 0 else 0.0)
        compute_end.append(compute_start + t_c)
    return compute_end[-1] if compute_end else 0.0
