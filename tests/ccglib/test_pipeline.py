"""Multi-stage buffer model and overlap factors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.pipeline import MultiStageBuffer, overlap_factor
from repro.ccglib.precision import Precision
from repro.errors import KernelConfigError
from repro.gpusim.arch import Architecture, capabilities
from repro.gpusim.device import Device, ExecutionMode
from repro.tcbf import BeamformerPlan, BlockExecutor


class TestOverlapFactor:
    def test_two_buffers_beat_one_on_nvidia(self):
        caps = capabilities(Architecture.AMPERE)
        for precision in (Precision.FLOAT16, Precision.INT1):
            assert overlap_factor(caps, precision, 2) > overlap_factor(caps, precision, 1)

    def test_fp16_peaks_at_two_buffers(self):
        # Large fp16 stages: deeper pipelines stop paying off (Table III
        # tunes every float16 kernel to 2 buffers).
        caps = capabilities(Architecture.AMPERE)
        assert overlap_factor(caps, Precision.FLOAT16, 2) >= overlap_factor(
            caps, Precision.FLOAT16, 4
        )

    def test_int1_keeps_gaining(self):
        caps = capabilities(Architecture.AMPERE)
        assert overlap_factor(caps, Precision.INT1, 4) > overlap_factor(caps, Precision.INT1, 2)

    def test_amd_requires_single_buffer(self):
        caps = capabilities(Architecture.CDNA3)
        assert overlap_factor(caps, Precision.FLOAT16, 1) > 0
        with pytest.raises(KernelConfigError, match="fixed to 1"):
            overlap_factor(caps, Precision.FLOAT16, 2)

    def test_depth_clamped_beyond_table(self):
        caps = capabilities(Architecture.AMPERE)
        assert overlap_factor(caps, Precision.INT1, 9) == overlap_factor(caps, Precision.INT1, 4)

    def test_zero_buffers_invalid(self):
        caps = capabilities(Architecture.AMPERE)
        with pytest.raises(KernelConfigError):
            overlap_factor(caps, Precision.FLOAT16, 0)


class TestMultiStageBuffer:
    def test_fill_then_drain(self):
        pipe = MultiStageBuffer(2)
        i0 = pipe.producer_acquire(10)
        pipe.producer_commit(i0)
        assert pipe.consumer_wait() == 10
        pipe.consumer_release()
        with pytest.raises(KernelConfigError):
            pipe.consumer_wait()  # drained
        pipe.producer_acquire(11)
        pipe.producer_acquire(12)  # both stages free again

    def test_overrun_detected(self):
        pipe = MultiStageBuffer(2)
        pipe.producer_acquire(0)
        pipe.producer_acquire(1)
        with pytest.raises(KernelConfigError, match="overrun"):
            pipe.producer_acquire(2)

    def test_read_before_commit_detected(self):
        pipe = MultiStageBuffer(1)
        pipe.producer_acquire(0)
        with pytest.raises(KernelConfigError, match="before its copy"):
            pipe.consumer_wait()

    def test_empty_wait_and_release(self):
        pipe = MultiStageBuffer(1)
        with pytest.raises(KernelConfigError):
            pipe.consumer_wait()
        with pytest.raises(KernelConfigError):
            pipe.consumer_release()

    def test_invalid_depth(self):
        with pytest.raises(KernelConfigError):
            MultiStageBuffer(0)


class TestPipelinedExecution:
    """The buffer driven the way production drives it: one stage per block
    of a :class:`~repro.tcbf.streaming.BlockExecutor` stream."""

    @given(st.integers(1, 6), st.integers(0, 40))
    def test_order_preserved(self, depth, n_chunks):
        plan = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN), n_beams=64, n_receivers=64, n_samples=64
        )
        executor = BlockExecutor(plan, num_buffers=depth)
        results, _ = executor.run_stream([None] * n_chunks)
        assert executor.consumed == list(range(n_chunks))
        assert len(results) == n_chunks

    @given(st.integers(1, 4))
    def test_in_flight_bounded(self, depth):
        # A stream longer than the ring completes only if every collect
        # releases its stage; afterwards exactly ``depth`` stages are free.
        plan = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN), n_beams=64, n_receivers=64, n_samples=64
        )
        executor = BlockExecutor(plan, num_buffers=depth)
        executor.run_stream([None] * (depth * 3 + 1))
        assert executor.consumed == list(range(depth * 3 + 1))
        for _ in range(depth):
            executor.submit()
        with pytest.raises(KernelConfigError):
            executor.submit()
