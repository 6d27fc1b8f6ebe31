"""BlockExecutor: submission-order consumption, protocol, overlap model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccglib.precision import Precision
from repro.errors import KernelConfigError
from repro.gpusim.device import Device, ExecutionMode
from repro.tcbf import BeamformerPlan, BlockExecutor, pipelined_makespan
from tests.conftest import random_complex


def dry_plan(**overrides) -> BeamformerPlan:
    kwargs = dict(n_beams=4096, n_receivers=8192, n_samples=256, precision=Precision.INT1)
    kwargs.update(overrides)
    return BeamformerPlan(Device("A100", ExecutionMode.DRY_RUN), **kwargs)


class TestConsumptionOrder:
    @pytest.mark.parametrize("num_buffers", [1, 2, 3, 4])
    def test_stream_consumes_in_submission_order(self, num_buffers):
        executor = BlockExecutor(dry_plan(), num_buffers=num_buffers)
        results, stats = executor.run_stream([None] * 8)
        assert executor.consumed == list(range(8))
        assert len(results) == 8
        assert stats.num_blocks == 8

    @pytest.mark.parametrize("num_buffers", [1, 2, 3, 4])
    def test_fewer_blocks_than_buffers(self, num_buffers):
        executor = BlockExecutor(dry_plan(), num_buffers=num_buffers)
        results, _ = executor.run_stream([None] * 2)
        assert executor.consumed == [0, 1]
        assert len(results) == 2

    def test_functional_blocks_keep_their_data(self, rng):
        # Each streamed block must come back beamformed with its own data.
        plan = BeamformerPlan(
            Device("A100"), n_beams=4, n_receivers=32, n_samples=8,
            include_transpose=False, restore_output_scale=True,
        )
        weights = random_complex(rng, (4, 32))
        blocks = [random_complex(rng, (32, 8)) for _ in range(5)]
        executor = BlockExecutor(plan, num_buffers=2)
        results, _ = executor.run_stream(blocks, weights=weights)
        for block, result in zip(blocks, results):
            assert np.allclose(result.output[0], weights @ block, atol=0.05)

    def test_in_place_weight_updates_honored(self, rng):
        # A calibration update applied in place between blocks must take
        # effect: the plan re-reads the weights array on every execution.
        plan = BeamformerPlan(
            Device("A100"), n_beams=4, n_receivers=32, n_samples=8,
            include_transpose=False,
        )
        weights = random_complex(rng, (4, 32))
        block = random_complex(rng, (32, 8))
        first = plan.execute(weights, block)
        assert np.abs(first.output).max() > 0
        weights *= 0.0
        second = plan.execute(weights, block)
        assert np.abs(second.output).max() == 0.0


class TestProtocolViolations:
    def test_submit_overrun_raises(self):
        executor = BlockExecutor(dry_plan(), num_buffers=2)
        executor.submit()
        executor.submit()
        with pytest.raises(KernelConfigError):
            executor.submit()

    def test_collect_empty_raises(self):
        executor = BlockExecutor(dry_plan(), num_buffers=2)
        with pytest.raises(KernelConfigError):
            executor.collect()

    def test_collect_beyond_staged_raises(self):
        executor = BlockExecutor(dry_plan(), num_buffers=3)
        executor.submit()
        executor.collect()
        with pytest.raises(KernelConfigError):
            executor.collect()

    def test_zero_buffers_rejected(self):
        with pytest.raises(KernelConfigError):
            BlockExecutor(dry_plan(), num_buffers=0)

    def test_rejected_block_stays_staged(self, rng):
        # A block that fails shape validation must not be silently dropped:
        # the caller sees the error and the block keeps its stage.
        from repro.errors import ShapeError

        plan = BeamformerPlan(
            Device("A100"), n_beams=4, n_receivers=32, n_samples=8,
            include_transpose=False,
        )
        executor = BlockExecutor(plan, num_buffers=2)
        executor.submit(
            random_complex(rng, (4, 32)), random_complex(rng, (31, 8))  # bad K
        )
        with pytest.raises(ShapeError):
            executor.collect()
        assert executor.consumed == []
        assert executor.stats().num_blocks == 0
        # Still the oldest block, and still holding one of the two stages.
        with pytest.raises(ShapeError):
            executor.collect()
        executor.submit(random_complex(rng, (4, 32)), random_complex(rng, (32, 8)))
        with pytest.raises(KernelConfigError):
            executor.submit()

    def test_collect_frees_one_stage(self):
        executor = BlockExecutor(dry_plan(), num_buffers=3)
        executor.submit()
        executor.submit()
        executor.collect()
        executor.submit()
        executor.submit()
        with pytest.raises(KernelConfigError):
            executor.submit()


class TestOverlapModel:
    def test_single_buffer_is_serial(self):
        executor = BlockExecutor(dry_plan(), num_buffers=1)
        _, stats = executor.run_stream([None] * 6)
        assert stats.pipelined_time_s == pytest.approx(stats.serial_time_s)
        assert stats.overlap_speedup == pytest.approx(1.0)

    def test_double_buffering_overlaps_stage_in(self):
        # With >=2 buffers the copy side (transpose+pack) of block i+1 hides
        # behind the GEMM of block i, so the makespan drops below serial.
        _, serial = BlockExecutor(dry_plan(), num_buffers=1).run_stream([None] * 6)
        _, overlapped = BlockExecutor(dry_plan(), num_buffers=2).run_stream([None] * 6)
        assert overlapped.pipelined_time_s < serial.serial_time_s
        assert overlapped.overlap_speedup > 1.0

    def test_makespan_never_below_compute(self):
        _, stats = BlockExecutor(dry_plan(), num_buffers=4).run_stream([None] * 6)
        assert stats.pipelined_time_s >= stats.compute_time_s

    def test_no_stage_in_means_no_overlap_to_win(self):
        plan = dry_plan(include_transpose=False, precision=Precision.FLOAT16)
        _, stats = BlockExecutor(plan, num_buffers=2).run_stream([None] * 4)
        assert stats.stage_in_time_s == 0.0
        assert stats.pipelined_time_s == pytest.approx(stats.compute_time_s)

    def test_deeper_pipelines_monotone(self):
        times = []
        for nb in (1, 2, 3, 4):
            _, stats = BlockExecutor(dry_plan(), num_buffers=nb).run_stream([None] * 8)
            times.append(stats.pipelined_time_s)
        for shallower, deeper in zip(times, times[1:]):
            assert deeper <= shallower * (1 + 1e-9)

    def test_run_stream_refuses_manually_staged_blocks(self):
        # Mixing manual submits with run_stream would misattribute results;
        # the executor rejects the combination up front.
        executor = BlockExecutor(dry_plan(), num_buffers=3)
        executor.submit()
        with pytest.raises(KernelConfigError):
            executor.run_stream([None] * 2)
        executor.collect()  # drained: streaming works again
        _, stats = executor.run_stream([None] * 2)
        assert stats.num_blocks == 2

    def test_reused_executor_reports_per_stream_stats(self):
        # A second run_stream on the same executor must report that
        # stream's blocks only (lifetime stats stay available via stats()).
        executor = BlockExecutor(dry_plan(), num_buffers=2)
        _, first = executor.run_stream([None] * 8)
        _, second = executor.run_stream([None] * 3)
        assert first.num_blocks == 8
        assert second.num_blocks == 3
        assert second.serial_time_s == pytest.approx(first.serial_time_s * 3 / 8)
        assert executor.stats().num_blocks == 11

    def test_stats_throughput_accessors(self):
        _, stats = BlockExecutor(dry_plan(), num_buffers=2).run_stream([None] * 4)
        assert stats.blocks_per_second == pytest.approx(4 / stats.pipelined_time_s)
        assert stats.fps == pytest.approx(4 * 256 / stats.pipelined_time_s)
        assert stats.tflops > 0


class TestEmptyAndDegenerateStreams:
    def test_empty_block_sequence(self):
        # A scheduler tick with nothing queued must be a clean no-op.
        executor = BlockExecutor(dry_plan(), num_buffers=2)
        results, stats = executor.run_stream([])
        assert results == []
        assert executor.consumed == []
        with pytest.raises(KernelConfigError):
            executor.collect()  # nothing left staged
        assert stats.num_blocks == 0
        assert stats.serial_time_s == 0.0
        assert stats.pipelined_time_s == 0.0

    def test_empty_stream_stats_accessors_are_finite(self):
        _, stats = BlockExecutor(dry_plan(), num_buffers=2).run_stream([])
        assert stats.overlap_speedup == 1.0
        assert stats.blocks_per_second == 0.0
        assert stats.fps == 0.0
        assert stats.tflops == 0.0

    def test_executor_usable_after_empty_stream(self):
        executor = BlockExecutor(dry_plan(), num_buffers=2)
        executor.run_stream([])
        _, stats = executor.run_stream([None] * 3)
        assert stats.num_blocks == 3

    def test_overlap_speedup_zero_pipelined_time(self):
        # Zero makespan (e.g. a stats window with no blocks) must report a
        # neutral 1.0 speedup, not divide by zero.
        from repro.tcbf import StreamStats

        stats = StreamStats(
            num_blocks=0,
            num_buffers=2,
            n_frames_per_block=256,
            serial_time_s=0.0,
            pipelined_time_s=0.0,
            stage_in_time_s=0.0,
            compute_time_s=0.0,
            useful_ops=0.0,
        )
        assert stats.overlap_speedup == 1.0
        assert stats.blocks_per_second == 0.0
        assert stats.tflops == 0.0

    def test_overlap_speedup_negative_pipelined_time_guarded(self):
        from repro.tcbf import StreamStats

        stats = StreamStats(
            num_blocks=1,
            num_buffers=1,
            n_frames_per_block=1,
            serial_time_s=1.0,
            pipelined_time_s=-1.0,
            stage_in_time_s=0.5,
            compute_time_s=0.5,
            useful_ops=1.0,
        )
        assert stats.overlap_speedup == 1.0


class TestMakespanModel:
    def test_empty_stream(self):
        assert pipelined_makespan([], [], 2) == 0.0

    def test_serial_when_one_buffer(self):
        t_in, t_c = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
        assert pipelined_makespan(t_in, t_c, 1) == pytest.approx(21.0)

    def test_full_overlap_with_two_buffers(self):
        # Stage-in always shorter than the previous GEMM: only the first
        # stage-in is exposed.
        t_in, t_c = [1.0, 1.0, 1.0], [4.0, 4.0, 4.0]
        assert pipelined_makespan(t_in, t_c, 2) == pytest.approx(1.0 + 12.0)

    def test_copy_bound_stream(self):
        # Stage-in dominates: the copy engine is the bottleneck.
        t_in, t_c = [4.0, 4.0, 4.0], [1.0, 1.0, 1.0]
        assert pipelined_makespan(t_in, t_c, 2) == pytest.approx(4.0 + 4.0 + 4.0 + 1.0)

    def test_mismatched_lists_raise(self):
        with pytest.raises(ValueError):
            pipelined_makespan([1.0], [1.0, 2.0], 2)

    def test_invalid_buffers_raise(self):
        with pytest.raises(KernelConfigError):
            pipelined_makespan([1.0], [1.0], 0)
