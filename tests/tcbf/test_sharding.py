"""ShardedBeamformer: splits, merged outputs, aggregate throughput."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.precision import Precision
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.tcbf import (
    BeamformerPlan,
    ShardedBeamformer,
    execute_shards,
    merge_batch_operands,
    rms,
    split_batched_output,
    split_extent,
)
from tests.conftest import random_complex, random_pm1_complex

#: the paper's LOFAR benchmark shape at the typical 48-station configuration.
LOFAR = dict(n_beams=1024, n_receivers=48, n_samples=1024, batch=256)


def dry_devices(n: int, gpu: str = "A100") -> list[Device]:
    return [Device(gpu, ExecutionMode.DRY_RUN) for _ in range(n)]


class TestSplitExtent:
    def test_even(self):
        assert split_extent(256, 2) == [128, 128]
        assert split_extent(256, 4) == [64, 64, 64, 64]

    def test_uneven_front_loaded(self):
        assert split_extent(5, 2) == [3, 2]
        assert split_extent(10, 3) == [4, 3, 3]

    def test_errors(self):
        with pytest.raises(ShapeError):
            split_extent(1, 2)
        with pytest.raises(ShapeError):
            split_extent(4, 0)

    @given(
        total=st.integers(min_value=1, max_value=10_000),
        parts=st.integers(min_value=1, max_value=64),
    )
    def test_remainder_distribution_invariants(self, total, parts):
        # The scheduler leans on these when it splits merged batches:
        # exact coverage, near-equality, front-loaded remainder, no empties.
        if total < parts:
            with pytest.raises(ShapeError):
                split_extent(total, parts)
            return
        sizes = split_extent(total, parts)
        assert len(sizes) == parts
        assert sum(sizes) == total
        assert all(s >= 1 for s in sizes)
        assert max(sizes) - min(sizes) <= 1
        # The first total % parts shards carry the remainder, in order.
        extra = total % parts
        assert sizes == sorted(sizes, reverse=True)
        assert sizes.count(max(sizes)) == (extra if extra else parts)


class TestBatchMergeHelpers:
    def test_merge_then_split_round_trip(self, rng):
        # merge_batch_operands stacks requests; split_batched_output hands
        # each request back exactly its slice.
        w = random_complex(rng, (2, 4, 8))
        blocks = [random_complex(rng, (2, 8, 6)) for _ in range(3)]
        mw, md = merge_batch_operands(w, blocks)
        assert mw.shape == (6, 4, 8)
        assert md.shape == (6, 8, 6)
        out = np.einsum("bmk,bkn->bmn", mw, md)
        parts = split_batched_output(out, [2, 2, 2])
        for block, part in zip(blocks, parts):
            assert np.allclose(part, np.einsum("bmk,bkn->bmn", w, block))

    def test_merge_accepts_2d_weights(self, rng):
        w = random_complex(rng, (4, 8))
        blocks = [random_complex(rng, (8, 6)) for _ in range(2)]
        mw, md = merge_batch_operands(w, blocks)
        assert mw.shape == (2, 4, 8)
        assert md.shape == (2, 8, 6)

    def test_merge_rejects_incompatible_blocks(self, rng):
        w = random_complex(rng, (2, 4, 8))
        with pytest.raises(ShapeError):
            merge_batch_operands(w, [])
        with pytest.raises(ShapeError):
            merge_batch_operands(w, [random_complex(rng, (2, 7, 6))])  # bad K
        with pytest.raises(ShapeError):
            merge_batch_operands(
                w, [random_complex(rng, (2, 8, 6)), random_complex(rng, (2, 8, 5))]
            )

    def test_split_validates_extents(self, rng):
        out = random_complex(rng, (6, 4, 5))
        with pytest.raises(ShapeError):
            split_batched_output(out, [])
        with pytest.raises(ShapeError):
            split_batched_output(out, [4, 0, 2])
        with pytest.raises(ShapeError):
            split_batched_output(out, [4, 4])
        parts = split_batched_output(out, [4, 2])
        assert [p.shape[0] for p in parts] == [4, 2]
        # Views, not copies: the serving layer returns slices of the block.
        assert parts[0].base is not None


class TestAggregateThroughput:
    def test_two_devices_near_double_lofar(self):
        # The acceptance bar: batch-parallel LOFAR-sized problem, >=1.8x the
        # single-device modelled throughput on two devices.
        single = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN), **LOFAR,
            include_transpose=False,
        ).predict_gemm_cost()
        result = ShardedBeamformer(
            dry_devices(2), **LOFAR,
            include_transpose=False,
        ).execute()
        assert result.ops_per_second >= 1.8 * single.ops_per_second
        assert result.useful_ops == pytest.approx(single.useful_ops)

    def test_four_devices_scale_further(self):
        single = BeamformerPlan(
            Device("A100", ExecutionMode.DRY_RUN), **LOFAR,
            include_transpose=False,
        ).predict_gemm_cost()
        result = ShardedBeamformer(
            dry_devices(4), **LOFAR,
            include_transpose=False,
        ).execute()
        assert result.ops_per_second >= 3.6 * single.ops_per_second

    def test_even_split_balances_load(self):
        result = ShardedBeamformer(dry_devices(2), **LOFAR).execute()
        assert result.shard_sizes == [128, 128]
        times = [s.total.time_s for s in result.shards]
        assert times[0] == pytest.approx(times[1])

    def test_wall_time_is_slowest_shard(self):
        # Heterogeneous fleet: the big GPU waits for the small one.
        devices = [
            Device("GH200", ExecutionMode.DRY_RUN),
            Device("AD4000", ExecutionMode.DRY_RUN),
        ]
        result = ShardedBeamformer(
            devices, **LOFAR, include_transpose=False
        ).execute()
        times = [s.total.time_s for s in result.shards]
        assert result.wall_time_s == max(times)
        assert min(times) < max(times)

    def test_every_device_executes_its_shard(self, kernel_runs):
        devices = dry_devices(3)
        ShardedBeamformer(devices, **LOFAR).execute()
        executed = [device for what, device in kernel_runs if what == "BeamformerPlan.execute"]
        assert [id(d) for d in executed] == [id(d) for d in devices]

    def test_dry_run_ignores_operands(self):
        # Like the single-device plan, dry-run shards predict cost only and
        # never touch (or validate) the operands.
        result = ShardedBeamformer(dry_devices(2), **LOFAR).execute(
            np.zeros((1,)), np.zeros((1,))
        )
        assert result.output is None
        assert all(s.output is None for s in result.shards)

    def test_energy_sums_over_shards(self):
        result = ShardedBeamformer(dry_devices(2), **LOFAR).execute()
        assert result.energy_j == pytest.approx(sum(s.total.energy_j for s in result.shards))


class TestFunctionalSharding:
    def test_batch_shard_merges_exactly(self, rng):
        # int1 outputs are exact small integers, so the sharded result must
        # equal the single-device result bit for bit.
        batch, m, k, n = 4, 8, 64, 16
        w = random_pm1_complex(rng, (batch, m, k))
        d = random_pm1_complex(rng, (batch, k, n))
        kwargs = dict(
            n_beams=m, n_receivers=k, n_samples=n, batch=batch,
            precision=Precision.INT1,
        )
        single = BeamformerPlan(Device("A100"), **kwargs).execute(w, d)
        sharded = ShardedBeamformer(
            [Device("A100"), Device("A100")], shard_dim="batch", **kwargs
        ).execute(w, d)
        assert sharded.output.shape == single.output.shape
        assert np.array_equal(sharded.output, single.output)

    def test_beam_shard_merges_exactly(self, rng):
        m, k, n = 8, 64, 16
        w = random_pm1_complex(rng, (1, m, k))
        d = random_pm1_complex(rng, (1, k, n))
        kwargs = dict(n_beams=m, n_receivers=k, n_samples=n, precision=Precision.INT1)
        single = BeamformerPlan(Device("A100"), **kwargs).execute(w, d)
        sharded = ShardedBeamformer(
            [Device("A100"), Device("A100")], shard_dim="beams", **kwargs
        ).execute(w, d)
        assert np.array_equal(sharded.output, single.output)

    def test_batch_shard_uses_one_global_scale(self, rng):
        # Without output-scale restoration, per-shard RMS would normalize a
        # loud batch item differently from a quiet one; the sharded result
        # must match the unsharded plan bit for bit instead.
        batch, m, k, n = 2, 4, 32, 8
        w = random_complex(rng, (batch, m, k))
        d = random_complex(rng, (batch, k, n))
        d[1] *= 100.0  # item 1 is 100x louder than item 0
        kwargs = dict(n_beams=m, n_receivers=k, n_samples=n, batch=batch,
                      include_transpose=False, restore_output_scale=False)
        single = BeamformerPlan(Device("A100"), **kwargs).execute(w, d)
        sharded = ShardedBeamformer(
            [Device("A100"), Device("A100")], shard_dim="batch", **kwargs
        ).execute(w, d)
        assert np.array_equal(sharded.output, single.output)

    def test_gemm_only_ops_accounting(self):
        # With streaming stages enabled, aggregate ops must still count the
        # GEMM's FLOPs only — consistent with BeamformResult.tflops.
        kwargs = dict(n_beams=256, n_receivers=512, n_samples=256,
                      precision=Precision.INT1)
        result = ShardedBeamformer(dry_devices(2), batch=2, shard_dim="batch", **kwargs).execute()
        gemm_ops = sum(s.gemm_cost.useful_ops for s in result.shards)
        assert result.useful_ops == pytest.approx(gemm_ops)
        assert result.useful_ops < sum(s.total.useful_ops for s in result.shards)

    def test_beam_shard_restores_scale_like_single(self, rng):
        # Beams mode pre-normalizes the shared data once (shards see unit
        # scale); the restored output must still match the unsharded plan.
        m, k, n = 8, 32, 8
        w = random_complex(rng, (1, m, k))
        d = random_complex(rng, (1, k, n), scale=50.0)
        kwargs = dict(n_beams=m, n_receivers=k, n_samples=n,
                      include_transpose=False, restore_output_scale=True)
        single = BeamformerPlan(Device("A100"), **kwargs).execute(w, d)
        sharded = ShardedBeamformer(
            [Device("A100"), Device("A100")], shard_dim="beams", **kwargs
        ).execute(w, d)
        assert np.array_equal(sharded.output, single.output)

    def test_beam_shard_restores_the_scale_in_place(self, rng, monkeypatch):
        # Each beams shard multiplies its own fresh output by the global
        # scale in place: the bytes are those of the out-of-place product,
        # and the array is the one the shard's plan returned.
        batch, m, k, n = 2, 9, 24, 10
        w = random_complex(rng, (batch, m, k))
        d = random_complex(rng, (batch, k, n), scale=7.0)
        kwargs = dict(n_beams=m, n_receivers=k, n_samples=n, batch=batch,
                      include_transpose=False, restore_output_scale=True)
        sharded = ShardedBeamformer([Device("A100"), Device("A100")], shard_dim="beams", **kwargs)
        returned = []
        execute = BeamformerPlan.execute

        def recording(plan, *args, **kw):
            result = execute(plan, *args, **kw)
            returned.append(result.output)
            return result

        monkeypatch.setattr(BeamformerPlan, "execute", recording)
        result = sharded.execute(w, d)
        monkeypatch.undo()
        scale = rms(d)
        unit = (d / scale).astype(np.complex64)
        bounds = np.cumsum([0] + sharded.shard_sizes)
        for plan, shard, own, lo, hi in zip(
            sharded.plans, result.shards, returned, bounds[:-1], bounds[1:]
        ):
            assert shard.output is own
            want = plan.execute(w[:, lo:hi], unit, scale=1.0).output * scale
            assert shard.output.tobytes() == want.tobytes()
        merged = np.concatenate([s.output for s in result.shards], axis=1)
        assert result.output.tobytes() == merged.tobytes()

    def test_float16_batch_shard_close(self, rng):
        batch, m, k, n = 2, 4, 32, 8
        w = random_complex(rng, (batch, m, k))
        d = random_complex(rng, (batch, k, n))
        kwargs = dict(n_beams=m, n_receivers=k, n_samples=n, batch=batch,
                      include_transpose=False, restore_output_scale=True)
        sharded = ShardedBeamformer(
            [Device("A100"), Device("A100")], shard_dim="batch", **kwargs
        ).execute(w, d)
        assert np.allclose(sharded.output, w @ d, atol=0.05)


class TestValidation:
    def test_no_devices(self):
        with pytest.raises(ShapeError):
            ShardedBeamformer([], **LOFAR)
        with pytest.raises(ShapeError):
            execute_shards([], None, None)

    def test_bad_shard_dim(self):
        with pytest.raises(ShapeError):
            ShardedBeamformer(dry_devices(2), shard_dim="samples", **LOFAR)
        plans = ShardedBeamformer(dry_devices(2), **LOFAR).plans
        with pytest.raises(ShapeError):
            execute_shards(plans, None, None, shard_dim="samples")

    def test_oversized_operands_rejected_not_truncated(self, rng):
        # An operand larger than the declared problem along the sharded
        # axis must raise like the single-device plan, not be sliced down.
        kwargs = dict(n_beams=4, n_receivers=32, n_samples=8, batch=4,
                      include_transpose=False)
        sharded = ShardedBeamformer([Device("A100"), Device("A100")], shard_dim="batch", **kwargs)
        with pytest.raises(ShapeError):
            sharded.execute(random_complex(rng, (6, 4, 32)), random_complex(rng, (6, 32, 8)))
        beam_sharded = ShardedBeamformer(
            [Device("A100"), Device("A100")], shard_dim="beams",
            n_beams=8, n_receivers=32, n_samples=8, include_transpose=False,
        )
        with pytest.raises(ShapeError):
            beam_sharded.execute(random_complex(rng, (1, 12, 32)), random_complex(rng, (1, 32, 8)))

    def test_kernel_variant_kwargs_forwarded(self):
        # AND-mode int1 (Hopper-style) must be shardable too: GH200s resolve
        # the bit operation to AND on their own.
        sharded = ShardedBeamformer(
            dry_devices(2, "GH200"), n_beams=64, n_receivers=256, n_samples=64,
            batch=2, precision=Precision.INT1,
        )
        result = sharded.execute()
        assert all(s.gemm_cost.name == "gemm_int1_and" for s in result.shards)

    def test_mixed_mode_fleet_rejected(self):
        from repro.errors import DeviceError

        with pytest.raises(DeviceError):
            ShardedBeamformer([Device("A100"), Device("A100", ExecutionMode.DRY_RUN)], **LOFAR)

    def test_more_devices_than_units(self):
        with pytest.raises(ShapeError):
            ShardedBeamformer(dry_devices(3), n_beams=16, n_receivers=8, n_samples=16, batch=2)


class TestDegenerateCases:
    """Satellite coverage: the edges the serving tier's split path leans on."""

    def test_split_more_parts_than_total(self):
        with pytest.raises(ShapeError, match="cannot split"):
            split_extent(3, 4)

    def test_split_single_unit_single_part(self):
        assert split_extent(1, 1) == [1]

    def test_merge_single_element_batch(self, rng):
        # One request is a legal merge: weights repeat once, data pass through.
        weights = random_complex(rng, (1, 4, 8))
        block = random_complex(rng, (1, 8, 6))
        merged_w, merged_d = merge_batch_operands(weights, [block])
        assert merged_w.shape == (1, 4, 8)
        assert np.array_equal(merged_d, block)
        [back] = split_batched_output(merged_d, [1])
        assert np.array_equal(back, block)

    def test_merge_empty_request_list_rejected(self, rng):
        with pytest.raises(ShapeError, match="empty request list"):
            merge_batch_operands(random_complex(rng, (1, 4, 8)), [])

    def test_split_output_empty_extents_rejected(self, rng):
        with pytest.raises(ShapeError, match="empty extent list"):
            split_batched_output(random_complex(rng, (2, 4, 6)), [])

    def test_unequal_shards_set_the_wall_time(self):
        # 3 batch units over 2 devices -> [2, 1]: the 2-unit shard takes
        # longer and is the block's wall time.
        sharded = ShardedBeamformer(
            dry_devices(2),
            n_beams=2048,
            n_receivers=64,
            n_samples=2048,
            batch=3,
            include_transpose=False,
        )
        result = sharded.execute()
        assert sharded.shard_sizes == [2, 1]
        times = [s.total.time_s for s in result.shards]
        assert times[0] > times[1]
        assert result.wall_time_s == times[0]

    def test_even_batch_split_takes_equal_time(self):
        sharded = ShardedBeamformer(
            dry_devices(2),
            n_beams=256,
            n_receivers=48,
            n_samples=512,
            batch=4,
            include_transpose=False,
        )
        times = [s.total.time_s for s in sharded.execute().shards]
        assert times[0] == pytest.approx(times[1])


class TestWeightedSplit:
    def test_proportional_to_weights(self):
        from repro.tcbf import split_extent_weighted

        assert split_extent_weighted(300, [1.0, 2.0]) == [100, 200]
        assert split_extent_weighted(10, [1.0, 1.0]) == [5, 5]

    def test_largest_remainder_is_deterministic(self):
        from repro.tcbf import split_extent_weighted

        # 10 over 1:1:1 -> remainder goes to the lowest indices.
        assert split_extent_weighted(10, [1.0, 1.0, 1.0]) == [4, 3, 3]

    def test_covers_total_and_no_empty_shards(self):
        from repro.tcbf import split_extent_weighted

        extents = split_extent_weighted(7, [1000.0, 1.0, 1.0])
        assert sum(extents) == 7
        assert all(e >= 1 for e in extents)
        assert extents[0] == max(extents)

    def test_errors(self):
        from repro.tcbf import split_extent_weighted

        with pytest.raises(ShapeError):
            split_extent_weighted(5, [])
        with pytest.raises(ShapeError):
            split_extent_weighted(5, [1.0, -1.0])
        with pytest.raises(ShapeError):
            split_extent_weighted(1, [1.0, 1.0])
