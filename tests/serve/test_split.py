"""The serving tier's batch split: the one multi-device path.

A split placement runs one request's batch rows over several workers. The
functional result must be the one-plan output byte for byte (one RMS scale
over the whole block, disjoint batch ranges, concatenated back in order);
malformed operands must raise before any shard beamforms; and the timeline
must charge every shard to its own worker, with the request done when its
slowest shard is.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.precision import Precision
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import Batch, FleetDispatcher, PlacementDecision, PlacementKind, Request, Workload
from repro.serve.placement import split_extent_weighted
from tests.conftest import random_complex, submit_and_drain

#: batch rows, beams, receivers and samples of the split problem.
B, M, K, N = 6, 8, 32, 12


def split_batch(wl: Workload, extents, data=None, workers=None) -> Batch:
    """One request of ``wl`` under a SPLIT decision over ``extents``."""
    decision = PlacementDecision(
        kind=PlacementKind.SPLIT,
        workload=wl,
        shard_extents=tuple(extents),
        shard_worker_indices=tuple(workers if workers is not None else range(len(extents))),
    )
    request = Request(rid=0, workload=wl, arrival_s=0.0, data=data)
    return Batch(bid=0, workload=wl, requests=[request], formed_s=0.0, decision=decision)


def functional(n: int) -> FleetDispatcher:
    return FleetDispatcher([Device("A100") for _ in range(n)])


def dry(n: int) -> FleetDispatcher:
    return FleetDispatcher([Device("A100", ExecutionMode.DRY_RUN) for _ in range(n)])


def problem(rng, precision=Precision.FLOAT16, restore=True, weight_rows=B, data_shape=None):
    """A split workload carrying its weights, plus one request's data block."""
    weights = random_complex(rng, (weight_rows, M, K))
    data = random_complex(rng, data_shape or (B, K, N), scale=5.0)
    wl = Workload(
        name="split", n_beams=M, n_receivers=K, n_samples=N, batch_per_request=B,
        precision=precision, include_transpose=False, restore_output_scale=restore,
        weights=weights,
    )
    return wl, weights, data


def one_plan(wl: Workload, weights, data) -> np.ndarray:
    return wl.make_plan(Device("A100")).execute(weights, data).output


class TestSplitEqualsOnePlan:
    @pytest.mark.parametrize("restore", [True, False], ids=["restored", "unit-scale"])
    @pytest.mark.parametrize("precision", [Precision.FLOAT16, Precision.INT1],
                             ids=lambda p: p.value)
    def test_two_shards_give_the_one_plan_bytes(self, rng, precision, restore):
        wl, weights, data = problem(rng, precision, restore)
        [execution] = submit_and_drain(functional(2), split_batch(wl, (4, 2), data))
        assert execution.outputs[0].tobytes() == one_plan(wl, weights, data).tobytes()

    @pytest.mark.parametrize("extents", [(2, 2, 2), (3, 2, 1), (1, 1, 4)])
    def test_three_shards_give_the_one_plan_bytes(self, rng, extents):
        wl, weights, data = problem(rng)
        [execution] = submit_and_drain(functional(3), split_batch(wl, extents, data))
        assert execution.outputs[0].tobytes() == one_plan(wl, weights, data).tobytes()

    def test_unit_scale_output_uses_one_global_scale(self, rng):
        # Without scale restoration the output stays in units of the block
        # RMS. A per-shard RMS would put the 100x louder second shard in
        # different units from the first; one RMS gives the one-plan bytes.
        wl, weights, data = problem(rng, restore=False)
        data[4:] *= 100.0
        [execution] = submit_and_drain(functional(2), split_batch(wl, (4, 2), data))
        assert execution.outputs[0].tobytes() == one_plan(wl, weights, data).tobytes()

    def test_output_is_one_block_in_batch_order(self, rng):
        wl, weights, data = problem(rng)
        [execution] = submit_and_drain(functional(2), split_batch(wl, (4, 2), data))
        [output] = execution.outputs
        assert output.shape == (B, M, N)
        assert np.allclose(output, weights @ data, rtol=0.02, atol=0.5)

    def test_shards_run_on_their_own_workers_in_order(self, rng, kernel_runs):
        wl, _, data = problem(rng)
        fleet = functional(3)
        submit_and_drain(fleet, split_batch(wl, (2, 2, 2), data, workers=(2, 0, 1)))
        plan_devices = [id(dev) for what, dev in kernel_runs if what == "BeamformerPlan.execute"]
        assert plan_devices == [id(fleet.workers[i].device) for i in (2, 0, 1)]

    def test_each_shard_plan_is_fetched_once(self, rng):
        # The split executor reuses the entries the launch fetched: one cache
        # lookup per shard, not two.
        wl, _, data = problem(rng)
        fleet = functional(2)
        submit_and_drain(fleet, split_batch(wl, (4, 2), data))
        assert (fleet.cache.hits, fleet.cache.misses) == (0, 2)


class TestSplitOperandChecks:
    @pytest.mark.parametrize("name, weight_rows, data_shape", [
        ("data", B, (B + 2, K, N)),
        ("data", B, (B - 2, K, N)),
        ("data", B, (B, K + 1, N)),
        ("data", B, (B, K, N + 3)),
        ("weights", B + 2, None),
        ("weights", B - 2, None),
    ], ids=["data-extra-rows", "data-missing-rows", "data-wrong-k", "data-wrong-n",
            "weights-extra-rows", "weights-missing-rows"])
    def test_misshaped_operand_is_rejected_not_sliced(self, rng, name, weight_rows, data_shape):
        wl, _, data = problem(rng, weight_rows=weight_rows, data_shape=data_shape)
        with pytest.raises(ShapeError, match=f"{name} must be"):
            submit_and_drain(functional(2), split_batch(wl, (4, 2), data))

    def test_rejection_comes_before_any_shard_beamforms(self, rng, kernel_runs):
        wl, _, data = problem(rng, data_shape=(B + 2, K, N))
        with pytest.raises(ShapeError):
            submit_and_drain(functional(2), split_batch(wl, (4, 2), data))
        assert not [what for what, _ in kernel_runs if what == "BeamformerPlan.execute"]

    def test_missing_weights_are_rejected(self, rng):
        wl, _, data = problem(rng)
        bare = Workload(
            name=wl.name, n_beams=M, n_receivers=K, n_samples=N, batch_per_request=B,
            include_transpose=False,
        )
        with pytest.raises(ShapeError, match="weight set"):
            submit_and_drain(functional(2), split_batch(bare, (4, 2), data))

    def test_missing_data_is_rejected(self, rng):
        wl, _, _ = problem(rng)
        with pytest.raises(ShapeError, match="data block"):
            submit_and_drain(functional(2), split_batch(wl, (4, 2), None))


class TestSplitTimeline:
    """Dry-run splits: the modelled timeline of the shards."""

    WL = Workload(
        name="big", n_beams=2048, n_receivers=64, n_samples=2048, batch_per_request=3,
        include_transpose=False,
    )

    def test_dry_run_split_carries_no_outputs(self, kernel_runs):
        [execution] = submit_and_drain(dry(2), split_batch(self.WL, (2, 1)))
        assert execution.is_split and execution.outputs is None
        assert not [what for what, _ in kernel_runs if what == "BeamformerPlan.execute"]

    def test_equal_extents_take_equal_time(self):
        wl = Workload(name="even", n_beams=256, n_receivers=48, n_samples=512, batch_per_request=4)
        [execution] = submit_and_drain(dry(2), split_batch(wl, (2, 2)))
        first, second = execution.shards
        assert first.gemm_s == second.gemm_s
        assert first.completion_s == second.completion_s

    def test_the_larger_shard_sets_the_completion(self):
        [execution] = submit_and_drain(dry(2), split_batch(self.WL, (2, 1)))
        first, second = execution.shards
        assert first.gemm_s > second.gemm_s
        assert execution.completion_s == first.completion_s

    def test_top_level_record_spans_its_shards(self):
        [execution] = submit_and_drain(dry(3), split_batch(self.WL, (1, 1, 1)))
        shards = execution.shards
        assert execution.device_name == "A100+A100+A100"
        assert execution.worker_index == shards[0].worker_index
        assert execution.start_s == min(s.start_s for s in shards)
        assert execution.completion_s == max(s.completion_s for s in shards)
        assert execution.gemm_s == max(s.gemm_s for s in shards)
        assert execution.stage_in_s == max(s.stage_in_s for s in shards)

    def test_every_worker_runs_its_shard_and_counts_the_request_once(self):
        fleet = dry(3)
        submit_and_drain(fleet, split_batch(self.WL, (1, 1, 1)))
        assert [w.n_batches for w in fleet.workers] == [1, 1, 1]
        assert all(w.busy_s > 0 for w in fleet.workers)
        assert [w.n_requests for w in fleet.workers] == [1, 0, 0]

    def test_a_repeat_split_hits_every_shard_plan(self):
        fleet = dry(2)
        submit_and_drain(fleet, split_batch(self.WL, (2, 1)))
        [again] = submit_and_drain(fleet, split_batch(self.WL, (2, 1)))
        assert [s.build_s for s in again.shards] == [0.0, 0.0]
        assert (fleet.cache.hits, fleet.cache.misses) == (2, 2)


class TestWeightedSplitInvariants:
    @given(
        total=st.integers(min_value=1, max_value=5_000),
        weights=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=16),
    )
    def test_any_positive_weights_cover_the_total(self, total, weights):
        if total < len(weights):
            with pytest.raises(ShapeError, match="cannot split"):
                split_extent_weighted(total, weights)
            return
        extents = split_extent_weighted(total, weights)
        assert len(extents) == len(weights)
        assert sum(extents) == total
        assert all(e >= 1 for e in extents)

    @given(
        total=st.integers(min_value=1, max_value=5_000),
        weights=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=16),
    )
    def test_extents_are_within_one_of_the_exact_share(self, total, weights):
        # Largest-remainder rounding moves each share by less than one unit
        # whenever no share rounds down to zero.
        shares = [total * w / sum(weights) for w in weights]
        if min(shares) < 1:
            return
        extents = split_extent_weighted(total, weights)
        assert all(abs(e - s) < 1 for e, s in zip(extents, shares))

    @given(
        total=st.integers(min_value=16, max_value=5_000),
        weights=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=16),
        power=st.integers(min_value=-8, max_value=8),
    )
    def test_scaling_every_weight_keeps_the_split(self, total, weights, power):
        # Only the weights' ratios matter (a power of two scales exactly).
        scaled = [w * 2.0**power for w in weights]
        assert split_extent_weighted(total, scaled) == split_extent_weighted(total, weights)

    def test_zero_weight_is_rejected(self):
        with pytest.raises(ShapeError, match="positive"):
            split_extent_weighted(4, [1.0, 0.0])
