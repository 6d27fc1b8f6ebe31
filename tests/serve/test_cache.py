"""PlanCache: hit/miss accounting, one-time build charge, LRU eviction."""

from __future__ import annotations

import pytest

from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import PlanCache, Workload


def workload(name="wl", **overrides) -> Workload:
    kwargs = dict(name=name, n_beams=64, n_receivers=32, n_samples=64)
    kwargs.update(overrides)
    return Workload(**kwargs)


def dry() -> Device:
    return Device("A100", ExecutionMode.DRY_RUN)


class TestHitMiss:
    def test_second_lookup_is_free(self):
        cache = PlanCache()
        device, wl = dry(), workload()
        entry1, build1 = cache.get(device, wl, 4)
        entry2, build2 = cache.get(device, wl, 4)
        assert entry1 is entry2
        assert build1 > 0.0  # planning overhead + weight prep
        assert build2 == 0.0
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        assert entry2.hits == 1

    def test_build_charge_includes_weight_prep(self):
        cache = PlanCache(build_overhead_s=0.0)
        _, build = cache.get(dry(), workload(), 1)
        # With zero overhead the entire charge is the weight-prep kernels.
        assert build > 0.0

    def test_distinct_merged_extents_are_distinct_plans(self):
        cache = PlanCache()
        device, wl = dry(), workload()
        e4, _ = cache.get(device, wl, 4)
        e8, _ = cache.get(device, wl, 8)
        assert e4 is not e8
        assert e4.plan.batch == 4 and e8.plan.batch == 8
        assert cache.misses == 2

    def test_device_partitions_the_key(self):
        cache = PlanCache()
        wl = workload()
        cache.get(Device("A100", ExecutionMode.DRY_RUN), wl, 2)
        cache.get(Device("GH200", ExecutionMode.DRY_RUN), wl, 2)
        assert cache.misses == 2

    def test_memoized_costs_match_plan_predictions(self):
        cache = PlanCache()
        entry, _ = cache.get(dry(), workload(), 2)
        assert entry.gemm_s == pytest.approx(entry.plan.predict_gemm_cost().time_s)
        stage = entry.plan.stage_in_cost()
        assert entry.stage_in_s == pytest.approx(stage.time_s)

    def test_gemm_only_workload_has_zero_stage_in(self):
        wl = workload(include_transpose=False)
        entry, _ = PlanCache().get(dry(), wl, 2)
        assert entry.stage_in_s == 0.0

    def test_compat_key_consistent_with_plan_cache_key(self):
        # The cache keys on the pre-build Workload.compat_key; the built
        # plan's cache_key is the ground truth. Distinct entries must hold
        # plans with distinct keys, equal configs equal keys.
        cache = PlanCache()
        device = dry()
        e_a, _ = cache.get(device, workload("a"), 2)
        e_b, _ = cache.get(device, workload("b", n_beams=128), 2)
        e_c, _ = cache.get(device, workload("a"), 4)
        keys = [e.plan.cache_key for e in (e_a, e_b, e_c)]
        assert len(set(keys)) == 3
        assert workload("a").make_plan(device, 2).cache_key == e_a.plan.cache_key


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = PlanCache(capacity=2)
        device = dry()
        a, b, c = workload("a"), workload("b"), workload("c")
        cache.get(device, a, 1)
        cache.get(device, b, 1)
        cache.get(device, a, 1)  # refresh a: b is now LRU
        cache.get(device, c, 1)  # evicts b
        assert cache.evictions == 1
        cache.get(device, a, 1)
        assert cache.hits == 2  # a stayed resident
        cache.get(device, b, 1)
        assert cache.misses == 4  # b had to rebuild

    def test_capacity_bound_holds(self):
        cache = PlanCache(capacity=3)
        device = dry()
        for i in range(10):
            cache.get(device, workload(f"w{i}"), 1)
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_validation(self):
        with pytest.raises(ShapeError):
            PlanCache(capacity=0)
        with pytest.raises(ShapeError):
            PlanCache(build_overhead_s=-1.0)
        with pytest.raises(ShapeError):
            workload().make_plan(dry(), 0)


class TestPerDeviceSegments:
    """Mixed-fleet capacity semantics: capacity bounds each device's segment.

    The regression this pins: with one shared LRU, a high-churn device
    (odd shapes, no buckets) evicted a quiet device's hot plans, coupling
    the fleet's cold-start behavior. Entries are now keyed *and accounted*
    per device.
    """

    def test_one_devices_churn_cannot_evict_anothers_hot_plans(self):
        cache = PlanCache(capacity=2)
        quiet, churny = dry(), dry()
        hot_a, hot_b = workload("hot_a"), workload("hot_b")
        cache.get(quiet, hot_a, 1)
        cache.get(quiet, hot_b, 1)
        # Churn far past capacity on the other device.
        for i in range(8):
            cache.get(churny, workload(f"churn{i}"), 1)
        # The quiet device's plans are untouched: both still hit.
        misses_before = cache.misses
        cache.get(quiet, hot_a, 1)
        cache.get(quiet, hot_b, 1)
        assert cache.misses == misses_before
        assert cache.release(quiet) == 2
        assert cache.release(churny) == 2  # its own segment stayed bounded

    def test_eviction_order_is_lru_within_a_segment(self):
        cache = PlanCache(capacity=2)
        device, other = dry(), dry()
        a, b, c = workload("a"), workload("b"), workload("c")
        cache.get(device, a, 1)
        cache.get(device, b, 1)
        # Traffic on another device must not refresh this segment's order.
        cache.get(other, workload("elsewhere"), 1)
        cache.get(device, a, 1)  # refresh a: b is now this segment's LRU
        cache.get(device, c, 1)  # evicts b, not a
        assert cache.evictions == 1
        misses_before = cache.misses
        cache.get(device, a, 1)  # hit
        assert cache.misses == misses_before
        cache.get(device, b, 1)  # b was the one evicted
        assert cache.misses == misses_before + 1

    def test_segment_stats_count_each_devices_hits_and_misses(self):
        cache = PlanCache(capacity=4)
        d1, d2 = dry(), dry()
        cache.get(d1, workload("x"), 1)
        cache.get(d1, workload("x"), 1)
        cache.get(d1, workload("x"), 2)
        cache.get(d2, workload("x"), 1)
        assert cache.segment_stats(d1) == (1, 2)
        assert cache.segment_stats(d2) == (0, 1)
        assert cache.segment_stats(dry()) == (0, 0)
        assert (cache.hits, cache.misses) == (1, 3)

    def test_total_len_spans_segments(self):
        cache = PlanCache(capacity=4)
        d1, d2 = dry(), dry()
        cache.get(d1, workload("x"), 1)
        cache.get(d2, workload("x"), 1)
        cache.get(d2, workload("y"), 1)
        assert len(cache) == 3
        assert cache.release(d1) == 1
        assert cache.release(d2) == 2
        assert len(cache) == 0
