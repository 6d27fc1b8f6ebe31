"""Plan cache: skip planning and one-time weight preparation on repeat.

Building a :class:`~repro.tcbf.plan.BeamformerPlan` is not free in a real
deployment: tuning-parameter resolution, kernel selection, and — costliest
— the one-time A-operand preparation (tiling transpose plus 1-bit packing,
the step the paper explicitly keeps out of the per-block budget because "it
typically happens once before the experiment"). A service that rebuilt the
plan per batch would pay that on every launch.

:class:`PlanCache` memoizes plans per ``(device, workload compatibility,
merged batch extent)`` — the serving-level view of
:attr:`BeamformerPlan.cache_key <repro.tcbf.plan.BeamformerPlan.cache_key>`
— alongside the predicted per-block stage costs, so steady-state dispatch
is a dictionary hit. Capacity is bounded with LRU eviction: a workload
churn (e.g. a calibration bump changing ``weights_version``) ages the stale
generation out instead of growing without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import ShapeError
from repro.gpusim.device import Device
from repro.serve.workload import Workload
from repro.tcbf import BeamformerPlan

#: modelled one-time planning overhead per cache miss (tuning-parameter
#: resolution + kernel selection), on top of the weight-preparation kernels.
DEFAULT_BUILD_OVERHEAD_S = 250e-6


@dataclass
class CachedPlan:
    """One resident plan plus its memoized per-block cost prediction."""

    plan: BeamformerPlan
    #: per-block streaming stage time (transpose + packing), seconds.
    stage_in_s: float
    #: per-block GEMM time, seconds.
    gemm_s: float
    #: one-time build latency charged when the entry faulted in.
    build_s: float
    hits: int = 0


class PlanCache:
    """Bounded LRU cache of built beamformer plans, segmented per device.

    :meth:`get` returns ``(entry, build_latency_s)``: the latency is the
    one-time planning + weight-preparation charge and is non-zero only on a
    miss — the dispatcher adds it to that batch's critical path, which is
    exactly the cold-start penalty a real serving tier shows.

    Capacity is accounted **per device**: each device in the fleet gets its
    own LRU segment of ``capacity`` entries. Plans hold device-resident
    state, so an entry is only ever useful to the device that built it —
    one shared LRU would let a high-churn device (say, a bucket-less MI300X
    taking every odd shape) evict a quiet GH200's hot plans, coupling the
    devices' cold-start behavior for no benefit. With per-device segments,
    one device's churn can never evict another device's entries.
    """

    def __init__(
        self,
        capacity: int = 64,
        build_overhead_s: float = DEFAULT_BUILD_OVERHEAD_S,
    ):
        if capacity < 1:
            raise ShapeError(f"cache capacity must be >= 1, got {capacity}")
        if build_overhead_s < 0:
            raise ShapeError(f"build overhead must be >= 0, got {build_overhead_s}")
        self.capacity = capacity
        self.build_overhead_s = build_overhead_s
        #: per-device LRU segments: device id -> (entry key -> entry).
        self._segments: dict[int, OrderedDict[tuple, CachedPlan]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: entries dropped by whole-segment release (scale-down), not LRU.
        self.released = 0
        #: lifetime per-segment lookup stats: device id -> [hits, misses].
        #: Survives :meth:`release` — a retired worker's cold-start bill is
        #: part of the run's story even after its plans are dropped.
        self._segment_stats: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return sum(len(seg) for seg in self._segments.values())

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def key(self, device: Device, workload: Workload, n_requests: int) -> tuple:
        """Cache key: device *instance*, workload compatibility, merged extent.

        Keyed on the device's identity, not its catalog name: a plan holds
        device-resident state (prepared weights, recorded kernels land on
        that device's timeline), so two same-model GPUs in one fleet must
        each fault in — and pay for — their own build, exactly as a real
        deployment JIT-compiles and stages weights per device. The device
        component also selects the LRU segment the entry lives (and is
        evicted) in.
        """
        return (id(device), workload.compat_key(), n_requests)

    def segment_stats(self, device: Device) -> tuple[int, int]:
        """Lifetime ``(hits, misses)`` of one device's segment.

        Per-device cold-start accounting for reports: the fleet-wide
        :attr:`hits`/:attr:`misses` hide which worker paid the builds (a
        scaled-up worker faults in everything; a seed worker mostly hits).
        Stats persist across :meth:`release`.
        """
        stats = self._segment_stats.get(id(device))
        return (stats[0], stats[1]) if stats is not None else (0, 0)

    def release(self, device: Device) -> int:
        """Drop one device's whole segment; returns the entry count freed.

        The scale-down path: a retired worker's plans hold device-resident
        state (prepared weights, recorded kernels) that leaves with the
        device, so the segment is released rather than left to age out.
        Released entries are counted separately from LRU evictions — a
        shrinking fleet is not cache churn.
        """
        segment = self._segments.pop(id(device), None)
        freed = len(segment) if segment is not None else 0
        self.released += freed
        return freed

    def get(self, device: Device, workload: Workload, n_requests: int) -> tuple[CachedPlan, float]:
        """Look up (or build) the merged-batch plan for a dispatch.

        On a miss the plan is constructed, its one-time weight preparation
        runs (cost-only — functional execution re-reads the raw weights per
        block, so calibration updates between blocks stay honored), and the
        per-block stage costs are predicted once and memoized. Eviction, if
        needed, comes from this device's own segment.
        """
        segment = self._segments.get(id(device))
        if segment is None:
            segment = self._segments[id(device)] = OrderedDict()
        stats = self._segment_stats.get(id(device))
        if stats is None:
            stats = self._segment_stats[id(device)] = [0, 0]
        key = self.key(device, workload, n_requests)
        entry = segment.get(key)
        if entry is not None:
            segment.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            stats[0] += 1
            return entry, 0.0
        self.misses += 1
        stats[1] += 1
        plan = workload.make_plan(device, n_requests)
        prep = plan.prepare_weights(name=f"serve_weight_prep_{workload.name}")
        stage_in = plan.stage_in_cost()
        entry = CachedPlan(
            plan=plan,
            stage_in_s=stage_in.time_s if stage_in is not None else 0.0,
            gemm_s=plan.predict_gemm_cost().time_s,
            build_s=self.build_overhead_s + prep.time_s,
        )
        segment[key] = entry
        if len(segment) > self.capacity:
            segment.popitem(last=False)
            self.evictions += 1
        return entry, entry.build_s
