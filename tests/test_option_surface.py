"""The settable options of the configuration objects, pinned.

Every independently settable value doubles the configurations tests and
benchmarks must cover, so the set is fixed here: a new parameter on one of
these objects must be added to this table on purpose. Values with a single
use are module constants (e.g. ``repro.serve.faults.MAX_RETRIES``), not
parameters.
"""

from __future__ import annotations

import inspect

import pytest

from repro.ccglib import Gemm
from repro.kerneltuner import tune_gemm
from repro.serve import (
    AdmissionController,
    Autoscaler,
    BatchingPolicy,
    BeamformingService,
    Placer,
    PriorityScheduler,
    ReactiveAutoscaler,
    ResiliencePolicy,
    ServiceMonitor,
    TimeSeries,
    crash_storm,
)
from repro.serve.obs.monitor import MetricSampler

SURFACE = {
    ResiliencePolicy: ("enabled",),
    ReactiveAutoscaler: ("up_pressure_s", "up_ticks", "down_ticks"),
    Autoscaler: ("policy", "device_factory", "interval_s", "max_workers", "startup_s"),
    ServiceMonitor: ("interval_s",),
    MetricSampler: ("interval_s",),
    TimeSeries: ("name", "points"),
    AdmissionController: ("slo", "max_queue_depth"),
    BatchingPolicy: ("max_batch", "max_wait_s", "sample_buckets"),
    Placer: ("stage_locality",),
    PriorityScheduler: ("tenant_weights",),
    BeamformingService: (
        "devices",
        "policy",
        "slo",
        "admission",
        "class_policies",
        "tenant_weights",
        "placer",
        "autoscaler",
        "recorder",
        "monitor",
        "faults",
        "resilience",
    ),
    crash_storm: (
        "horizon_s",
        "worker_indices",
        "n_crashes",
        "n_slow_windows",
        "replace_device",
        "replace_startup_s",
        "seed",
    ),
    Gemm: (
        "device",
        "precision",
        "batch",
        "m",
        "n",
        "k",
        "params",
        "experimental_ok",
        "backend",
    ),
    tune_gemm: ("spec", "precision", "problem", "strategy"),
}


@pytest.mark.parametrize("target", list(SURFACE), ids=lambda t: t.__name__)
def test_settable_options_are_pinned(target):
    assert tuple(inspect.signature(target).parameters) == SURFACE[target]
