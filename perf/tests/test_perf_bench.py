"""Fast checks of the benchmark harness on tiny shapes and short horizons."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import calibrate  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Span, Tracer, profiles, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_lofar(seed: int = 0):
    return scenarios.LofarF16(
        seed, n_beams=16, n_stations=8, n_samples=16, n_channels=2, n_polarizations=1,
        n_blocks=2,
    )


def tiny_ultrasound(seed: int = 0):
    return scenarios.UltrasoundInt1(
        seed, grid=(4, 4, 2), n_frequencies=2, n_transmissions=2, n_frames=8, n_blocks=2
    )


def tiny_batching(seed: int = 0):
    return scenarios.ServeBatching(seed, horizon_s=5e-4)


def tiny_mixed(seed: int = 0):
    return scenarios.ServeMixed(seed, horizon_s=3e-4)


TINY = [tiny_lofar, tiny_ultrasound, tiny_batching, tiny_mixed]


def test_self_times_of_nested_spans():
    spans = [
        Span("root", 0, 100, None, 0),
        Span("a", 10, 60, 0, 0),
        Span("b", 20, 30, 1, 0),
        Span("a", 70, 90, 0, 0),
    ]
    assert self_times(spans) == [30, 40, 10, 20]
    (prof,) = profiles(spans).values()
    assert prof.self_ns == {"root": 30, "a": 60, "b": 10}
    assert prof.calls == {"root": 1, "a": 2, "b": 1}


@pytest.mark.parametrize("make", TINY)
def test_layer_self_times_sum_to_the_root(make):
    workload = make()
    workload.setup()
    tracer = Tracer()
    with tracer.installed(workload.targets):
        blocks = measure.run_blocks(workload, 0.0, tracer=tracer)
        blocks = measure.run_blocks(workload, 0.0, blocks.end, tracer=tracer)
    profs = profiles(tracer.spans)
    assert len(profs) == 2
    for prof in profs.values():
        assert prof.root == workload.targets[0].names[0]
        assert sum(prof.self_ns.values()) == prof.root_ns
        assert min(prof.self_ns.values()) >= 0
        assert len(prof.calls) > 1


@pytest.mark.parametrize("make", TINY)
def test_traced_pass_restores_every_wrapped_attribute(make):
    workload = make()
    originals = [vars(t.owner)[t.attr] for t in workload.targets]
    result = measure.traced_pass(workload, 0.0)
    assert result["correct"]
    assert [vars(t.owner)[t.attr] for t in workload.targets] == originals
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(workload.targets, originals))


def test_wrappers_are_removed_when_the_block_raises():
    targets = scenarios.ServeWorkload.targets
    originals = [vars(t.owner)[t.attr] for t in targets]
    with pytest.raises(RuntimeError):
        with Tracer().installed(targets):
            raise RuntimeError("boom")
    assert all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))


def _corrupting(workload, corrupt):
    block = workload.block

    def corrupted(i):
        call = block(i)

        def go():
            result = call()
            corrupt(result)
            return result

        return go

    workload.block = corrupted
    return workload


def _bump(result):
    result.output.flat[0] += 1


def _lose_an_outcome(report):
    report.outcomes[0] = None


@pytest.mark.parametrize(
    "make, corrupt",
    [(tiny_lofar, _bump), (tiny_ultrasound, _bump), (tiny_batching, _lose_an_outcome)],
)
def test_a_corrupted_output_is_counted_as_failed(make, corrupt):
    workload = make()
    workload.setup()
    clean = measure.run_blocks(workload, 0.0)
    assert clean.failed == 0
    bad = measure.run_blocks(_corrupting(workload, corrupt), 0.0)
    assert bad.failed == 1
    result = measure.untraced_pass(workload, 0.0)
    assert not result["correct"] and result["failed"] == result["attempted"]
    line = run.results_file([result], {})["workloads"][workload.name]
    assert line["failed_frac"] == 1.0


def test_serve_fingerprint_is_stable_across_replays():
    workload = tiny_mixed(seed=3)
    workload.setup()
    first = workload.block(1)()
    second = workload.block(2)()
    assert scenarios.fingerprint(first) == scenarios.fingerprint(second)
    assert workload.check(1, first) == (True, 0.0)
    assert workload.check(2, second) == (True, 0.0)


def test_the_seed_picks_the_inputs():
    a, b, c = tiny_batching(1), tiny_batching(1), tiny_batching(2)
    arrivals = [[r.arrival_s for r in w.trace] for w in (a, b, c)]
    assert arrivals[0] == arrivals[1] != arrivals[2]


@pytest.mark.parametrize("make", [tiny_lofar, tiny_batching])
def test_emitted_metrics_are_declared_with_their_units(make):
    declared = {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    untraced = measure.untraced_pass(make(), 0.0)
    traced = measure.traced_pass(make(), 0.0)
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in list(untraced["metrics"]) + list(traced["metrics"]):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert declared[name] == metrics.UNITS[name]
    for name in ("block_ms_p50", "throughput_gops", "setup_s"):
        assert untraced["metrics"][name] > 0
    assert set(untraced["reported"]) == set(metrics.REPORTED)
    assert not set(metrics.REPORTED) & set(declared)
    assert untraced["reported"]["block_ms_p90"] >= untraced["metrics"]["block_ms_p50"]


class _SlowingHost:
    """A host whose readings alternate 1.5 and 2.5: every bracketing pair
    of readings averages twice as slow as nominal."""

    def __init__(self, kernel: str):
        self.readings = iter([1.5, 2.5] * 10_000)

    def slowdown(self) -> float:
        return next(self.readings)


def test_gated_times_are_wall_times_over_the_host_slowdown(monkeypatch):
    monkeypatch.setattr(measure, "HostSpeed", _SlowingHost)
    result = measure.untraced_pass(tiny_batching(), 0.2)
    reported = result["reported"]
    assert result["correct"] and result["attempted"] > 1
    assert reported["host_slowdown"] == 2.0
    assert result["metrics"]["block_ms_p50"] == pytest.approx(reported["wall_ms_p50"] / 2)


@pytest.mark.parametrize("make", TINY)
def test_every_workload_reads_a_host_kernel(make):
    speed = HostSpeed(make().host_kernel)
    assert all(0.0 < speed.slowdown() < 100.0 for _ in range(3))


def test_benchmark_json_matches_the_harness():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(scenarios.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def _sets(**later):
    """Two synthetic calibration sets of one workload: every metric reads
    1.0 in both, except the ``later`` values in the second set."""
    first = {"w": {name: [1.0] * 3 for name in metrics.END_TO_END}}
    second = {"w": {name: [later.get(name, 1.0)] * 3 for name in metrics.END_TO_END}}
    return [first, second]


def test_calibration_flags_drift_in_either_direction():
    bound = metrics.BOUNDS["block_ms_p50"]
    assert calibrate.judge(_sets(), metrics.BOUNDS)
    assert calibrate.judge(_sets(block_ms_p50=1.0 + bound / 2), metrics.BOUNDS)
    # a later set that reads much better than the first is drift too.
    assert not calibrate.judge(_sets(block_ms_p50=1.0 - 2 * bound), metrics.BOUNDS)
    assert not calibrate.judge(_sets(block_ms_p50=1.0 + 2 * bound), metrics.BOUNDS)
    assert not calibrate.judge(_sets(throughput_gops=1.0 + 2 * bound), metrics.BOUNDS)


def test_runner_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "lofar-f16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
