"""One measured pass of one workload, in its own process.

    python3 perf/measure.py --workload lofar-f16 --seed 1 --seconds 25 --trace 0

``perf/run.py`` starts this with ``src`` on the path and the BLAS thread
pools pinned to one thread; the last line of its output is one JSON object
with the pass's metrics, their sample counts and the correctness verdict.

* ``--trace 0`` (untraced): set up, run timed blocks until ``--seconds``
  have passed, read the peak RSS, then set up ``SETUP_REPS - 1`` more
  times (the median of all set-ups is ``setup_s``).
  The host's slowdown is read just before and just after each set-up
  and block (see :mod:`hostspeed`); the gated metrics are computed from
  wall times divided by the mean of the two readings.
* ``--trace 1``: set up once, run untraced blocks for half the time, then
  wrap the workload's layers (see :mod:`spans`) and run traced blocks for
  the other half; per-layer metrics come from the traced blocks and
  ``trace.overhead_pct`` compares the two halves' root medians.

Every block's result is checked outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from dataclasses import dataclass

from metrics import (
    BANDWIDTH_LAYERS,
    COMPUTE_LAYERS,
    END_TO_END,
    FUNCTIONAL_LAYERS,
    PER_LAYER,
    REPORTED,
    SERVE_LAYERS,
)
from hostspeed import HostSpeed
from spans import Tracer, profiles

SETUP_REPS = 9


@dataclass
class Blocks:
    """Timed blocks of one loop: wall ns per block and check outcomes."""

    times_ns: list[int]
    failed: int
    max_rel_err: float
    end: int  # index of the next block
    #: the mean host slowdown read around each block; empty without one.
    slowdowns: list[float]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_blocks(
    workload,
    seconds: float,
    start: int = 0,
    tracer: Tracer | None = None,
    speed: HostSpeed | None = None,
) -> Blocks:
    """Run blocks ``start, start+1, ...`` until ``seconds`` have passed
    (at least one), timing only the call itself; with ``speed``, read the
    host's slowdown just before and just after each block."""
    times: list[int] = []
    slowdowns: list[float] = []
    failed, worst = 0, 0.0
    deadline = time.perf_counter() + seconds
    i = start
    while not times or time.perf_counter() < deadline:
        call = workload.block(i)
        before = speed.slowdown() if speed is not None else 0.0
        if tracer is not None:
            tracer.call_id = i
            tracer.enabled = True
        t0 = time.perf_counter_ns()
        result = call()
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.enabled = False
        times.append(t1 - t0)
        if speed is not None:
            slowdowns.append((before + speed.slowdown()) / 2)
        ok, err = workload.check(i, result)
        failed += not ok
        worst = max(worst, err)
        del call, result
        i += 1
    return Blocks(times, failed, worst, i, slowdowns)


def untraced_pass(workload, seconds: float) -> dict:
    speed = HostSpeed(workload.host_kernel)

    def set_up() -> float:
        before = speed.slowdown()
        t0 = time.perf_counter_ns()
        workload.setup()
        elapsed = time.perf_counter_ns() - t0
        return elapsed / ((before + speed.slowdown()) / 2)

    setups = [set_up()]
    blocks = run_blocks(workload, seconds, speed=speed)
    # Read before the further set-ups: repeated set-ups grow the heap (by
    # up to 35 MB on ultrasound-int1), which one set-up never does. ru_maxrss
    # is in KiB on Linux.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [set_up() for _ in range(SETUP_REPS - 1)]
    wall = blocks.times_ns
    times = [t / s for t, s in zip(wall, blocks.slowdowns)]
    n = len(times)
    median_ns = statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setups) / 1e9,
        "block_ms_p50": median_ns / 1e6,
        # all timed ops over the summed block times, so unlike the p50 it
        # also moves with slow blocks.
        "throughput_gops": workload.ops_per_block * n / (sum(times) / 1e9) / 1e9,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {name: n for name in list(END_TO_END) + list(REPORTED)}
    samples["setup_s"] = SETUP_REPS
    samples["peak_rss_mb"] = 1
    result = _result(workload, 0, metrics, samples, n, blocks.failed, blocks.max_rel_err)
    result["reported"] = {
        "block_ms_p90": p90(times) / 1e6,
        "req_per_s": workload.requests_per_block / (median_ns / 1e9),
        "wall_ms_p50": statistics.median(wall) / 1e6,
        "host_slowdown": statistics.median(blocks.slowdowns),
    }
    return result


def layer_metrics(workload, profs: list) -> dict[str, float]:
    """Per-layer metrics from the traced blocks' profiles; every declared
    metric the workload does not compute (a layer it never reaches) is
    zero."""
    metrics: dict[str, float] = {}
    n = len(profs)
    total_root = sum(p.root_ns for p in profs)

    def self_ns(layer: str) -> list[int]:
        return [p.self_ns.get(layer, 0) for p in profs]

    def calls(layer: str) -> int:
        return sum(p.calls.get(layer, 0) for p in profs)

    if workload.kind == "functional":
        for layer in FUNCTIONAL_LAYERS:
            own = self_ns(layer)
            metrics[f"{layer}.ms"] = statistics.median(own) / 1e6
            metrics[f"{layer}.share"] = sum(own) / total_root
            metrics[f"{layer}.calls"] = calls(layer) / n
        work = workload.layer_work()
        for layer, unit in [(x, "gbps") for x in BANDWIDTH_LAYERS] + [
            (x, "gops") for x in COMPUTE_LAYERS
        ]:
            median_s = statistics.median(self_ns(layer)) / 1e9
            metrics[f"{layer}.{unit}"] = work[layer] / median_s / 1e9 if median_s else 0.0
    else:
        for layer in SERVE_LAYERS:
            own = self_ns(layer)
            n_calls = calls(layer)
            metrics[f"{layer}.self_s"] = statistics.median(own) / 1e9
            metrics[f"{layer}.share"] = sum(own) / total_root
            metrics[f"{layer}.calls_per_kreq"] = n_calls / n / workload.requests_per_block * 1e3
            metrics[f"{layer}.us_per_call"] = sum(own) / n_calls / 1e3 if n_calls else 0.0
    metrics.update(workload.model_metrics())
    root = profs[0].root
    metrics["trace.unaccounted_share"] = sum(p.self_ns[root] for p in profs) / total_root
    undeclared = set(metrics) - set(PER_LAYER)
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}")
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def traced_pass(workload, seconds: float) -> dict:
    workload.setup()
    base = run_blocks(workload, seconds / 2)
    tracer = Tracer()
    with tracer.installed(workload.targets):
        traced = run_blocks(workload, seconds / 2, base.end, tracer)
    profs = [p for _, p in sorted(profiles(tracer.spans).items())]
    roots = {p.root for p in profs}
    if len(profs) != len(traced.times_ns) or roots != {workload.targets[0].names[0]}:
        raise RuntimeError(f"expected one root span per traced block, got roots {roots}")
    if any(sum(p.self_ns.values()) != p.root_ns for p in profs):
        raise RuntimeError("per-layer self times do not sum to the root span")
    metrics = layer_metrics(workload, profs)
    root_ns = [p.root_ns for p in profs]
    untraced_ms = statistics.median(base.times_ns) / 1e6
    metrics["trace.root_ms"] = statistics.median(root_ns) / 1e6
    metrics["trace.overhead_pct"] = (metrics["trace.root_ms"] / untraced_ms - 1.0) * 100.0
    metrics["trace.samples"] = float(len(profs))
    metrics["check.max_rel_err"] = max(base.max_rel_err, traced.max_rel_err)
    samples = dict.fromkeys(PER_LAYER, len(profs))
    attempted = len(base.times_ns) + len(traced.times_ns)
    return _result(
        workload,
        1,
        metrics,
        samples,
        attempted,
        base.failed + traced.failed,
        metrics["check.max_rel_err"],
    )


def _blas() -> str:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.26 only prints its config
        return "unknown"
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def _result(workload, trace, metrics, samples, attempted, failed, max_rel_err) -> dict:
    import numpy as np

    return {
        "workload": workload.name,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "max_rel_err": max_rel_err,
        "metrics": metrics,
        "samples": samples,
        "numpy": np.__version__,
        "blas": _blas(),
    }


def main(argv: list[str] | None = None) -> int:
    from scenarios import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    run = traced_pass if args.trace else untraced_pass
    print(json.dumps(run(workload, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
