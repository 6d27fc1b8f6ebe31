"""Calibrate the benchmark's end-to-end bounds from repeated runs.

    python3 perf/calibrate.py [--sets 2] [--runs 10] [--seconds 25] [--workload NAME ...]

Runs ``--sets`` sets of ``--runs`` untraced passes of every workload, each
run of a set with its own seed (the same seeds in every set) and the
workloads interleaved, so that drift of the machine hits all of them
alike. For each set, workload and end-to-end metric it prints the median,
the interquartile range (``statistics.quantiles(values, n=4)``) and the
relative spread (IQR / median). It then checks every metric against its
bound in ``BENCHMARK.json``:

* the spread of every set stays within the bound (``setup_s`` excepted,
  it is only reported), and is flagged when above a third of it;
* no later set's median differs from the first set's by more than the
  bound, in either direction: two sets of the same code must agree;
* every run's correctness checks passed.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from metrics import BOUNDS, END_TO_END
from run import DEFAULT_SECONDS, SOURCE, WORKLOADS, exclusive, measure


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, IQR, IQR / median) of one set of values."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, (q3 - q1) / median if median else float("inf")


def drift(first: float, later: float) -> float:
    """How far ``later`` is from ``first``, as a signed share of ``first``."""
    return (later - first) / first


def collect(workloads, sets: int, runs: int, seconds: float) -> tuple[list, int]:
    """values[set][workload][metric] -> list, and the number of failed runs."""
    values = [{w: {m: [] for m in END_TO_END} for w in workloads} for _ in range(sets)]
    failures = 0
    for k in range(sets):
        for r in range(runs):
            for workload in workloads:
                result = measure(workload, r + 1, seconds, 0)
                failures += not result["correct"]
                for name, value in result["metrics"].items():
                    values[k][workload][name].append(value)
                print(f"set {k + 1}/{sets} run {r + 1}/{runs} {workload}: "
                      + ("ok" if result["correct"] else "FAILED"), flush=True)
    return values, failures


def judge(values: list[dict], bounds: dict[str, float]) -> bool:
    ok = True
    print(f"\n{'workload':16s} {'metric':16s} {'set':>3s} {'median':>12s} "
          f"{'IQR':>10s} {'spread':>8s} {'drift':>8s} {'bound':>6s}  verdict")
    for workload in values[0]:
        for name in END_TO_END:
            bound = bounds[name]
            first = None
            for k, per_set in enumerate(values):
                samples = per_set[workload][name]
                if len(samples) < 2:
                    continue
                median, iqr, rel = spread(samples)
                first = median if first is None else first
                change = drift(first, median)
                verdicts = []
                if name != "setup_s" and rel > bound:
                    verdicts.append("SPREAD>BOUND")
                elif name != "setup_s" and rel > bound / 3:
                    verdicts.append("spread>bound/3")
                if abs(change) > bound:
                    verdicts.append("DRIFT>BOUND")
                ok = ok and not any(v.isupper() for v in verdicts)
                print(f"{workload:16s} {name:16s} {k + 1:3d} {median:12.6g} {iqr:10.4g} "
                      f"{rel:8.2%} {change:8.2%} {bound:6.0%}  {' '.join(verdicts) or 'ok'}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"calibrate: no library source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    with exclusive() as locked:
        if not locked:
            print("calibrate: another benchmark run holds the lock", file=sys.stderr)
            return 2
        values, failures = collect(
            args.workload or WORKLOADS, args.sets, args.runs, args.seconds
        )
    ok = judge(values, BOUNDS)
    print(f"\nfailed runs: {failures}")
    return 0 if ok and failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
