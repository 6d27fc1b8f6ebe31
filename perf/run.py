"""Measured end-to-end and per-layer benchmark of the beamformer and the
serving simulator.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload in its own process (``perf/measure.py``), one after
another, with the BLAS thread pools pinned to one thread and ``src`` on
the path. Without ``--trace`` each workload gets an untraced pass
(end-to-end metrics) and a traced pass (per-layer metrics); with it, only
that pass. Prints every metric with its unit and the correctness verdict,
writes ``perf-results.json`` (measured numbers apart from model numbers,
plus the environment), and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. For one workload and
one pass the metric names are bare; otherwise they are prefixed with the
workload name. Exits 1 if any check failed, 2 if it cannot run at all.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from metrics import BENCHMARK, UNITS, is_model

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
DEFAULT_SECONDS = BENCHMARK["run_seconds"]
#: a plain single-threaded baseline, and the lowest run-to-run spread.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pass of one workload in a child process; its result or a failure."""
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    failure = {"workload": workload, "trace": trace, "correct": False, "attempted": 1,
               "failed": 1, "metrics": {}, "samples": {}}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=min(170.0, 60.0 + 3.0 * seconds),
        )
    except subprocess.TimeoutExpired:
        return dict(failure, error="timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return dict(failure, error=f"exit code {proc.returncode}")
    return json.loads(lines[-1])


@contextmanager
def exclusive():
    """Yield whether this process holds the checkout's benchmark lock, so
    workloads never run concurrently (one runner per checkout at a time)."""
    with open(__file__) as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            yield False
            return
        yield True


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(results: list[dict], seed: int, seconds: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in results if "numpy" in r), None),
        "blas": next((r["blas"] for r in results if "blas" in r), None),
        "threads": THREADS,
        "seed": seed,
        "seconds": seconds,
    }


def results_file(results: list[dict], env: dict) -> dict:
    """``perf-results.json``: per workload, measured and model numbers apart."""
    workloads: dict[str, dict] = {}
    for r in results:
        entry = workloads.setdefault(
            r["workload"],
            {"correct": True, "attempted": 0, "failed": 0, "max_rel_err": 0.0,
             "measured": {}, "model": {}},
        )
        entry["correct"] = entry["correct"] and r["correct"]
        entry["attempted"] += r["attempted"]
        entry["failed"] += r["failed"]
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        entry["max_rel_err"] = max(entry["max_rel_err"], r.get("max_rel_err", 0.0))
        for name, value in {**r["metrics"], **r.get("reported", {})}.items():
            side = "model" if is_model(name) else "measured"
            entry[side][name] = {"value": value, "unit": UNITS[name],
                                 "samples": r["samples"][name]}
        if "error" in r:
            entry["error"] = r["error"]
    return {"environment": env, "correct": all(r["correct"] for r in results),
            "workloads": workloads}


def report(r: dict) -> None:
    """Print one pass's metrics, leaving out layers it never reached."""
    pass_name = "traced (per layer)" if r["trace"] else "untraced (end to end)"
    verdict = "correct" if r["correct"] else f"FAILED {r['failed']}/{r['attempted']}"
    print(f"\n== {r['workload']}: {pass_name}, {r['attempted']} blocks, {verdict}"
          + (f" ({r['error']})" if "error" in r else ""))
    metrics = {**r["metrics"], **r.get("reported", {})}
    for name, value in metrics.items():
        layer, _, stat = name.rpartition(".")
        calls = metrics.get(f"{layer}.calls", metrics.get(f"{layer}.calls_per_kreq"))
        if calls == 0 and stat in ("ms", "share", "calls", "gbps", "gops", "self_s",
                                   "calls_per_kreq", "us_per_call", "model_ms"):
            continue
        gate = "" if name in r["metrics"] else " (not gated)"
        print(f"  {name:36s} {value:14.6g} {UNITS[name]:10s} n={r['samples'][name]}{gate}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run only this pass; default: both")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perf: no library source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    passes = [args.trace] if args.trace is not None else [0, 1]

    with exclusive() as locked:
        if not locked:
            print("perf: another benchmark run holds the lock", file=sys.stderr)
            return 2
        results = []
        for workload in workloads:
            for trace in passes:
                results.append(measure(workload, args.seed, args.seconds, trace))
                report(results[-1])

    env = environment(results, args.seed, args.seconds)
    output = ROOT / "perf-results.json"
    output.write_text(json.dumps(results_file(results, env), indent=2) + "\n")
    single = len(results) == 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}.{name}"): {"value": value, "unit": UNITS[name]}
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(f"\nenvironment: {json.dumps(env)}\nresults: {output}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
