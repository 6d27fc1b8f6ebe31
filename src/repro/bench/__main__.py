"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench                 # run everything -> results/
    python -m repro.bench fig5 fig7       # selected experiments
    python -m repro.bench --quick         # coarser sweeps
    python -m repro.bench --list          # experiments + one-line summaries
    python -m repro.bench serve --output report.json

Exits non-zero on unknown experiment names. Every experiment writes
``<name>.txt`` and one ``<name>_<table>.csv`` per table to ``--outdir``;
a serving experiment also writes its headline run's Chrome/Perfetto
``trace_event`` JSON to ``<name>-trace.json`` (open it at
``ui.perfetto.dev``) and its monitoring dashboard to
``<name>-dashboard.html`` — a self-contained, byte-deterministic HTML
page with per-series sparklines, the burn-rate alert timeline, p99
blame, and the fleet timeline. ``--output`` additionally writes one
machine-readable JSON report covering every experiment run (name, title,
findings, raw table series, and — for serving experiments — a
``metrics`` block with the registry snapshot of the headline run), plus
a top-level ``backends`` block listing every detected array backend with
its version string. ``--backend NAME`` routes the functional runners
through a :mod:`repro.backend` array backend (default numpy); unknown or
unimportable names exit non-zero listing what is available.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.backend import available_backends, backend_versions
from repro.bench.registry import EXPERIMENTS, describe, run_experiment, supports_backend


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tcbf-bench",
        description="Regenerate the tables and figures of 'The Tensor-Core Beamformer'",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiments to run (default: all). Known: {', '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--outdir", default="results", help="output directory")
    parser.add_argument("--quick", action="store_true", help="coarser sweeps")
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiments with one-line descriptions and exit",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write one combined JSON report of the run to PATH",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        help=(
            "array backend for functional runners (default: numpy); "
            "unknown or unavailable names exit non-zero listing what is "
            "importable here"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(name) for name in EXPERIMENTS)
        for name in EXPERIMENTS:
            print(f"{name:<{width}}  {describe(name)}")
        return 0

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    if args.backend is not None:
        if args.backend not in available_backends():
            parser.error(
                f"backend {args.backend!r} is not available here; "
                f"available: {', '.join(available_backends())}"
            )
        unsupported = [n for n in names if not supports_backend(n)]
        if unsupported:
            backend_aware = [n for n in EXPERIMENTS if supports_backend(n)]
            parser.error(
                f"--backend is not supported by: {', '.join(unsupported)}; "
                f"backend-aware: {', '.join(backend_aware)}"
            )

    json_report: list[dict] = []
    for name in names:
        t0 = time.perf_counter()
        result = run_experiment(name, quick=args.quick, backend=args.backend)
        elapsed = time.perf_counter() - t0
        print(result.full_text())
        written = result.write(args.outdir)
        print(f"[{name}] done in {elapsed:.1f}s; wrote {len(written)} files to {args.outdir}/")
        print()
        entry = {
            "name": result.name,
            "title": result.title,
            "findings": result.findings,
            "tables": {
                table: {"headers": list(headers), "rows": [list(r) for r in rows]}
                for table, (headers, rows) in result.tables.items()
            },
            "elapsed_s": round(elapsed, 3),
        }
        if result.metrics is not None:
            entry["metrics"] = result.metrics
        if result.alerts is not None:
            entry["alerts"] = result.alerts
        if result.availability is not None:
            entry["availability"] = result.availability
        json_report.append(entry)
    if args.output:
        report = {
            "backends": backend_versions(),
            "experiments": json_report,
        }
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, default=str)
        print(f"wrote JSON report to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
