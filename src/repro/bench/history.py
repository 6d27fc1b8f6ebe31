"""Bench-history regression tracking over ``--output`` JSON reports.

Every CI bench run appends one summarized row to ``benchmarks/history.jsonl``
— a handful of headline metrics pulled out of the combined JSON report by
explicit :class:`MetricSpec` coordinates (experiment, table, row label,
column header). ``scripts/bench_history.py --check`` then compares the
newest row against the mean of a trailing window of comparable rows and
fails on any metric that moved past its tolerance in the bad direction:
throughput down, p99 up, shed up. The tolerances are deliberate and
per-metric — simulated runs are deterministic, but quick/full sweeps and
code changes move the numbers, so the gate flags *regressions*, not noise.

The row format is plain JSON, one object per line::

    {"label": "ci", "quick": true, "metrics": {"serve.batched_thr_rps": ...}}

Rows with different ``quick`` flags are never compared against each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ShapeError

#: rows compared by default: the newest row vs the mean of this many
#: trailing comparable rows (fewer is fine; zero comparable rows passes).
DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class MetricSpec:
    """Coordinates of one tracked metric inside the combined JSON report."""

    #: experiment ``name`` in the report (e.g. ``"serve"``).
    experiment: str
    #: table name inside that experiment (e.g. ``"headline"``).
    table: str
    #: first-column label of the row to read (e.g. ``"batched (max_batch=32)"``).
    row: str
    #: column header to read (e.g. ``"thr (req/s)"``).
    column: str
    #: short dotted name the metric is stored and reported under.
    name: str
    #: direction of goodness: ``True`` flags drops, ``False`` flags rises.
    higher_is_better: bool
    #: relative tolerance vs the trailing mean before a move is a regression.
    rel_tol: float
    #: absolute slack added on top (for metrics that hover near zero).
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ShapeError(
                f"tolerances must be non-negative, got rel={self.rel_tol} abs={self.abs_tol}"
            )


#: the tracked headline metrics, one per serving experiment axis.
SPECS: tuple[MetricSpec, ...] = (
    MetricSpec(
        "serve", "headline", "batched (max_batch=32)", "thr (req/s)",
        "serve.batched_thr_rps", higher_is_better=True, rel_tol=0.05,
    ),
    MetricSpec(
        "serve", "headline", "batched (max_batch=32)", "p99 (ms)",
        "serve.batched_p99_ms", higher_is_better=False, rel_tol=0.15,
    ),
    MetricSpec(
        "serve-priority", "classes", "priority=0", "p99 (ms)",
        "serve_priority.interactive_p99_ms", higher_is_better=False, rel_tol=0.15,
    ),
    MetricSpec(
        "serve-priority", "classes", "priority=0", "thr (req/s)",
        "serve_priority.interactive_thr_rps", higher_is_better=True, rel_tol=0.05,
    ),
    MetricSpec(
        "serve-hetero", "buckets", "buckets (2048,)", "goodput (req/s)",
        "serve_hetero.bucketed_goodput_rps", higher_is_better=True, rel_tol=0.05,
    ),
    MetricSpec(
        "serve-autoscale", "policies", "reactive", "completed",
        "serve_autoscale.reactive_completed", higher_is_better=True, rel_tol=0.05,
    ),
    MetricSpec(
        "serve-autoscale", "policies", "reactive", "p99 (ms)",
        "serve_autoscale.reactive_p99_ms", higher_is_better=False, rel_tol=0.15,
    ),
    MetricSpec(
        "serve-autoscale", "policies", "reactive", "shed (%)",
        "serve_autoscale.reactive_shed_pct", higher_is_better=False,
        rel_tol=0.10, abs_tol=0.5,
    ),
    MetricSpec(
        "serve-resilience", "arms", "resilient", "availability (%)",
        "serve_resilience.resilient_availability_pct", higher_is_better=True,
        rel_tol=0.0, abs_tol=0.05,
    ),
    MetricSpec(
        "serve-resilience", "arms", "resilient", "p99 (ms)",
        "serve_resilience.resilient_p99_ms", higher_is_better=False, rel_tol=0.15,
    ),
    MetricSpec(
        "serve-pipeline", "arms", "stage-locality", "p99 (ms)",
        "serve_pipeline.e2e_p99_ms", higher_is_better=False, rel_tol=0.15,
    ),
    MetricSpec(
        "serve-pipeline", "arms", "stage-locality", "stage-local (%)",
        "serve_pipeline.stage_local_pct", higher_is_better=True,
        rel_tol=0.10, abs_tol=1.0,
    ),
    # Wall-clock micro throughput of the vectorized hot paths. Real (not
    # modelled) time on a shared CI host is noisy, so the tolerance is wide
    # — the gate exists to catch a de-vectorization cliff (10-100x), not
    # scheduler jitter.
    MetricSpec(
        "backend-micro", "micro", "numpy/pack", "GB/s",
        "backend_micro.numpy_pack_gbps", higher_is_better=True, rel_tol=0.5,
    ),
    MetricSpec(
        "backend-micro", "micro", "numpy/transpose", "GB/s",
        "backend_micro.numpy_transpose_gbps", higher_is_better=True, rel_tol=0.5,
    ),
    MetricSpec(
        "backend-micro", "micro", "numpy/gemm-int1", "GFLOP/s",
        "backend_micro.numpy_gemm_int1_gops", higher_is_better=True, rel_tol=0.5,
    ),
)


def _lookup(payload: dict, spec: MetricSpec) -> float | None:
    """Pull one metric out of a combined ``--output`` report, or ``None``.

    Missing experiments are fine (partial bench runs track what they ran);
    a present experiment with a malformed table is an error.
    """
    entries = payload.get("experiments")
    if not isinstance(entries, list):
        raise ShapeError("report has no 'experiments' list — not a --output report?")
    entry = next((e for e in entries if e.get("name") == spec.experiment), None)
    if entry is None:
        return None
    table = entry.get("tables", {}).get(spec.table)
    if table is None:
        raise ShapeError(f"{spec.experiment}: no table {spec.table!r} in report")
    headers, rows = table["headers"], table["rows"]
    if spec.column not in headers:
        raise ShapeError(
            f"{spec.experiment}/{spec.table}: no column {spec.column!r} (have {headers})"
        )
    col = headers.index(spec.column)
    row = next((r for r in rows if r and str(r[0]) == spec.row), None)
    if row is None:
        labels = [str(r[0]) for r in rows if r]
        raise ShapeError(
            f"{spec.experiment}/{spec.table}: no row {spec.row!r} (have {labels})"
        )
    return float(row[col])


def summarize(payload: dict, label: str = "", quick: bool = False) -> dict:
    """One history row from a combined ``--output`` report."""
    metrics = {}
    for spec in SPECS:
        value = _lookup(payload, spec)
        if value is not None:
            metrics[spec.name] = value
    if not metrics:
        raise ShapeError(
            "report contains none of the tracked experiments "
            f"({sorted({s.experiment for s in SPECS})})"
        )
    return {"label": label, "quick": quick, "metrics": metrics}


def check(rows: list[dict], window: int = DEFAULT_WINDOW) -> list[str]:
    """Regression problems of the newest row vs its trailing window.

    Compares ``rows[-1]`` against the mean of up to ``window`` preceding
    rows with the same ``quick`` flag, metric by metric. Returns one
    problem string per regressed metric; an empty list means pass. Fewer
    than one comparable prior row passes vacuously (nothing to drift from).
    """
    if window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    if not rows:
        return ["history is empty — append a row before checking"]
    newest = rows[-1]
    prior = [r for r in rows[:-1] if r.get("quick") == newest.get("quick")]
    prior = prior[-window:]
    if not prior:
        return []
    problems: list[str] = []
    for spec in SPECS:
        # ``or {}`` twice: a row may carry ``"metrics": null`` (a partial
        # or hand-edited append), which must read as "tracks nothing",
        # not raise. Likewise a metric newly added to SPECS appears in
        # the newest row only — zero comparable priors skips the metric
        # (nothing to drift from), the same vacuous pass as a new bench.
        value = (newest.get("metrics") or {}).get(spec.name)
        if value is None:
            continue
        baseline_values = [
            (r.get("metrics") or {})[spec.name]
            for r in prior
            if spec.name in (r.get("metrics") or {})
        ]
        if not baseline_values:
            continue
        baseline = sum(baseline_values) / len(baseline_values)
        slack = abs(baseline) * spec.rel_tol + spec.abs_tol
        if spec.higher_is_better:
            regressed = value < baseline - slack
            direction = "dropped"
        else:
            regressed = value > baseline + slack
            direction = "rose"
        if regressed:
            problems.append(
                f"{spec.name}: {direction} to {value:g} vs trailing mean "
                f"{baseline:g} over {len(baseline_values)} run(s) "
                f"(tolerance {spec.rel_tol:.0%}"
                + (f" + {spec.abs_tol:g}" if spec.abs_tol else "")
                + ")"
            )
    return problems


def load_history(path: str | Path) -> list[dict]:
    """All rows of a ``history.jsonl`` file, oldest first ([] if absent)."""
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ShapeError(f"{path}:{i}: bad history row: {exc}") from exc
    return rows


def append_history(path: str | Path, row: dict) -> None:
    """Append one row to a ``history.jsonl`` file, creating it if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
