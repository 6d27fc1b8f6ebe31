"""Bench-history regression tracking: summarize, append, check, CLI."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.history import (
    SPECS,
    MetricSpec,
    append_history,
    check,
    load_history,
    summarize,
)
from repro.errors import ShapeError

SCRIPTS_DIR = Path(__file__).parent.parent.parent / "scripts"


def _load_cli():
    spec = importlib.util.spec_from_file_location(
        "bench_history", SCRIPTS_DIR / "bench_history.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(thr: float = 100_000.0, p99: float = 0.5) -> dict:
    """A minimal --output report covering the two 'serve' specs."""
    return {
        "experiments": [
            {
                "name": "serve",
                "tables": {
                    "headline": {
                        "headers": ["config", "thr (req/s)", "p99 (ms)"],
                        "rows": [
                            ["naive (max_batch=1)", 10_000, 5.0],
                            ["batched (max_batch=32)", thr, p99],
                        ],
                    }
                },
            }
        ]
    }


class TestSpecs:
    def test_tracked_specs_cover_all_serving_experiments(self):
        assert {s.experiment for s in SPECS} == {
            "serve",
            "serve-priority",
            "serve-hetero",
            "serve-autoscale",
            "serve-resilience",
            "serve-pipeline",
            "backend-micro",
        }
        assert len({s.name for s in SPECS}) == len(SPECS)

    def test_micro_throughput_specs_are_wide_gates(self):
        # Wall-clock metrics on shared CI hosts are noisy: the gate exists
        # to catch a de-vectorization cliff, so the tolerance must be wide.
        micro = [s for s in SPECS if s.experiment == "backend-micro"]
        assert {s.name for s in micro} == {
            "backend_micro.numpy_pack_gbps",
            "backend_micro.numpy_transpose_gbps",
            "backend_micro.numpy_gemm_int1_gops",
            "backend_micro.numpy_gemm_f16_gops",
        }
        assert all(s.higher_is_better and s.rel_tol >= 0.5 for s in micro)

    def test_spec_rejects_negative_tolerances(self):
        with pytest.raises(ShapeError):
            MetricSpec("e", "t", "r", "c", "n", higher_is_better=True, rel_tol=-0.1)


class TestSummarize:
    def test_pulls_metrics_by_coordinates(self):
        row = summarize(_payload(thr=123_456.0, p99=0.75), label="x", quick=True)
        assert row["label"] == "x"
        assert row["quick"] is True
        assert row["metrics"]["serve.batched_thr_rps"] == 123_456.0
        assert row["metrics"]["serve.batched_p99_ms"] == 0.75

    def test_missing_experiments_are_skipped_not_errors(self):
        row = summarize(_payload())
        assert "serve_autoscale.reactive_completed" not in row["metrics"]

    def test_malformed_report_raises(self):
        with pytest.raises(ShapeError):
            summarize({"not": "a report"})
        broken = _payload()
        broken["experiments"][0]["tables"]["headline"]["rows"] = [["other", 1, 2]]
        with pytest.raises(ShapeError, match="no row"):
            summarize(broken)

    def test_report_with_no_tracked_experiments_raises(self):
        with pytest.raises(ShapeError, match="none of the tracked"):
            summarize({"experiments": [{"name": "fig5", "tables": {}}]})


class TestCheck:
    def test_two_identical_rows_pass(self):
        rows = [summarize(_payload(), quick=True) for _ in range(2)]
        assert check(rows) == []

    def test_throughput_regression_fails(self):
        rows = [
            summarize(_payload(thr=100_000.0), quick=True),
            summarize(_payload(thr=100_000.0), quick=True),
            summarize(_payload(thr=80_000.0), quick=True),  # -20%
        ]
        problems = check(rows)
        assert len(problems) == 1
        assert "serve.batched_thr_rps" in problems[0]

    def test_latency_rise_fails_and_improvement_passes(self):
        base = summarize(_payload(p99=1.0), quick=True)
        assert check([base, summarize(_payload(p99=1.3), quick=True)]) != []
        assert check([base, summarize(_payload(p99=0.5), quick=True)]) == []

    def test_tolerance_absorbs_small_moves(self):
        rows = [
            summarize(_payload(thr=100_000.0), quick=True),
            summarize(_payload(thr=96_000.0), quick=True),  # -4% < 5% tol
        ]
        assert check(rows) == []

    def test_quick_and_full_rows_never_compare(self):
        rows = [
            summarize(_payload(thr=100_000.0), quick=False),
            summarize(_payload(thr=50_000.0), quick=True),  # no quick prior
        ]
        assert check(rows) == []

    def test_window_bounds_the_baseline(self):
        rows = [summarize(_payload(thr=200_000.0), quick=True)] + [
            summarize(_payload(thr=100_000.0), quick=True) for _ in range(6)
        ]
        # Window 5 excludes the old 200k row: the newest 100k row passes.
        assert check(rows, window=5) == []
        with pytest.raises(ShapeError):
            check(rows, window=0)

    def test_empty_history_is_a_problem(self):
        assert check([]) != []

    def test_new_bench_first_row_skips_not_raises(self):
        # Regression: the first row carrying a newly registered bench's
        # metric has no comparable prior with that metric — it must pass
        # vacuously (nothing to drift from), never raise or flag.
        old = summarize(_payload(), quick=True)
        new = summarize(_payload(), quick=True)
        new["metrics"]["serve_resilience.resilient_availability_pct"] = 99.95
        new["metrics"]["serve_resilience.resilient_p99_ms"] = 1.25
        assert check([old, new]) == []

    def test_null_metrics_rows_skip_not_raise(self):
        # Regression: a row with ``"metrics": null`` (partial or
        # hand-edited append) used to raise — AttributeError when newest,
        # TypeError when a prior — instead of reading as "tracks nothing".
        good = summarize(_payload(), quick=True)
        null_row = {"label": "partial", "quick": True, "metrics": None}
        assert check([good, null_row]) == []
        assert check([null_row, good]) == []
        assert check([good, null_row, good]) == []


class TestFileRoundTrip:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "history.jsonl"
        assert load_history(path) == []
        row = summarize(_payload(), label="a", quick=True)
        append_history(path, row)
        append_history(path, row)
        assert load_history(path) == [row, row]

    def test_corrupt_rows_raise(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ShapeError):
            load_history(path)


class TestCli:
    def test_two_consecutive_appends_pass_check(self, tmp_path):
        cli = _load_cli()
        report = tmp_path / "report.json"
        report.write_text(json.dumps(_payload()))
        history = tmp_path / "history.jsonl"
        argv = ["--history", str(history), "--append", str(report), "--quick", "--check"]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0

    def test_injected_regression_fails_nonzero(self, tmp_path):
        cli = _load_cli()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_payload(thr=100_000.0)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_payload(thr=80_000.0)))  # -20% throughput
        history = tmp_path / "history.jsonl"
        base = ["--history", str(history), "--quick", "--check"]
        assert cli.main(base + ["--append", str(good)]) == 0
        assert cli.main(base + ["--append", str(bad)]) == 1

    def test_unreadable_report_exits_two(self, tmp_path):
        cli = _load_cli()
        history = tmp_path / "history.jsonl"
        code = cli.main(
            ["--history", str(history), "--append", str(tmp_path / "missing.json")]
        )
        assert code == 2

    def test_checked_in_history_passes_the_gate(self):
        rows = load_history(SCRIPTS_DIR.parent / "benchmarks" / "history.jsonl")
        assert len(rows) >= 2
        assert check(rows) == []
