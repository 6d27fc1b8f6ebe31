"""Benchmark harness: every experiment runs and reproduces its findings."""

from __future__ import annotations

import pytest

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.report import ExperimentResult
from repro.errors import ReproError

# Session-scoped cache: experiments are deterministic, run each once.
_RESULTS: dict[str, ExperimentResult] = {}


def _get(name: str) -> ExperimentResult:
    if name not in _RESULTS:
        _RESULTS[name] = run_experiment(name, quick=True)
    return _RESULTS[name]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert {"table1", "fig2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7"} <= set(
            EXPERIMENTS
        )

    def test_unknown_experiment(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiment("fig99")


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_runs_and_reports(name):
    result = _get(name)
    assert result.name == name
    assert result.text.strip()
    assert result.findings
    assert result.tables


SERVE_EXPERIMENTS = [
    "serve",
    "serve-priority",
    "serve-hetero",
    "serve-autoscale",
    "serve-resilience",
    "serve-pipeline",
]


@pytest.mark.parametrize("name", SERVE_EXPERIMENTS)
def test_serve_findings_hold(name):
    # Every serve finding ends in a PASS/FAIL verdict (or reports a number);
    # none may read FAIL. Reuses the cached results: no extra runs.
    assert [f for f in _get(name).findings if "FAIL" in f] == []


class TestTable1Findings:
    def test_all_cells_reproduced(self):
        result = _get("table1")
        headers, rows = result.tables["microbench"]
        ratios = [r[-1] for r in rows if r[-1] != "-"]
        assert len(ratios) == 19
        assert all(0.89 <= r <= 1.11 for r in ratios)


class TestTable3Findings:
    def test_model_matches_published(self):
        result = _get("table3")
        headers, rows = result.tables["table3"]
        for row in rows:
            paper_tops, model_tops = row[2], row[3]
            assert abs(model_tops / paper_tops - 1) < 0.02
            assert row[4] >= model_tops - 0.1  # tuner at least as good


class TestFig3Findings:
    def test_small_sizes_memory_bound(self):
        result = _get("fig3")
        headers, rows = result.tables["roofline"]
        small = [r for r in rows if r[2] == "small"]
        assert all(r[7] == "memory" for r in small)

    def test_big_sizes_compute_bound(self):
        result = _get("fig3")
        headers, rows = result.tables["roofline"]
        big = [r for r in rows if r[2] == "big"]
        assert all(r[7] == "compute" for r in big)


class TestFig5Findings:
    def test_summary_matches_paper_structure(self):
        result = _get("fig5")
        headers, rows = result.tables["summary"]
        by_gpu = {r[0]: r for r in rows}
        assert by_gpu["GH200"][1] > 1000  # three planes real-time
        assert by_gpu["GH200"][2] < 1000  # full volume not real-time
        assert 0.75 <= by_gpu["GH200"][3] <= 0.95


class TestFig7Findings:
    def test_headline_ratios(self):
        result = _get("fig7")
        headers, rows = result.tables["summary"]
        by_name = {r[0]: r[1] for r in rows}
        assert 10 <= by_name["A100 TCBF/reference speedup @512 rcv"] <= 25
        assert by_name["A100 TCBF/reference speedup @8 rcv"] <= 2.0
        assert 1.2 <= by_name["MI300X / GH200 @512 rcv"] <= 1.8


class TestOutput:
    def test_write_creates_files(self, tmp_path):
        result = _get("table1")
        written = result.write(tmp_path)
        assert (tmp_path / "table1.txt").exists()
        assert any(p.suffix == ".csv" for p in written)

    def test_full_text_includes_findings(self):
        result = _get("table1")
        assert "Findings vs paper" in result.full_text()


class TestBackendMicroFindings:
    def test_vectorized_pack_beats_pinned_floor(self):
        from repro.bench.backend_micro import MIN_PACK_SPEEDUP

        result = _get("backend-micro")
        headers, rows = result.tables["speedup"]
        by_label = {row[0]: row for row in rows}
        speedup = by_label["pack vectorized"][headers.index("speedup")]
        assert speedup >= MIN_PACK_SPEEDUP
        assert any("PASS" in f and "bit-identical" in f for f in result.findings)

    def test_backends_table_covers_detected_set(self):
        from repro.backend import available_backends

        result = _get("backend-micro")
        _, rows = result.tables["backends"]
        assert {row[0] for row in rows} == set(available_backends())

    def test_micro_table_has_all_numpy_paths(self):
        result = _get("backend-micro")
        _, rows = result.tables["micro"]
        labels = {row[0] for row in rows}
        assert {"numpy/pack", "numpy/transpose", "numpy/gemm-f16", "numpy/gemm-int1"} <= labels
