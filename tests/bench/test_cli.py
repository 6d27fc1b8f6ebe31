"""Benchmark CLI."""

from __future__ import annotations

import pytest

from repro.bench.__main__ import main
from tests.bench.test_validators import _load


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_single_experiment_writes_output(self, tmp_path, capsys):
        assert main(["table1", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        assert "Table I" in capsys.readouterr().out
        assert not list(tmp_path.glob("table1-*"))  # no trace, no dashboard

    def test_serve_experiment_writes_valid_trace_and_dashboard(self, tmp_path, capsys):
        assert main(["serve-pipeline", "--quick", "--outdir", str(tmp_path)]) == 0
        trace = tmp_path / "serve-pipeline-trace.json"
        dashboard = tmp_path / "serve-pipeline-dashboard.html"
        assert _load("validate_trace").check(str(trace)) == []
        assert _load("validate_dashboard").check(str(dashboard)) == []


class TestCliPolish:
    def test_list_includes_one_line_descriptions(self, capsys):
        from repro.bench.registry import EXPERIMENTS, describe

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(EXPERIMENTS)
        # Every line pairs the name with its module's one-line summary.
        assert any("serve-hetero" in line and "heterogeneous" in line.lower()
                   for line in lines)
        for name in EXPERIMENTS:
            assert describe(name)  # no experiment is undocumented

    def test_unknown_experiment_exits_nonzero(self):
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-experiment"])
        assert excinfo.value.code != 0

    def test_output_writes_json_report(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "report.json"
        assert main(["table1", "--outdir", str(tmp_path), "--output", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        [experiment] = payload["experiments"]
        assert experiment["name"] == "table1"
        assert experiment["findings"]
        assert "microbench" in experiment["tables"]
        table = experiment["tables"]["microbench"]
        assert table["headers"] and table["rows"]
        # The human-readable files still land in --outdir alongside.
        assert (tmp_path / "table1.txt").exists()


class TestCliBackend:
    def test_backend_numpy_accepted(self, tmp_path, capsys):
        assert main(
            ["backend-micro", "--quick", "--backend", "numpy", "--outdir", str(tmp_path)]
        ) == 0
        assert "numpy/pack" in capsys.readouterr().out

    def test_unavailable_backend_exits_nonzero_listing_available(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["backend-micro", "--backend", "not-a-backend"])
        assert excinfo.value.code != 0
        assert "available: numpy" in capsys.readouterr().err

    def test_backend_on_unsupporting_experiment_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--backend", "numpy"])
        assert excinfo.value.code != 0
        assert "backend-aware" in capsys.readouterr().err

    def test_output_report_carries_backends_block(self, tmp_path):
        import json

        from repro.backend import backend_versions

        out_json = tmp_path / "report.json"
        assert main(
            ["backend-micro", "--quick", "--outdir", str(tmp_path), "--output", str(out_json)]
        ) == 0
        payload = json.loads(out_json.read_text())
        assert payload["backends"] == backend_versions()
