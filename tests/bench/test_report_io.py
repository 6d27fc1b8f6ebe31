"""Report writer: CSV round-trips and file layout."""

from __future__ import annotations

import csv

from repro.bench.report import ExperimentResult


def _result() -> ExperimentResult:
    return ExperimentResult(
        name="demo",
        title="Demo experiment",
        text="body text",
        tables={
            "series": (["x", "y"], [[1, 2.5], [2, 3.5]]),
            "other": (["a"], [["v"]]),
        },
        findings=["finding one"],
    )


class TestWrite:
    def test_files_created(self, tmp_path):
        written = _result().write(tmp_path)
        names = {p.name for p in written}
        assert names == {"demo.txt", "demo_series.csv", "demo_other.csv"}

    def test_csv_parses_back(self, tmp_path):
        _result().write(tmp_path)
        with open(tmp_path / "demo_series.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y"]
        assert [float(v) for v in rows[1]] == [1.0, 2.5]

    def test_report_contains_title_and_findings(self, tmp_path):
        _result().write(tmp_path)
        text = (tmp_path / "demo.txt").read_text()
        assert "Demo experiment" in text
        assert "finding one" in text

    def test_nested_outdir_created(self, tmp_path):
        out = tmp_path / "a" / "b"
        _result().write(out)
        assert (out / "demo.txt").exists()


class TestRealExperimentCsv:
    def test_fig7_series_parse(self, tmp_path):
        from repro.bench.fig7 import run

        result = run(quick=True)
        result.write(tmp_path)
        with open(tmp_path / "fig7_tcbf_A100.csv") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header == ["receivers", "tflops", "tflops_per_joule", "bound"]
        ks = [int(r[0]) for r in data]
        tflops = [float(r[1]) for r in data]
        assert ks == sorted(ks)
        assert max(tflops) > 100  # A100 reaches >100 TFLOPs/s at 512 rcv
