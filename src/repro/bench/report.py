"""Experiment result container and file output.

Every experiment runner returns an :class:`ExperimentResult` holding the
rendered text report (tables + ASCII figures) and the raw series. The CLI
writes ``<name>.txt`` plus one ``<name>_<table>.csv`` per series to the
output directory, so the figures can be re-plotted with any tool; a
serving experiment adds its headline run's ``<name>-trace.json`` and
``<name>-dashboard.html``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from repro.util.formatting import render_csv


@dataclass
class ExperimentResult:
    """Output of one table/figure reproduction."""

    name: str
    title: str
    #: rendered human-readable report (tables, ASCII plots, findings).
    text: str
    #: raw numeric series: table name -> (headers, rows).
    tables: dict[str, tuple[Sequence[str], list[Sequence[object]]]] = field(
        default_factory=dict
    )
    #: headline comparisons against the paper, one line each.
    findings: list[str] = field(default_factory=list)
    #: JSON-ready :meth:`MetricsRegistry.snapshot` of the experiment's
    #: headline run, when the runner serves traffic (``None`` otherwise).
    metrics: dict[str, object] | None = None
    #: JSON-ready :meth:`AlertEngine.snapshot` of the headline run's
    #: burn-rate alerting (``None`` for unmonitored experiments).
    alerts: dict[str, object] | None = None
    #: completed fraction of admitted requests in the headline run — the
    #: resilience axis every serving experiment reports (``None`` for
    #: experiments that serve no traffic).
    availability: float | None = None
    #: rendered Perfetto ``trace_event`` JSON of the headline run, trailing
    #: newline included (:meth:`write` writes it to ``<name>-trace.json``;
    #: ``None`` when the runner does not trace). Kept as text: the
    #: recorder's event list costs far more memory.
    trace_json: str | None = None
    #: rendered monitoring dashboard HTML of the headline run (:meth:`write`
    #: writes it to ``<name>-dashboard.html``; ``None`` when the runner
    #: does not monitor).
    dashboard_html: str | None = None

    def full_text(self) -> str:
        parts = [f"=== {self.name}: {self.title} ===", "", self.text]
        if self.findings:
            parts += ["", "Findings vs paper:"]
            parts += [f"  - {f}" for f in self.findings]
        return "\n".join(parts) + "\n"

    def write(self, outdir: str | Path) -> list[Path]:
        """Write the report, the CSVs, and the trace and dashboard when
        present; returns the created paths."""
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        report = outdir / f"{self.name}.txt"
        report.write_text(self.full_text())
        written.append(report)
        for table_name, (headers, rows) in self.tables.items():
            csv_path = outdir / f"{self.name}_{table_name}.csv"
            csv_path.write_text(render_csv(headers, rows))
            written.append(csv_path)
        artifacts = {"trace.json": self.trace_json, "dashboard.html": self.dashboard_html}
        for suffix, text in artifacts.items():
            if text is not None:
                path = outdir / f"{self.name}-{suffix}"
                path.write_text(text)
                written.append(path)
        return written
