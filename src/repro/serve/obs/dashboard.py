"""A self-contained, byte-deterministic HTML dashboard of one run.

:func:`render_dashboard` turns a monitored
:class:`~repro.serve.service.ServiceReport` into a single HTML file with
no external assets — inline CSS, inline-SVG sparklines — that opens in
any browser:

* a header stat grid (offered/completed/shed, latency percentiles vs the
  SLO, throughput/goodput, device-seconds);
* one sparkline per monitor series (sorted by name, shared time axis), so
  arrival/completion/shed rates, queue depths, cache hit-rate, padded-ops
  fraction, fleet size, and per-worker busy fractions are all on one page;
* the alert timeline: every burn-rate alert as a pending/firing band over
  the run's time axis, plus the full lifecycle table;
* the p99 blame breakdown (critical-path segment shares of the tail);
* the fleet timeline (accepting vs provisioned step functions) with
  per-worker busy-fraction bars.

Determinism is a hard bar, the same one the golden CSVs and the golden
trace meet: every number renders through fixed ``%.6g``-style formatting,
series iterate in sorted order, and nothing reads a wall clock — the same
seed produces byte-identical HTML, which is what lets a dashboard digest
be checked in and gated by ``scripts/check_golden.py``.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING

from repro.errors import ShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.serve.obs.monitor import TimeSeries
    from repro.serve.service import ServiceReport

#: sparkline geometry (px).
_SPARK_W, _SPARK_H = 260, 44
#: timeline geometry (px).
_TL_W, _TL_H_ROW = 680, 16

_CSS = """\
body{font:13px/1.45 system-ui,sans-serif;margin:24px;color:#1a1a2e;background:#fafafc}
h1{font-size:20px;margin:0 0 4px}h2{font-size:15px;margin:28px 0 8px;border-bottom:1px solid #ddd;padding-bottom:4px}
table{border-collapse:collapse;margin:8px 0}td,th{border:1px solid #ddd;padding:3px 8px;text-align:right}
th{background:#eef;font-weight:600}td:first-child,th:first-child{text-align:left}
.grid{display:flex;flex-wrap:wrap;gap:14px}.card{border:1px solid #ddd;border-radius:6px;padding:8px 10px;background:#fff}
.card .name{font-family:ui-monospace,monospace;font-size:11px;color:#555}
.card .last{font-weight:600}.muted{color:#777;font-size:11px}
.stat{min-width:130px}.stat .v{font-size:17px;font-weight:600}
svg{display:block}polyline{fill:none;stroke:#3b5bdb;stroke-width:1.5}
.axis{stroke:#ccc;stroke-width:1}.pending{fill:#f2b705}.firing{fill:#d7263d}
.accepting{stroke:#2b8a3e}.provisioned{stroke:#868e96;stroke-dasharray:3 2}
.bar{fill:#3b5bdb}.barbg{fill:#e9ecef}
"""


def _fmt(value: float) -> str:
    """Fixed deterministic number formatting for all dashboard text."""
    return format(value, ".6g")


def _px(value: float) -> str:
    """Fixed deterministic pixel-coordinate formatting."""
    return format(value, ".2f")


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def _sparkline(series: TimeSeries, t0: float, t1: float) -> str:
    """One inline-SVG sparkline over the shared time axis ``[t0, t1]``."""
    points = series.points
    span = t1 - t0
    vmin = series.minimum
    vmax = series.maximum
    if vmax == vmin:  # flat series: draw it mid-height
        vmin, vmax = vmin - 0.5, vmax + 0.5
    coords = []
    for t, v in points:
        x = (t - t0) / span * _SPARK_W if span > 0 else 0.0
        y = _SPARK_H - 4 - (v - vmin) / (vmax - vmin) * (_SPARK_H - 8)
        coords.append(f"{_px(x)},{_px(y)}")
    return (
        f'<svg width="{_SPARK_W}" height="{_SPARK_H}" '
        f'viewBox="0 0 {_SPARK_W} {_SPARK_H}">'
        f'<line class="axis" x1="0" y1="{_SPARK_H - 4}" x2="{_SPARK_W}" '
        f'y2="{_SPARK_H - 4}"/>'
        f'<polyline points="{" ".join(coords)}"/></svg>'
    )


def _series_cards(report: ServiceReport, t0: float, t1: float) -> list[str]:
    parts = ['<div class="grid" id="series">']
    for name in sorted(report.monitor.series):
        series = report.monitor.series[name]
        if not series.points:
            continue
        parts.append(
            '<div class="card">'
            f'<div class="name">{_esc(name)}</div>'
            f"{_sparkline(series, t0, t1)}"
            f'<div class="muted">min {_fmt(series.minimum)} · '
            f'max {_fmt(series.maximum)} · '
            f'last <span class="last">{_fmt(series.latest)}</span></div>'
            "</div>"
        )
    parts.append("</div>")
    return parts


def _stat(label: str, value: str) -> str:
    return (
        f'<div class="card stat"><div class="muted">{_esc(label)}</div>'
        f'<div class="v">{value}</div></div>'
    )


def _header_stats(report: ServiceReport) -> list[str]:
    slo_ms = report.slo.p99_latency_s * 1e3
    verdict = "attained" if report.slo_attained else "MISSED"
    return [
        '<div class="grid" id="stats">',
        _stat(
            "requests",
            f"{report.n_offered} offered · {report.n_completed} done",
        ),
        _stat("shed", f"{_fmt(report.shed_rate * 100.0)}%"),
        _stat(
            "latency p50 / p99",
            f"{_fmt(report.p50_latency_s * 1e3)} / "
            f"{_fmt(report.p99_latency_s * 1e3)} ms",
        ),
        _stat("SLO p99", f"{_fmt(slo_ms)} ms · {verdict}"),
        _stat(
            "rate",
            f"{_fmt(report.throughput_rps)} req/s · "
            f"{_fmt(report.goodput_rps)} good",
        ),
        _stat(
            "fleet",
            f"{report.n_devices} workers · "
            f"{_fmt(report.device_seconds * 1e3)} device-ms",
        ),
        "</div>",
    ]


def _timeline_x(t_s: float, t0: float, t1: float) -> float:
    span = t1 - t0
    return (t_s - t0) / span * _TL_W if span > 0 else 0.0


def _alert_section(report: ServiceReport, t0: float, t1: float) -> list[str]:
    engine = report.monitor.engine
    alerts = engine.history
    parts = [f'<div id="alerts"><p class="muted">objective '
             f"{_fmt(engine.objective * 100.0)}% in-deadline · "
             f"{engine.count('firing')} fired · "
             f"{engine.count('resolved')} resolved · "
             f"{engine.count('cancelled')} cancelled</p>"]
    if alerts:
        height = len(alerts) * _TL_H_ROW + 4
        rows = []
        for i, alert in enumerate(alerts):
            y = i * _TL_H_ROW + 2
            end_pending = (
                alert.firing_s
                if alert.firing_s is not None
                else (alert.cancelled_s if alert.cancelled_s is not None else t1)
            )
            x0 = _timeline_x(alert.pending_s, t0, t1)
            x1 = _timeline_x(end_pending, t0, t1)
            rows.append(
                f'<rect class="pending" x="{_px(x0)}" y="{y}" '
                f'width="{_px(max(x1 - x0, 1.0))}" height="{_TL_H_ROW - 4}"/>'
            )
            if alert.firing_s is not None:
                end_firing = alert.resolved_s if alert.resolved_s is not None else t1
                fx0 = _timeline_x(alert.firing_s, t0, t1)
                fx1 = _timeline_x(end_firing, t0, t1)
                rows.append(
                    f'<rect class="firing" x="{_px(fx0)}" y="{y}" '
                    f'width="{_px(max(fx1 - fx0, 1.0))}" height="{_TL_H_ROW - 4}"/>'
                )
        parts.append(
            f'<svg width="{_TL_W}" height="{height}" '
            f'viewBox="0 0 {_TL_W} {height}">' + "".join(rows) + "</svg>"
        )
        parts.append(
            "<table><tr><th>alert</th><th>pending (ms)</th><th>fired (ms)</th>"
            "<th>resolved (ms)</th><th>peak burn</th></tr>"
        )
        for alert in alerts:
            def cell(t_s: float | None) -> str:
                return _fmt(t_s * 1e3) if t_s is not None else "—"

            resolved = alert.resolved_s
            if resolved is None and alert.cancelled_s is not None:
                resolved = alert.cancelled_s
            parts.append(
                f"<tr><td>{_esc(alert.aid)}</td>"
                f"<td>{cell(alert.pending_s)}</td>"
                f"<td>{cell(alert.firing_s)}</td>"
                f"<td>{cell(resolved)}</td>"
                f"<td>{_fmt(alert.peak_burn)}x</td></tr>"
            )
        parts.append("</table>")
    else:
        parts.append('<p class="muted">no alerts raised</p>')
    parts.append("</div>")
    return parts


def _blame_section(report: ServiceReport) -> list[str]:
    parts = ['<div id="blame">']
    tail = report.blame() if report.n_completed > 0 else None
    if tail is None:
        parts.append('<p class="muted">no completed requests to attribute</p>')
    else:
        parts.append(
            f'<p class="muted">p{_fmt(tail.q)} tail cohort: '
            f"{tail.n_requests} requests at ≥ "
            f"{_fmt(tail.threshold_s * 1e3)} ms</p>"
        )
        parts.append("<table><tr><th>segment</th><th>share</th><th>bar</th></tr>")
        for segment, share in sorted(
            tail.shares.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            width = share * 220.0
            parts.append(
                f"<tr><td>{_esc(segment)}</td>"
                f"<td>{_fmt(share * 100.0)}%</td>"
                f'<td><svg width="220" height="10" viewBox="0 0 220 10">'
                f'<rect class="barbg" x="0" y="0" width="220" height="10"/>'
                f'<rect class="bar" x="0" y="0" width="{_px(width)}" '
                f'height="10"/></svg></td></tr>'
            )
        parts.append("</table>")
    parts.append("</div>")
    return parts


def _fleet_section(report: ServiceReport, t0: float, t1: float) -> list[str]:
    parts = ['<div id="fleet">']
    timeline = report.fleet_timeline
    if timeline is not None and timeline.points:
        peak = max(provisioned for _, _, provisioned in timeline.points)
        height = 60

        def step_path(values: list[tuple[float, int]]) -> str:
            coords = []
            prev_y = None
            for t_s, n in values:
                x = _timeline_x(t_s, t0, t1)
                y = height - 6 - (n / peak) * (height - 12) if peak else height - 6
                if prev_y is not None:
                    coords.append(f"{_px(x)},{_px(prev_y)}")
                coords.append(f"{_px(x)},{_px(y)}")
                prev_y = y
            if prev_y is not None:
                coords.append(f"{_px(_TL_W)},{_px(prev_y)}")
            return " ".join(coords)

        accepting = step_path([(t, a) for t, a, _ in timeline.points])
        provisioned = step_path([(t, p) for t, _, p in timeline.points])
        parts.append(
            f'<p class="muted">fleet size over time (peak provisioned {peak}): '
            '<span class="accepting">— accepting</span> · '
            '<span class="provisioned">- - provisioned</span></p>'
            f'<svg width="{_TL_W}" height="{height}" '
            f'viewBox="0 0 {_TL_W} {height}">'
            f'<polyline class="provisioned" points="{provisioned}"/>'
            f'<polyline class="accepting" points="{accepting}"/></svg>'
        )
    busy = report.worker_busy_fractions()
    if busy:
        parts.append(
            "<table><tr><th>worker</th><th>busy</th><th>window (ms)</th>"
            "<th>bar</th></tr>"
        )
        for index, fraction in enumerate(busy):
            device = (
                report.device_names[index]
                if index < len(report.device_names)
                else "?"
            )
            start_s, end_s = report.worker_spans[index]
            parts.append(
                f"<tr><td>worker{index}/{_esc(device)}</td>"
                f"<td>{_fmt(fraction * 100.0)}%</td>"
                f"<td>{_fmt(start_s * 1e3)}–{_fmt(end_s * 1e3)}</td>"
                f'<td><svg width="220" height="10" viewBox="0 0 220 10">'
                f'<rect class="barbg" x="0" y="0" width="220" height="10"/>'
                f'<rect class="bar" x="0" y="0" '
                f'width="{_px(min(fraction, 1.0) * 220.0)}" height="10"/>'
                "</svg></td></tr>"
            )
        parts.append("</table>")
    parts.append("</div>")
    return parts


def render_dashboard(report: ServiceReport, title: str = "Service dashboard") -> str:
    """The dashboard HTML for one monitored run — byte-deterministic.

    Raises :class:`ShapeError` for unmonitored reports: every panel but
    the header needs the monitor's time axis, and a dashboard of one
    end-of-run snapshot would be a lie of omission.
    """
    if report.monitor is None:
        raise ShapeError(
            "render_dashboard needs a monitored report: run the service "
            "with a ServiceMonitor (monitor=...)"
        )
    sampler = report.monitor.sampler
    t0 = 0.0
    t1 = max(
        (series.points[-1][0] for series in report.monitor.series.values() if series.points),
        default=sampler.interval_s,
    )
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="muted">deterministic replay · {sampler.n_ticks} samples at '
        f"{_fmt(sampler.interval_s * 1e6)} µs cadence · simulated horizon "
        f"{_fmt(t1 * 1e3)} ms</p>",
        "<h2>Run at a glance</h2>",
        *_header_stats(report),
        "<h2>Time series</h2>",
        *_series_cards(report, t0, t1),
        "<h2>Alerts</h2>",
        *_alert_section(report, t0, t1),
        "<h2>p99 blame</h2>",
        *_blame_section(report),
        "<h2>Fleet</h2>",
        *_fleet_section(report, t0, t1),
        "</body></html>",
    ]
    return "\n".join(parts) + "\n"

