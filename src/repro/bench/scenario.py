"""Shared scaffolding of the ``serve*`` experiments.

Every serving experiment is a handful of *arms* — one fleet, policy, and
trace each — served through :class:`~repro.serve.BeamformingService`,
tabulated, and judged by findings. This module holds what they share:

* :func:`fleet` builds dry-run devices from catalog names;
* :func:`gemm_capacity_hz` and :func:`block_capacity_hz` calibrate
  offered load against a device's GEMM-bound or whole-block capacity;
* :class:`Columns` declares a table once as ``(header, item -> value)``
  pairs, so headers and rows cannot drift apart;
* :class:`Scenario` serves an experiment's arms with a trace recorder and
  a monitor on the headline arm only, replays that arm untraced, and
  checks the replay is identical; its unmonitored :meth:`Scenario.reports`
  feed the ``golden_rows`` generators from the same arm list ``run()``
  uses;
* :func:`experiment_result` assembles the :class:`ExperimentResult`,
  rendered trace and dashboard included.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from repro.bench.report import ExperimentResult
from repro.gpusim.device import Device, ExecutionMode
from repro.serve import (
    ServiceMonitor,
    ServiceReport,
    TraceRecorder,
    render_dashboard,
    render_trace,
)
from repro.util.formatting import render_table

#: ``(headers, rows)`` of one table.
Table = tuple[list[str], list[list[object]]]

#: one arm: serves a fresh trace on a fresh fleet. The headline arm also
#: takes ``recorder=`` and ``monitor=`` keywords.
Arm = Callable[..., ServiceReport]


def fleet(*names: str) -> list[Device]:
    """One dry-run (cost-model-only) device per catalog name."""
    return [Device(name, ExecutionMode.DRY_RUN) for name in names]


def gemm_capacity_hz(kernel, gpu: str, batch: int) -> float:
    """Requests/s one device sustains on full ``batch``-request launches,
    GEMM-bound: with copy/compute overlap the next batch's stage-in hides
    behind the running GEMM."""
    plan = kernel.make_plan(fleet(gpu)[0], batch)
    return batch / plan.predict_gemm_cost().time_s


def block_capacity_hz(kernel, gpu: str, batch: int, load: float = 1.0) -> float:
    """``load`` x the requests/s one device sustains on full ``batch``-request
    launches, each priced as a whole block (stage-in, GEMM, stage-out)."""
    plan = kernel.make_plan(fleet(gpu)[0], batch)
    return load * batch / plan.predict_block_cost().time_s


class Columns:
    """A table declared once: a label header plus ``(header, item -> value)``
    pairs, yielding both the headers and every row."""

    def __init__(self, label: str, *columns: tuple[str, Callable[[Any], object]]):
        self.headers = [label, *(header for header, _ in columns)]
        self._values = [value for _, value in columns]

    def row(self, label: object, item: Any) -> list[object]:
        return [label, *(value(item) for value in self._values)]

    def table(self, items: Iterable[tuple[object, Any]]) -> Table:
        """The headers plus one row per ``(label, item)`` pair."""
        return self.headers, [self.row(label, item) for label, item in items]


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


@dataclass
class Served:
    """One run of a scenario's arms."""

    #: every arm's report, by label, in declaration order.
    reports: dict[str, ServiceReport]
    headline: ServiceReport
    #: the headline arm's monitor (its alerts feed the result).
    monitor: ServiceMonitor
    #: the headline arm's rendered Perfetto trace (trailing newline
    #: included).
    trace_json: str
    #: whether an untraced fixed-seed replay of the headline arm
    #: reproduced the traced run.
    replay_identical: bool


@dataclass(frozen=True)
class Scenario:
    """How an experiment serves its arms: which one is the headline, how
    often that arm is monitored, and the table rows its report renders to
    (the replay check compares them). The headline arm is always traced
    and monitored; its untraced replay checks that tracing changed
    nothing."""

    headline: str
    monitor_interval_s: float
    headline_rows: Callable[[ServiceReport], list[list[object]]]

    def reports(self, arms: Mapping[str, Arm]) -> dict[str, ServiceReport]:
        """Every arm served once, unmonitored and untraced."""
        return {label: arm() for label, arm in arms.items()}

    def serve(self, arms: Mapping[str, Arm]) -> Served:
        """Serve every arm, the headline traced and monitored, then replay
        the headline untraced under a fresh monitor of the same cadence:
        an identical replay shows the trace recorder changed nothing."""
        monitor = ServiceMonitor(interval_s=self.monitor_interval_s)
        reports: dict[str, ServiceReport] = {}
        for label, arm in arms.items():
            if label == self.headline:
                recorder = TraceRecorder()
                reports[label] = arm(recorder=recorder, monitor=monitor)
                # Rendered before the later arms run: the render's working
                # set is the largest allocation of a traced experiment, and
                # their reports need not sit beside it.
                trace_json = render_trace(recorder) + "\n"
            else:
                reports[label] = arm()
        headline = reports[self.headline]
        replay = arms[self.headline](monitor=ServiceMonitor(interval_s=self.monitor_interval_s))
        identical = (
            replay.latencies_s == headline.latencies_s
            and replay.placements == headline.placements
            and replay.n_batches == headline.n_batches
            and replay.summary() == headline.summary()
            and self.headline_rows(replay) == self.headline_rows(headline)
        )
        return Served(reports, headline, monitor, trace_json, identical)


def experiment_result(
    name: str,
    title: str,
    served: Served,
    sections: Iterable[tuple[str, str, Table] | str],
    findings: list[str],
    dashboard_title: str,
) -> ExperimentResult:
    """The result of a served experiment.

    ``sections`` are ``(table name, caption, table)`` triples, rendered in
    order into the text and the CSV tables; a plain string is appended to
    the text as is. Metrics, alerts, availability, the Perfetto trace, and
    the dashboard all come from the headline arm.
    """
    tables: dict[str, Table] = {}
    text: list[str] = []
    for section in sections:
        if isinstance(section, str):
            text.append(section)
            continue
        key, caption, (headers, rows) = section
        tables[key] = (headers, rows)
        text.append(render_table(headers, rows, title=caption))
    report = served.headline
    return ExperimentResult(
        name=name,
        title=title,
        text="\n".join(text),
        tables=tables,
        findings=findings,
        metrics=report.metrics.snapshot() if report.metrics is not None else None,
        alerts=served.monitor.engine.snapshot(),
        availability=report.availability,
        trace_json=served.trace_json,
        dashboard_html=render_dashboard(report, title=dashboard_title),
    )
