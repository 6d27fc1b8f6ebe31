"""Experiment registry: every paper table/figure mapped to its runner,
and every checked-in golden file mapped to the generator of its bytes."""

from __future__ import annotations

import inspect
from collections.abc import Callable

from repro.bench import (
    ablations,
    backend_micro,
    claims,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    serve,
    serve_autoscale,
    serve_hetero,
    serve_pipeline,
    serve_priority,
    serve_resilience,
    table1,
    table3,
)
from repro.bench.report import ExperimentResult
from repro.bench.scenario import Table
from repro.errors import ReproError
from repro.util.formatting import render_csv

#: experiment name -> runner. Order matches the paper's evaluation flow.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "fig2": fig2.run,
    "table3": table3.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "ablations": ablations.run,
    "backend-micro": backend_micro.run,
    "claims": claims.run,
    "serve": serve.run,
    "serve-priority": serve_priority.run,
    "serve-hetero": serve_hetero.run,
    "serve-autoscale": serve_autoscale.run,
    "serve-resilience": serve_resilience.run,
    "serve-pipeline": serve_pipeline.run,
}


def _csv(golden_rows: Callable[[], Table]) -> Callable[[], str]:
    return lambda: render_csv(*golden_rows())


#: golden file name (under ``tests/serve/golden/``) -> zero-argument
#: renderer of its exact bytes. ``scripts/check_golden.py`` and the golden
#: test both read this one mapping; each CSV renders a bench's
#: ``golden_rows`` at that bench's ``GOLDEN_HORIZON_S``.
GOLDENS: dict[str, Callable[[], str]] = {
    # Per-class and per-tenant rows of one short 5x overload run.
    "serve_priority_small.csv": _csv(serve_priority.golden_rows),
    # One row per arm (mixed, amd-only, exact-shape, bucketed, split).
    "serve_hetero_small.csv": _csv(serve_hetero.golden_rows),
    # One diurnal day through every provisioning regime (reactive,
    # predictive, and the two budget-derived fixed fleets).
    "serve_autoscale_small.csv": _csv(serve_autoscale.golden_rows),
    # One short storm through all three recovery arms (fault-free,
    # no-recovery, resilient).
    "serve_resilience_small.csv": _csv(serve_resilience.golden_rows),
    # One short mixed-DAG run through both stage-placement arms
    # (locality-aware, stage-blind).
    "serve_pipeline_small.csv": _csv(serve_pipeline.golden_rows),
    # Perfetto span-event trace of the small serve run — pins every
    # lifecycle edge (arrival through completion), not just aggregates.
    "serve_trace_small.json": serve.golden_trace,
    # sha256 of the monitored small serve run's dashboard HTML — pins the
    # sampler cadence, alert evaluation, and the rendering itself without
    # checking in tens of kilobytes of markup.
    "serve_dashboard_small.sha256": serve.golden_dashboard_digest,
}


def describe(name: str) -> str:
    """One-line description of an experiment (its module docstring's lead).

    The registry's runners are module-level ``run`` functions, so the first
    docstring line of each module is the authoritative summary — no second
    copy to drift.
    """
    runner = EXPERIMENTS[name]
    doc = inspect.getdoc(inspect.getmodule(runner)) or ""
    first = doc.strip().splitlines()[0] if doc.strip() else ""
    return first.removeprefix("Experiment:").strip().rstrip(".")


def supports_tracing(name: str) -> bool:
    """Whether an experiment's runner accepts a span-event ``recorder``."""
    return "recorder" in inspect.signature(EXPERIMENTS[name]).parameters


def supports_backend(name: str) -> bool:
    """Whether an experiment's runner accepts an array ``backend`` name."""
    return "backend" in inspect.signature(EXPERIMENTS[name]).parameters


def run_experiment(
    name: str, quick: bool = False, recorder=None, backend: str | None = None
) -> ExperimentResult:
    """Run one experiment by name; passes ``quick``, ``recorder``, and
    ``backend`` where supported (``recorder`` collects the headline run's
    span events for Perfetto export — see :mod:`repro.serve.obs`;
    ``backend`` selects the array-execution backend of functional runners
    — see :mod:`repro.backend`)."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError as exc:
        raise ReproError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from exc
    params = inspect.signature(runner).parameters
    kwargs: dict[str, object] = {}
    if "quick" in params:
        kwargs["quick"] = quick
    if recorder is not None:
        if "recorder" not in params:
            raise ReproError(
                f"experiment {name!r} does not support tracing; traceable: "
                f"{', '.join(n for n in EXPERIMENTS if supports_tracing(n))}"
            )
        kwargs["recorder"] = recorder
    if backend is not None:
        if "backend" not in params:
            raise ReproError(
                f"experiment {name!r} does not support backend selection; "
                f"backend-aware: {', '.join(n for n in EXPERIMENTS if supports_backend(n))}"
            )
        kwargs["backend"] = backend
    return runner(**kwargs)

