"""Benchmark harness: regenerates every table and figure of the paper.

See :mod:`repro.bench.registry` for the experiment index and
``python -m repro.bench --help`` for the CLI.
"""

from repro.bench.registry import EXPERIMENTS, run_experiment
from repro.bench.report import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "ExperimentResult"]
