"""Auto-tuner orchestration."""

from __future__ import annotations

import pytest

from repro.ccglib.perfmodel import model_gemm
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import published_tuning
from repro.errors import UnsupportedPrecisionError
from repro.gpusim.specs import get_spec
from repro.kerneltuner.strategies import GreedyILS
from repro.kerneltuner.tuner import PAPER_TUNING_PROBLEMS, tune_gemm
from repro.util.units import tera


class TestTuneGemm:
    def test_best_at_least_published_config(self):
        # The tuner must never do worse than the Table III parameters.
        for gpu, precision in [("A100", Precision.FLOAT16), ("GH200", Precision.INT1)]:
            spec = get_spec(gpu)
            result = tune_gemm(spec, precision)
            published = published_tuning(gpu, precision)
            at_published = model_gemm(
                spec, precision, PAPER_TUNING_PROBLEMS[precision], published.params
            )
            assert result.best.metrics["tops"] >= at_published.ops_per_second / tera - 1e-6

    def test_published_config_near_optimal(self):
        # ... and the published config sits on the optimum plateau (<=7%).
        for row_gpu in ("A100", "MI300X"):
            spec = get_spec(row_gpu)
            result = tune_gemm(spec, Precision.FLOAT16)
            published = published_tuning(row_gpu, Precision.FLOAT16)
            at_published = model_gemm(
                spec, Precision.FLOAT16, PAPER_TUNING_PROBLEMS[Precision.FLOAT16],
                published.params,
            )
            assert at_published.ops_per_second / tera >= 0.93 * result.best.metrics["tops"]

    def test_int1_on_amd_rejected(self):
        with pytest.raises(UnsupportedPrecisionError):
            tune_gemm(get_spec("MI210"), Precision.INT1)

    def test_invalid_configs_counted(self):
        result = tune_gemm(get_spec("A100"), Precision.FLOAT16)
        assert result.invalid_configs > 0
        assert result.evaluations == len(result.records) + result.invalid_configs

    def test_pareto_front_contains_best_points(self):
        result = tune_gemm(get_spec("A100"), Precision.FLOAT16)
        front = result.pareto_front()
        best_perf = max(r.metrics["tops"] for r in result.records)
        best_eff = max(r.metrics["tops_per_joule"] for r in result.records)
        # Ties are broken arbitrarily, so check by value: the front must
        # contain a record achieving each axis optimum.
        assert any(r.metrics["tops"] == best_perf for r in front)
        assert any(r.metrics["tops_per_joule"] == best_eff for r in front)

    def test_paper_observation_fastest_is_efficient(self):
        # "Typically, the most performant combination of parameters is also
        # the most energy efficient solution" (paper §IV-A).
        result = tune_gemm(get_spec("A100"), Precision.FLOAT16)
        best_perf = result.best.metrics
        best_eff = max(r.metrics["tops_per_joule"] for r in result.records)
        assert best_perf["tops_per_joule"] >= 0.9 * best_eff

    def test_custom_strategy(self):
        result = tune_gemm(
            get_spec("A100"),
            Precision.FLOAT16,
            strategy=GreedyILS(budget=60, seed=5),
        )
        assert result.evaluations <= 60

