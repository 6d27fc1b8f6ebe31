"""The metrics the tuner records per configuration."""

from __future__ import annotations

import pytest

from repro.ccglib.tuning import TABLE_III
from repro.gpusim.specs import get_spec
from repro.gpusim.timing import Bound, KernelCost
from repro.kerneltuner.tuner import PAPER_TUNING_PROBLEMS, tune_gemm, tuning_metrics


def _cost() -> KernelCost:
    return KernelCost(
        name="k", time_s=1e-3, useful_ops=2e12, issued_ops=2e12, dram_bytes=1e9,
        smem_bytes=0.0, bound=Bound.COMPUTE, power_w=200.0, energy_j=0.2,
    )


class TestTuningMetrics:
    def test_time(self):
        assert tuning_metrics(_cost())["time_s"] == 1e-3

    def test_performance_in_tops(self):
        assert tuning_metrics(_cost())["tops"] == 2000.0

    def test_power(self):
        metrics = tuning_metrics(_cost())
        assert metrics["power_w"] == 200.0
        assert metrics["energy_j"] == 0.2
        assert metrics["tops_per_joule"] == 10.0

    def test_metric_set_complete(self):
        metrics = tuning_metrics(_cost())
        assert set(metrics) == {"time_s", "tops", "power_w", "energy_j", "tops_per_joule"}


class TestRecordedMetrics:
    @pytest.mark.parametrize("row", TABLE_III, ids=lambda r: f"{r.gpu}-{r.precision.value}")
    def test_records_count_the_paper_ops(self, row):
        # Every record of a tuning run reports the paper's 8*M*N*K useful
        # operations over its time and over its energy, at time x power.
        problem = PAPER_TUNING_PROBLEMS[row.precision]
        ops = 8 * problem.m * problem.n * problem.k * problem.batch
        result = tune_gemm(get_spec(row.gpu), row.precision)
        assert result.records
        for rec in result.records:
            m = rec.metrics
            assert m["tops"] * 1e12 * m["time_s"] == pytest.approx(ops)
            assert m["energy_j"] == pytest.approx(m["power_w"] * m["time_s"])
            assert m["tops_per_joule"] * 1e12 * m["energy_j"] == pytest.approx(ops)
