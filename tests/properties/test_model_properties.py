"""Property-based invariants of the performance and energy models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccglib.perfmodel import GemmProblem, model_gemm
from repro.ccglib.precision import Precision, complex_ops
from repro.ccglib.tuning import default_params
from repro.errors import KernelConfigError
from repro.gpusim.specs import GPU_CATALOG, get_spec

GPUS = list(GPU_CATALOG)


@st.composite
def gemm_case(draw, precision=Precision.FLOAT16):
    gpu = draw(st.sampled_from(GPUS))
    if precision is Precision.INT1:
        gpu = draw(st.sampled_from(["AD4000", "A100", "GH200"]))
    batch = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4096))
    n = draw(st.integers(1, 4096))
    k = draw(st.integers(1, 8192))
    return gpu, GemmProblem(batch=batch, m=m, n=n, k=k)


class TestUniversalInvariants:
    @given(gemm_case())
    def test_time_positive_and_energy_above_idle(self, case):
        gpu, problem = case
        spec = get_spec(gpu)
        cost = model_gemm(spec, Precision.FLOAT16, problem, default_params(spec, Precision.FLOAT16))
        assert cost.time_s > 0
        assert cost.energy_j >= spec.power.idle_w * cost.time_s * 0.999
        assert cost.power_w <= spec.tdp_w + 1e-9

    @given(gemm_case())
    def test_useful_ops_conserved(self, case):
        gpu, problem = case
        spec = get_spec(gpu)
        cost = model_gemm(spec, Precision.FLOAT16, problem, default_params(spec, Precision.FLOAT16))
        assert cost.useful_ops == pytest.approx(
            complex_ops(problem.batch, problem.m, problem.n, problem.k)
        )
        assert cost.issued_ops >= cost.useful_ops

    @given(gemm_case())
    def test_never_beats_sustained_peak(self, case):
        gpu, problem = case
        spec = get_spec(gpu)
        cost = model_gemm(spec, Precision.FLOAT16, problem, default_params(spec, Precision.FLOAT16))
        sustained_peak = spec.theoretical_peak_ops("float16") * spec.sustained_clock_fraction
        assert cost.ops_per_second <= sustained_peak * 1.001

    @given(gemm_case(precision=Precision.INT1))
    def test_int1_invariants(self, case):
        gpu, problem = case
        spec = get_spec(gpu)
        cost = model_gemm(spec, Precision.INT1, problem, default_params(spec, Precision.INT1))
        sustained_peak = spec.theoretical_peak_ops("int1") * spec.sustained_clock_fraction
        assert cost.ops_per_second <= sustained_peak * 1.001
        assert cost.time_s > 0

    @given(gemm_case())
    def test_monotone_in_batch(self, case):
        gpu, problem = case
        spec = get_spec(gpu)
        params = default_params(spec, Precision.FLOAT16)
        single = model_gemm(spec, Precision.FLOAT16, problem, params)
        double = model_gemm(
            spec,
            Precision.FLOAT16,
            GemmProblem(problem.batch * 2, problem.m, problem.n, problem.k),
            params,
        )
        assert double.time_s > single.time_s * 0.99

    @given(gemm_case())
    def test_padding_never_helps(self, case):
        # Growing K to the next padded boundary must not increase time.
        gpu, problem = case
        spec = get_spec(gpu)
        params = default_params(spec, Precision.FLOAT16)
        cost = model_gemm(spec, Precision.FLOAT16, problem, params)
        kp = int(cost.detail["padded_k"])
        padded_cost = model_gemm(
            spec, Precision.FLOAT16,
            GemmProblem(problem.batch, problem.m, problem.n, kp), params,
        )
        assert padded_cost.time_s == pytest.approx(cost.time_s, rel=1e-6)


class TestTunerProperties:
    @given(st.sampled_from(GPUS), st.integers(0, 10))
    @settings(max_examples=10)
    def test_tuned_at_least_default(self, gpu, seed):
        from repro.kerneltuner.strategies import GreedyILS
        from repro.kerneltuner.tuner import tune_gemm

        spec = get_spec(gpu)
        problem = GemmProblem(1, 2048, 2048, 2048)
        result = tune_gemm(
            spec, Precision.FLOAT16, problem=problem,
            strategy=GreedyILS(budget=40, seed=seed),
        )
        try:
            base = model_gemm(spec, Precision.FLOAT16, problem,
                              default_params(spec, Precision.FLOAT16))
            # a 40-evaluation local search may miss the default config; allow 25% slack
            assert result.best.metrics["tops"] >= 0.75 * base.ops_per_second / 1e12
        except KernelConfigError:  # pragma: no cover
            pass
