"""Tuning strategies: brute force reference and local search."""

from __future__ import annotations

import pytest

from repro.ccglib.precision import Precision
from repro.errors import TunerError
from repro.gpusim.specs import get_spec
from repro.kerneltuner.space import SearchSpace, gemm_search_space
from repro.kerneltuner.strategies import BruteForce, GreedyILS


def quadratic_objective(config):
    # Smooth objective with optimum at a=8, b=4.
    return -((config["a"] - 8) ** 2) - (config["b"] - 4) ** 2


SPACE = SearchSpace(parameters={"a": list(range(0, 17)), "b": list(range(0, 9))})


class TestBruteForce:
    def test_finds_global_optimum(self):
        result = BruteForce().run(SPACE, quadratic_objective)
        assert result.best_config == {"a": 8, "b": 4}
        assert result.best_objective == 0
        assert result.evaluations == 17 * 9

    def test_invalid_points_skipped(self):
        def evaluate(config):
            return None if config["a"] % 2 else quadratic_objective(config)

        result = BruteForce().run(SPACE, evaluate)
        assert result.best_config["a"] % 2 == 0
        assert len(result.history) == 9 * 9  # nine even 'a' values x nine 'b'

    def test_all_invalid_raises(self):
        with pytest.raises(TunerError):
            BruteForce().run(SPACE, lambda c: None)


class TestGreedyILS:
    def test_reaches_optimum_on_smooth_landscape(self):
        result = GreedyILS(budget=120, seed=0).run(SPACE, quadratic_objective)
        assert result.best_objective == 0

    def test_budget_bound(self):
        result = GreedyILS(budget=30, seed=0).run(SPACE, quadratic_objective)
        assert result.evaluations <= 30

    def test_deterministic(self):
        # The apps and benches tune with a fixed seed; the same seed must
        # walk the same configurations.
        r1 = GreedyILS(budget=25, seed=4).run(SPACE, quadratic_objective)
        r2 = GreedyILS(budget=25, seed=4).run(SPACE, quadratic_objective)
        assert r1.history == r2.history


class TestOnRealGemmSpace:
    """Strategies against the actual kernel model landscape."""

    def _evaluate_factory(self):
        from repro.ccglib.perfmodel import GemmProblem, model_gemm
        from repro.errors import KernelConfigError
        from repro.kerneltuner.space import config_to_params

        spec = get_spec("A100")
        problem = GemmProblem(1, 4096, 4096, 4096)

        def evaluate(config):
            try:
                cost = model_gemm(spec, Precision.FLOAT16, problem, config_to_params(config))
            except KernelConfigError:
                return None
            return cost.ops_per_second

        return evaluate

    def test_ils_close_to_brute_force(self):
        space = gemm_search_space(get_spec("A100"), Precision.FLOAT16)
        evaluate = self._evaluate_factory()
        best = BruteForce().run(space, evaluate).best_objective
        ils = GreedyILS(budget=150, seed=2).run(space, evaluate).best_objective
        assert ils >= 0.95 * best
