"""Search strategies for the auto-tuner.

Kernel Tuner ships multiple optimization strategies; "to find the optimum of
the tunable parameters, we need to explore a vast search space, and this
process has to be repeated for each GPU architecture" (paper §IV-A). We
implement two representative strategies over an abstract evaluate
function (higher objective = better):

* :class:`BruteForce` — exhaustive; the reference the other is tested
  against (the GEMM space is small enough: a few hundred valid points);
* :class:`GreedyILS` — greedy iterated local search: hill-climb over
  Hamming-1 neighbourhoods with random restarts, Kernel Tuner's default
  style of local optimizer.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import TunerError
from repro.kerneltuner.space import Config, SearchSpace
from repro.util.rng import make_rng

#: evaluate(config) -> objective value, or None when the config is invalid
#: (compile failure / restriction violation discovered at build time).
EvaluateFn = Callable[[Config], "float | None"]


@dataclass
class StrategyResult:
    """Outcome of one strategy run."""

    best_config: Config
    best_objective: float
    evaluations: int
    #: every (config, objective) pair that was evaluated successfully.
    history: list[tuple[Config, float]] = field(default_factory=list)


class Strategy(abc.ABC):
    """A search strategy over a :class:`SearchSpace`."""

    @abc.abstractmethod
    def run(self, space: SearchSpace, evaluate: EvaluateFn) -> StrategyResult:
        """Search the space, maximizing the objective."""

    @staticmethod
    def _finalize(history: list[tuple[Config, float]], evaluations: int) -> StrategyResult:
        if not history:
            raise TunerError("no valid configuration found in the search space")
        best_config, best_obj = max(history, key=lambda item: item[1])
        return StrategyResult(
            best_config=best_config,
            best_objective=best_obj,
            evaluations=evaluations,
            history=history,
        )


class BruteForce(Strategy):
    """Evaluate every valid configuration."""

    def run(self, space: SearchSpace, evaluate: EvaluateFn) -> StrategyResult:
        history: list[tuple[Config, float]] = []
        evaluations = 0
        for config in space:
            evaluations += 1
            obj = evaluate(config)
            if obj is not None:
                history.append((config, obj))
        return self._finalize(history, evaluations)


@dataclass
class GreedyILS(Strategy):
    """Greedy iterated local search with random restarts.

    From a random valid start, repeatedly move to the best improving
    Hamming-1 neighbour; on a local optimum, restart from a fresh random
    point, until the evaluation budget is exhausted.
    """

    budget: int = 150
    seed: int = 0

    def run(self, space: SearchSpace, evaluate: EvaluateFn) -> StrategyResult:
        rng = make_rng(self.seed)
        valid = space.enumerate_valid()
        if not valid:
            raise TunerError("search space has no valid configurations")
        history: list[tuple[Config, float]] = []
        seen: dict[str, float | None] = {}
        evaluations = 0

        def eval_cached(config: Config) -> float | None:
            nonlocal evaluations
            key = repr(sorted(config.items()))
            if key in seen:
                return seen[key]
            evaluations += 1
            obj = evaluate(config)
            seen[key] = obj
            if obj is not None:
                history.append((config, obj))
            return obj

        while evaluations < self.budget:
            current = valid[rng.integers(len(valid))]
            current_obj = eval_cached(current)
            if current_obj is None:
                continue
            improved = True
            while improved and evaluations < self.budget:
                improved = False
                best_nb, best_nb_obj = None, current_obj
                for nb in space.neighbours(current):
                    if evaluations >= self.budget:
                        break
                    obj = eval_cached(nb)
                    if obj is not None and obj > best_nb_obj:
                        best_nb, best_nb_obj = nb, obj
                if best_nb is not None:
                    current, current_obj = best_nb, best_nb_obj
                    improved = True
        return self._finalize(history, evaluations)
