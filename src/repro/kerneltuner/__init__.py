"""Kernel Tuner reproduction: auto-tuning of the ccglib GPU kernels.

"To facilitate this, we use Kernel Tuner, a Python-based auto-tuning
framework that can automatically optimize kernels written in both CUDA and
HIP" (paper §IV-A). The reproduction keeps Kernel Tuner's structure:
search spaces with restrictions, pluggable strategies, and observers for
time, performance and modelled power.
"""

from repro.kerneltuner.space import (
    SearchSpace,
    gemm_search_space,
    config_to_params,
    params_to_config,
)
from repro.kerneltuner.strategies import BruteForce, GreedyILS, StrategyResult
from repro.kerneltuner.observers import (
    Observer,
    ObserverChain,
    TimeObserver,
    PerformanceObserver,
    PowerObserver,
    default_observers,
)
from repro.kerneltuner.tuner import (
    tune_gemm,
    TuningResult,
    TuningRecord,
    PAPER_TUNING_PROBLEMS,
)

__all__ = [
    "SearchSpace",
    "gemm_search_space",
    "config_to_params",
    "params_to_config",
    "BruteForce",
    "GreedyILS",
    "StrategyResult",
    "Observer",
    "ObserverChain",
    "TimeObserver",
    "PerformanceObserver",
    "PowerObserver",
    "default_observers",
    "tune_gemm",
    "TuningResult",
    "TuningRecord",
    "PAPER_TUNING_PROBLEMS",
]
