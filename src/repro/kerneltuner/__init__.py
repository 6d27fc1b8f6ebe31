"""Kernel Tuner reproduction: auto-tuning of the ccglib GPU kernels.

"To facilitate this, we use Kernel Tuner, a Python-based auto-tuning
framework that can automatically optimize kernels written in both CUDA and
HIP" (paper §IV-A). The reproduction keeps Kernel Tuner's structure:
search spaces with restrictions and pluggable strategies; every
configuration records its time, performance, modelled power and energy
(:func:`~repro.kerneltuner.tuner.tuning_metrics`).
"""

from repro.kerneltuner.space import (
    SearchSpace,
    gemm_search_space,
    config_to_params,
)
from repro.kerneltuner.strategies import BruteForce, GreedyILS, StrategyResult
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
    "BruteForce",
    "GreedyILS",
    "StrategyResult",
    "tune_gemm",
    "TuningResult",
    "TuningRecord",
    "PAPER_TUNING_PROBLEMS",
]
