"""cudapeak reproduction: tensor-core peak micro-benchmarks (paper Table I)."""

from repro.cudapeak.microbench import (
    MicrobenchResult,
    run_microbenchmark,
    run_table1,
)

__all__ = [
    "MicrobenchResult",
    "run_microbenchmark",
    "run_table1",
]
