"""Auto-tuner orchestration: tune ccglib GEMM kernels on simulated devices.

Mirrors the paper's tuning setup (§IV-A): the float16 kernel is tuned at
M=N=K=8192 and the 1-bit kernel at M=32768, N=8192, K=524288; each
configuration is benchmarked for run time (Kernel Tuner) and GPU energy
(PMT in the paper, the power model here), and the winner by performance is
reported alongside its energy efficiency (Fig 2 scatter, Table III rows);
:meth:`TuningResult.pareto_front` shows the trade-off between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ccglib.perfmodel import GemmProblem, model_gemm
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import KernelConfigError, UnsupportedPrecisionError
from repro.gpusim.specs import GPUSpec
from repro.gpusim.timing import KernelCost
from repro.kerneltuner.space import Config, config_to_params, gemm_search_space
from repro.kerneltuner.strategies import BruteForce, Strategy
from repro.util.units import tera

#: tuning problems used by the paper as "a generic use case" (§IV-A).
PAPER_TUNING_PROBLEMS: dict[Precision, GemmProblem] = {
    Precision.FLOAT16: GemmProblem(batch=1, m=8192, n=8192, k=8192),
    Precision.INT1: GemmProblem(batch=1, m=32768, n=8192, k=524288),
}


def tuning_metrics(cost: KernelCost) -> dict[str, float]:
    """Time, TOPs/s, power, energy and TOPs/J of one kernel execution.

    Throughput counts the paper's ``8 * M * N * K`` useful operations and
    power is the modelled :class:`~repro.gpusim.power.PowerModel` average
    (PMT in the paper, §IV-A).
    """
    return {
        "time_s": cost.time_s,
        "tops": cost.ops_per_second / tera,
        "power_w": cost.power_w,
        "energy_j": cost.energy_j,
        "tops_per_joule": cost.ops_per_joule / tera,
    }


@dataclass(frozen=True)
class TuningRecord:
    """One evaluated configuration with its metrics."""

    params: TuneParams
    metrics: dict[str, float]


@dataclass
class TuningResult:
    """Outcome of one tuning run (the data behind one Fig 2 panel)."""

    gpu: str
    precision: Precision
    problem: GemmProblem
    best: TuningRecord
    records: list[TuningRecord] = field(default_factory=list)
    evaluations: int = 0
    invalid_configs: int = 0

    @property
    def best_params(self) -> TuneParams:
        return self.best.params

    def pareto_front(self) -> list[TuningRecord]:
        """Non-dominated records in the (tops, tops_per_joule) plane.

        The paper observes that "typically, the most performant combination
        of parameters is also the most energy efficient solution" — i.e.
        the front is short; tests assert the best-performance point is on it.
        """
        front: list[TuningRecord] = []
        for rec in self.records:
            dominated = any(
                other.metrics["tops"] >= rec.metrics["tops"]
                and other.metrics["tops_per_joule"] >= rec.metrics["tops_per_joule"]
                and other is not rec
                and (
                    other.metrics["tops"] > rec.metrics["tops"]
                    or other.metrics["tops_per_joule"] > rec.metrics["tops_per_joule"]
                )
                for other in self.records
            )
            if not dominated:
                front.append(rec)
        return front


def tune_gemm(
    spec: GPUSpec,
    precision: Precision,
    problem: GemmProblem | None = None,
    strategy: Strategy | None = None,
) -> TuningResult:
    """Auto-tune the GEMM kernel for one device/precision, by throughput.

    Every configuration's time, throughput, power and energy are kept in
    :attr:`TuningResult.records`. Invalid configurations (shared memory,
    registers, AMD buffer restriction...) surface as
    :class:`KernelConfigError` during evaluation and are pruned, exactly how
    compile failures behave under Kernel Tuner.
    """
    if precision is Precision.INT1 and not spec.caps.supports_precision("int1"):
        raise UnsupportedPrecisionError(f"{spec.name} does not support int1")
    problem = problem or PAPER_TUNING_PROBLEMS[precision]
    strategy = strategy or BruteForce()

    records: list[TuningRecord] = []
    invalid = 0

    def evaluate(config: Config) -> float | None:
        nonlocal invalid
        params = config_to_params(config)
        try:
            cost: KernelCost = model_gemm(spec, precision, problem, params)
        except KernelConfigError:
            invalid += 1
            return None
        metrics = tuning_metrics(cost)
        records.append(TuningRecord(params, metrics))
        return metrics["tops"]

    outcome = strategy.run(gemm_search_space(spec, precision), evaluate)
    best_params = config_to_params(outcome.best_config)
    best_record = next(r for r in records if r.params == best_params)
    return TuningResult(
        gpu=spec.name,
        precision=precision,
        problem=problem,
        best=best_record,
        records=records,
        evaluations=outcome.evaluations,
        invalid_configs=invalid,
    )
