#!/usr/bin/env python3
"""Auto-tune the GEMM kernel for a device — the paper's §IV-A workflow.

Runs the Kernel-Tuner-style search over the tuning space on a chosen GPU,
recording time, throughput and modelled power and energy per configuration,
prints the performance/energy Pareto front, and compares the tuned
configuration against the shipped defaults and the paper's published
optimum.

Run:  python examples/autotune_device.py [GPU] [float16|int1]
"""

import sys

from repro.ccglib import Precision, model_gemm, published_tuning
from repro.gpusim import get_spec
from repro.kerneltuner import BruteForce, GreedyILS, tune_gemm
from repro.kerneltuner.tuner import PAPER_TUNING_PROBLEMS
from repro.util.formatting import ascii_scatter, render_table

gpu = sys.argv[1] if len(sys.argv) > 1 else "GH200"
precision = Precision(sys.argv[2]) if len(sys.argv) > 2 else Precision.FLOAT16
spec = get_spec(gpu)
problem = PAPER_TUNING_PROBLEMS[precision]
print(f"tuning {precision.value} GEMM on {spec.name} at "
      f"M={problem.m}, N={problem.n}, K={problem.k} (the paper's tuning size)\n")

# Exhaustive search (the model makes this cheap; on real hardware you would
# use GreedyILS with a budget).
result = tune_gemm(spec, precision, strategy=BruteForce())
print(f"evaluated {result.evaluations} configurations "
      f"({result.invalid_configs} invalid: shared memory / registers / AMD buffers)")

# Scatter of the whole space: the Fig 2 panel for this device.
xs = [r.metrics["tops_per_joule"] for r in result.records]
ys = [r.metrics["tops"] for r in result.records]
print(ascii_scatter(xs, ys, width=60, height=14, xlabel="TOPs/J", ylabel="TOPs/s",
                    title=f"{spec.name} {precision.value}: tuning space"))

# Pareto front.
front = sorted(result.pareto_front(), key=lambda r: -r.metrics["tops"])
print(render_table(
    ["config", "TOPs/s", "TOPs/J", "power W"],
    [[str(r.params), round(r.metrics["tops"], 1), round(r.metrics["tops_per_joule"], 2),
      round(r.metrics["power_w"], 0)] for r in front[:8]],
    title="Performance/energy Pareto front (top 8)",
))

# Compare: tuned vs published vs a local search with a small budget.
rows = [["tuned (brute force)", str(result.best_params),
         round(result.best.metrics["tops"], 1)]]
published = published_tuning(spec.name, precision)
if published is not None:
    at_pub = model_gemm(spec, precision, problem, published.params)
    rows.append(["paper Table III", str(published.params), round(at_pub.ops_per_second / 1e12, 1)])
ils = tune_gemm(spec, precision, strategy=GreedyILS(budget=80, seed=0))
rows.append(["greedy ILS (80 evals)", str(ils.best_params), round(ils.best.metrics["tops"], 1)])
print(render_table(["method", "parameters", "TOPs/s"], rows, title="Comparison"))
print("\nthe published configuration sits on the same optimum plateau; "
      "'while a default set of parameters is shipped with ccglib, a "
      "GPU-specific optimization is best' (paper §IV-A)")
