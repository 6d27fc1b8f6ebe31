"""Every metric the benchmark emits: name -> (unit, which direction is better).

The gated metrics and their bounds are declared once, in ``BENCHMARK.json``
at the repository root; this module reads them from there and adds the
layer groupings the measuring passes need.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

#: reported by an untraced pass (``--trace 0``) of every workload.
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

#: reported by a traced pass (``--trace 1``) of every workload; a layer a
#: workload never reaches reports zero calls and zero time.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}

#: measured by the untraced pass and stored with their sample counts in
#: ``perf-results.json``, but not gated and not in the result line:
#: * ``block_ms_p90``: the p90 follows the slow blocks that a change of
#:   host load between a slowdown reading and its block leaves, and its
#:   run-to-run spread is wider than the p50's;
#: * ``req_per_s``: requests per block over ``block_ms_p50``; the request
#:   count of a block is fixed, so it is an exact reciprocal of the p50;
#: * ``wall_ms_p50`` and ``host_slowdown``: the median wall time of a block
#:   and the median slowdown it was divided by (see :mod:`hostspeed`).
REPORTED = {
    "block_ms_p90": ("ms", "lower"),
    "req_per_s": ("1/s", "higher"),
    "wall_ms_p50": ("ms", "lower"),
    "host_slowdown": ("ratio", "lower"),
}

#: layers of the functional path; ``apps`` is the root (its self time is
#: the unaccounted remainder: adapter checks and glue).
FUNCTIONAL_LAYERS = (
    "apps",
    "tcbf.plan",
    "tcbf.scaling",
    "ccglib.gemm",
    "ccglib.perfmodel",
    "ccglib.layouts",
    "ccglib.transpose",
    "ccglib.packing.weights",
    "ccglib.packing.stream",
    "ccglib.complex_mma",
    "ccglib.bit_gemm",
)
#: functional layers with computed bytes moved (GB/s) or useful ops (GOP/s).
BANDWIDTH_LAYERS = (
    "tcbf.scaling",
    "ccglib.layouts",
    "ccglib.transpose",
    "ccglib.packing.weights",
    "ccglib.packing.stream",
)
COMPUTE_LAYERS = ("ccglib.complex_mma", "ccglib.bit_gemm")
#: functional layers the tcbf/ccglib cost model prices per block.
MODEL_LAYERS = (
    "ccglib.transpose",
    "ccglib.packing.weights",
    "ccglib.packing.stream",
    "ccglib.complex_mma",
    "ccglib.bit_gemm",
)

#: layers of the simulator; ``serve.service`` is the root (the event loop).
SERVE_LAYERS = (
    "serve.service",
    "serve.dispatch",
    "serve.placement",
    "serve.batching",
    "serve.scheduler",
    "serve.cache",
    "serve.slo",
    "serve.autoscale",
    "serve.obs",
)

UNITS = {name: unit for name, (unit, _) in {**END_TO_END, **REPORTED, **PER_LAYER}.items()}


def is_model(name: str) -> bool:
    """Cost-model or simulated numbers, kept apart from measured ones."""
    return (
        name.startswith(("model.", "serve.count.", "serve.ratio."))
        or name.endswith(".model_ms")
    )
