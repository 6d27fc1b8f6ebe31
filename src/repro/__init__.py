"""Reproduction of "The Tensor-Core Beamformer" (IPDPS 2025, arXiv:2505.03269).

Top-level convenience exports; see the subpackages for the full API:

* :mod:`repro.gpusim` — simulated GPU substrate (7-device catalog);
* :mod:`repro.ccglib` — the complex tensor-core GEMM library;
* :mod:`repro.cudapeak` — tensor-core micro-benchmarks (Table I);
* :mod:`repro.kerneltuner` — auto-tuning framework (Fig 2, Table III);
* :mod:`repro.roofline` — roofline analysis (Fig 3);
* :mod:`repro.tcbf` — the unified Tensor-Core Beamformer library
  (single-device plans, scaling, results);
* :mod:`repro.serve` — the serving tier (batching, placement, multi-device
  splits);
* :mod:`repro.apps.ultrasound` — computational ultrasound imaging (Figs 5-6);
* :mod:`repro.apps.radioastronomy` — LOFAR beamforming (Fig 7);
* :mod:`repro.bench` — the experiment harness regenerating every table/figure.
"""

from repro.ccglib import Gemm, GemmResult, Precision, gemm_once
from repro.gpusim import Device, ExecutionMode, GPU_CATALOG, get_spec
from repro.tcbf import BeamformerPlan, BeamformResult

__version__ = "1.2.0"

__all__ = [
    "Gemm",
    "GemmResult",
    "Precision",
    "gemm_once",
    "Device",
    "ExecutionMode",
    "GPU_CATALOG",
    "get_spec",
    "BeamformerPlan",
    "BeamformResult",
    "__version__",
]
