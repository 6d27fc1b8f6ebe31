"""ccglib reproduction: complex GEMM on (simulated) tensor cores.

The paper's primary contribution — a domain-independent complex
matrix-matrix multiplication library that hides tensor-core complexity —
lives here:

* :class:`~repro.ccglib.gemm.Gemm` — the public plan/run API;
* :mod:`~repro.ccglib.complex_mma` — the 4-MMA + register-negation complex
  decomposition (paper §III-B);
* :mod:`~repro.ccglib.bit_gemm` — 1-bit XOR/AND popcount arithmetic with
  padding correction (paper §III-D/E, Eqs. 4-6);
* :mod:`~repro.ccglib.packing` / :mod:`~repro.ccglib.transpose` — the
  memory-bound helper kernels (paper §III);
* :mod:`~repro.ccglib.perfmodel` — the analytical kernel timing model;
* :mod:`~repro.ccglib.tuning` — tuning parameters and Table III defaults;
* :mod:`~repro.ccglib.pipeline` — the multi-stage async-copy overlap model;
* :mod:`~repro.ccglib.benchmark` — built-in size-sweep benchmark tools.
"""

from repro.ccglib.precision import Precision, traits, tensor_peak_ops, complex_ops
from repro.ccglib.gemm import Gemm, GemmResult, PreparedOperand, gemm_once
from repro.ccglib.perfmodel import (
    GemmProblem,
    model_gemm,
    validate_config,
    theoretical_min_bytes,
)
from repro.ccglib.tuning import (
    TuneParams,
    PublishedTuning,
    TABLE_III,
    published_tuning,
    default_params,
    select_params,
)
from repro.ccglib.layouts import to_planar, to_interleaved, REAL, IMAG
from repro.ccglib.complex_mma import complex_mma_f16, reference_complex_gemm
from repro.ccglib.bit_gemm import complex_bit_gemm, bit_gemm_reference, real_bit_dot
from repro.ccglib.packing import pack_sign_planar, unpack_sign_planar
from repro.ccglib.transpose import planar_to_kmajor

__all__ = [
    "Precision",
    "traits",
    "tensor_peak_ops",
    "complex_ops",
    "Gemm",
    "GemmResult",
    "PreparedOperand",
    "gemm_once",
    "GemmProblem",
    "model_gemm",
    "validate_config",
    "theoretical_min_bytes",
    "TuneParams",
    "PublishedTuning",
    "TABLE_III",
    "published_tuning",
    "default_params",
    "select_params",
    "to_planar",
    "to_interleaved",
    "REAL",
    "IMAG",
    "complex_mma_f16",
    "reference_complex_gemm",
    "complex_bit_gemm",
    "bit_gemm_reference",
    "real_bit_dot",
    "pack_sign_planar",
    "unpack_sign_planar",
    "planar_to_kmajor",
]
