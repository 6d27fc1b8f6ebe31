"""Input/output precisions supported by the ccglib GEMM kernels.

The paper's library supports 16-bit float and 1-bit integer input
(§III), with float32 / int32 accumulation respectively (Table I column 1).
TensorFloat-32 is mentioned as an experimental feature (§VI); we expose it
behind an ``experimental`` flag with throughput derived from the float16
peak (half rate on NVIDIA tensor cores, supported on AMD from CDNA3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import UnsupportedPrecisionError
from repro.gpusim.arch import (
    Architecture,
    FRAG_FLOAT16_16x16x16,
    FRAG_INT1_8x8x128,
    FRAG_INT1_16x8x256,
    FragmentShape,
)
from repro.gpusim.specs import GPUSpec


class Precision(enum.Enum):
    """Matrix-value precision of the GEMM inputs."""

    FLOAT16 = "float16"
    INT1 = "int1"
    TF32 = "tf32"  # experimental (paper §VI)

    @property
    def is_experimental(self) -> bool:
        return self is Precision.TF32


@dataclass(frozen=True)
class PrecisionTraits:
    """Static properties of a precision as the kernels see it."""

    precision: Precision
    #: bytes per real-valued input element (0.125 for packed 1-bit).
    input_bytes: float
    #: NumPy dtype of input storage (packed words for int1).
    input_dtype: np.dtype
    #: NumPy dtype of the accumulator / output.
    output_dtype: np.dtype
    #: bytes per real-valued output element.
    output_bytes: int
    #: fragment layouts from fastest to slowest preference.
    fragments: tuple[FragmentShape, ...]
    #: K-granularity of one shared-memory pipeline stage.
    stage_k: int

    @property
    def default_fragment(self) -> FragmentShape:
        return self.fragments[0]


_TRAITS: dict[Precision, PrecisionTraits] = {
    Precision.FLOAT16: PrecisionTraits(
        precision=Precision.FLOAT16,
        input_bytes=2.0,
        input_dtype=np.dtype(np.float16),
        output_dtype=np.dtype(np.float32),
        output_bytes=4,
        fragments=(FRAG_FLOAT16_16x16x16,),
        stage_k=FRAG_FLOAT16_16x16x16.k,
    ),
    Precision.INT1: PrecisionTraits(
        precision=Precision.INT1,
        input_bytes=1.0 / 8.0,
        input_dtype=np.dtype(np.uint32),
        output_dtype=np.dtype(np.int32),
        output_bytes=4,
        # 16x8x256 is never slower than 8x8x128 (paper §III-A: "there seems
        # to be no reason to use the small layout"), so it is the default.
        fragments=(FRAG_INT1_16x8x256, FRAG_INT1_8x8x128),
        stage_k=FRAG_INT1_16x8x256.k,
    ),
    Precision.TF32: PrecisionTraits(
        precision=Precision.TF32,
        input_bytes=4.0,
        input_dtype=np.dtype(np.float32),
        output_dtype=np.dtype(np.float32),
        output_bytes=4,
        fragments=(FragmentShape(16, 16, 8),),
        stage_k=8,
    ),
}


def traits(precision: Precision) -> PrecisionTraits:
    """Look up the static traits of a precision."""
    return _TRAITS[precision]


@dataclass(frozen=True)
class ParityTolerance:
    """Allowed deviation from the NumPy reference for one precision.

    Different array backends may fuse, reorder, or widen the float
    arithmetic differently (e.g. JAX's XLA emits FMA contractions; CuPy
    dispatches to cuBLAS), so cross-backend comparisons use per-precision
    relative/absolute tolerances instead of bit equality. int1 is exact
    integer arithmetic — every conformant backend must match it bit-for-bit.
    """

    rtol: float
    atol: float


#: Cross-backend parity tolerances per precision, used by
#: :mod:`repro.backend.validate` and the parity test-suite.
PARITY_TOLERANCES: dict[Precision, ParityTolerance] = {
    # float16 multiplicands, float32 accumulation: one reassociated sum over
    # K can differ by a few ULP per term.
    Precision.FLOAT16: ParityTolerance(rtol=1e-3, atol=1e-3),
    # 10-bit mantissa inputs; accumulation in float32.
    Precision.TF32: ParityTolerance(rtol=1e-3, atol=1e-3),
    # Exact ±1 integer arithmetic: no deviation is ever legitimate.
    Precision.INT1: ParityTolerance(rtol=0.0, atol=0.0),
}


def parity_tolerance(precision: Precision) -> ParityTolerance:
    """Cross-backend comparison tolerance for a precision."""
    return PARITY_TOLERANCES[precision]


def tensor_peak_ops(spec: GPUSpec, precision: Precision) -> float:
    """Theoretical tensor peak for a precision on a device, ops/s.

    float16 and int1 come straight from the calibrated catalog (paper
    Table I). TF32 is experimental: NVIDIA runs it at half the float16
    rate; AMD supports it from CDNA3 on (paper §VI) at half rate as well.
    """
    if precision is Precision.FLOAT16:
        return spec.theoretical_peak_ops("float16")
    if precision is Precision.INT1:
        return spec.theoretical_peak_ops("int1")
    if precision is Precision.TF32:
        if spec.arch.vendor.value == "nvidia" or spec.arch is Architecture.CDNA3:
            return spec.theoretical_peak_ops("float16") / 2.0
        raise UnsupportedPrecisionError(f"{spec.name}: tensorfloat32 requires NVIDIA or AMD CDNA3+")
    raise UnsupportedPrecisionError(str(precision))


def require_supported(spec: GPUSpec, precision: Precision, experimental_ok: bool = False) -> None:
    """Validate that a device supports a precision.

    Raises :class:`UnsupportedPrecisionError` for int1 on AMD (paper §II)
    and for experimental precisions unless explicitly enabled.
    """
    if precision.is_experimental and not experimental_ok:
        raise UnsupportedPrecisionError(
            f"{precision.value} is experimental; pass experimental_ok=True to enable"
        )
    if precision is Precision.INT1:
        spec.caps.require_precision("int1")
    elif precision is Precision.FLOAT16:
        spec.caps.require_precision("float16")
    elif precision is Precision.TF32:
        tensor_peak_ops(spec, precision)  # raises if unsupported


def complex_ops(batch: int, m: int, n: int, k: int) -> float:
    """Useful operations of a batched complex GEMM: ``8 * M * N * K`` per
    batch item (paper §IV-A: four real FMAs per complex multiply, two ops
    per FMA)."""
    return 8.0 * batch * m * n * k
