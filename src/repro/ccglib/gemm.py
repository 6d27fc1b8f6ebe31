"""Public complex-GEMM API of the ccglib reproduction.

Usage mirrors the real library: the user creates a :class:`Gemm` plan for a
device, telling it only the shapes and precision; tensor-core details
(fragment layouts, bit ops, tuning parameters, padding) are chosen
internally ("The use of the tensor cores ... is hidden from the user. The
user only has to provide the input and output matrices and tell ccglib what
shapes and types the matrices have", paper §III). Plans are specialized at
creation time for the device and problem shape, the moral equivalent of
ccglib's runtime kernel compilation.

Plans optionally bind an :class:`~repro.backend.ArrayBackend`; the default
is the NumPy reference and is bit-identical to the historical per-item
implementation. The functional paths are fully batched — one fused
pack/transpose/GEMM pipeline over the whole batch instead of a Python loop
per item — which is what lets a CuPy or JAX backend run them efficiently.

>>> from repro.gpusim import Device
>>> from repro.ccglib import Gemm, Precision
>>> import numpy as np
>>> rng = np.random.default_rng(0)
>>> a = (rng.normal(size=(1, 8, 16)) + 1j * rng.normal(size=(1, 8, 16))).astype(np.complex64)
>>> b = (rng.normal(size=(1, 16, 4)) + 1j * rng.normal(size=(1, 16, 4))).astype(np.complex64)
>>> gemm = Gemm(Device("A100"), Precision.FLOAT16, batch=1, m=8, n=4, k=16)
>>> result = gemm.run(a, b)
>>> np.allclose(result.output, a @ b, atol=0.2)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.bit_gemm import complex_bit_gemm
from repro.ccglib.complex_mma import complex_mma_f16_batched, complex_mma_tf32_batched
from repro.ccglib.layouts import (
    IMAG,
    REAL,
    ComplexLayout,
    ensure_batched,
    to_planar,
    validate_planar_pair,
)
from repro.ccglib.packing import pack_sign_planar
from repro.ccglib.perfmodel import GemmProblem, model_gemm, resolve_bit_op, validate_config
from repro.ccglib.precision import Precision, require_supported, traits
from repro.ccglib.transpose import planar_to_kmajor
from repro.ccglib.tuning import TuneParams, select_params
from repro.errors import ShapeError
from repro.gpusim.arch import BitOp, FragmentShape
from repro.gpusim.device import Device
from repro.gpusim.timing import KernelCost
from repro.util.validation import require_positive_int, round_up


@dataclass
class GemmResult:
    """Outcome of one planned GEMM execution.

    ``output`` is a complex64 array (batch, M, N) in functional mode (for
    int1 precision the values are exact small integers stored as complex)
    and ``None`` in dry-run mode; on a non-NumPy backend it stays a device
    array of that backend (convert with ``backend.to_numpy``). ``cost`` is
    always populated.
    """

    output: Any | None
    cost: KernelCost


class Gemm:
    """A complex matrix-multiply plan bound to a device.

    Parameters
    ----------
    device:
        Simulated GPU to run on.
    precision:
        :class:`~repro.ccglib.precision.Precision` of the matrix values.
    batch, m, n, k:
        Problem shape: ``batch`` independent products of (M,K) x (K,N)
        matrices ("It is also possible to execute several matrix-matrix
        multiplications at once through a batch size option", §III).
    params:
        Optional tuning override; defaults to the shipped (Table III)
        parameters adapted to the problem shape.
    bit_op:
        1-bit multiply op override; by default XOR, or AND on Hopper-class
        devices where XOR is software-emulated (§III-E).
    backend:
        Array-execution backend for the functional path (name, instance, or
        ``None`` for the NumPy reference).
    """

    def __init__(
        self,
        device: Device,
        precision: Precision,
        batch: int,
        m: int,
        n: int,
        k: int,
        *,
        params: TuneParams | None = None,
        bit_op: BitOp | None = None,
        fragment: FragmentShape | None = None,
        experimental_ok: bool = False,
        backend: ArrayBackend | str | None = None,
    ):
        require_positive_int(batch, "batch")
        require_positive_int(m, "m")
        require_positive_int(n, "n")
        require_positive_int(k, "k")
        require_supported(device.spec, precision, experimental_ok=experimental_ok)
        self.device = device
        self.precision = precision
        self.backend = get_backend(backend)
        self.problem = GemmProblem(batch=batch, m=m, n=n, k=k)
        self.params = select_params(device.spec, precision, m, n, params)
        self.fragment = fragment or traits(precision).default_fragment
        self.bit_op = resolve_bit_op(device.spec, precision, bit_op)
        # Fail fast on invalid configurations at plan time, like a runtime
        # compilation failure would.
        validate_config(device.spec, precision, self.params, self.fragment)

    # -- introspection -------------------------------------------------------

    @property
    def padded_k(self) -> int:
        """K after padding to the fragment granularity."""
        return round_up(self.problem.k, self.fragment.k)

    def predict_cost(self) -> KernelCost:
        """Cost-model prediction without executing anything."""
        return model_gemm(
            self.device.spec,
            self.precision,
            self.problem,
            self.params,
            bit_op=self.bit_op,
            fragment=self.fragment,
        )

    # -- execution -------------------------------------------------------------

    def run(self, a: Any | None = None, b: Any | None = None) -> GemmResult:
        """Execute the plan.

        Functional devices require interleaved complex operands ``a`` of
        shape (batch, M, K) (or (M, K) for batch=1) and ``b`` of shape
        (batch, K, N); dry-run devices ignore the operands and return the
        predicted cost only. The launch is recorded on the device timeline
        either way.
        """
        cost = self.predict_cost()
        self.device.record_kernel(cost)
        if not self.device.is_functional:
            return GemmResult(output=None, cost=cost)
        if a is None or b is None:
            raise ShapeError("functional execution requires both operands")
        a_planar, b_planar = self._prepare_operands(a, b)
        if self.precision is Precision.INT1:
            output = self._run_int1(a_planar, b_planar)
        else:
            output = self._run_float(a_planar, b_planar)
        return GemmResult(output=output, cost=cost)

    # -- internals ----------------------------------------------------------

    def _prepare_operands(self, a: Any, b: Any) -> tuple[Any, Any]:
        be = self.backend
        a = be.asarray(a)
        b = be.asarray(b)
        if not _is_complex_dtype(a) or not _is_complex_dtype(b):
            raise ShapeError("operands must be complex arrays (interleaved layout)")
        a, _ = ensure_batched(a, 3, backend=be)
        b, _ = ensure_batched(b, 3, backend=be)
        a_planar = to_planar(a, backend=be)
        b_planar = to_planar(b, backend=be)
        batch, m, n, k = validate_planar_pair(a_planar, b_planar)
        expected = (self.problem.batch, self.problem.m, self.problem.n, self.problem.k)
        if (batch, m, n, k) != expected:
            raise ShapeError(
                f"operand shapes (batch={batch}, M={m}, N={n}, K={k}) do not match "
                f"the plan (batch={expected[0]}, M={expected[1]}, N={expected[2]}, "
                f"K={expected[3]})"
            )
        return a_planar, b_planar

    def _run_float(self, a_planar: Any, b_planar: Any) -> Any:
        """float16 (and experimental tf32) functional path.

        One batched 5-step complex MMA over all batch items, each operand
        quantized once. On NumPy the MMA accumulates steps 4/5 straight
        into interleaved complex64 storage, so the complex64 view taken
        here is free (another planar layout costs one interleaving pass).
        """
        be = self.backend
        mma = complex_mma_tf32_batched if self.precision is Precision.TF32 else complex_mma_f16_batched
        planar = mma(a_planar, b_planar, backend=be)
        if be.xp is np:
            interleaved = np.ascontiguousarray(np.moveaxis(planar, -3, -1))
            return interleaved.view(np.complex64)[..., 0]
        out = planar[..., REAL, :, :] + 1j * planar[..., IMAG, :, :]
        return be.astype(out, be.xp.complex64)

    def _run_int1(self, a_planar: Any, b_planar: Any) -> Any:
        """1-bit functional path: sign-quantize, pack, binary GEMM (Eq. 5/6).

        Exact integer arithmetic throughout, so batching the packed GEMM over
        all items is trivially bit-identical to the historical loop.
        """
        be = self.backend
        xp = be.xp
        k_pad_to = self.padded_k
        a_words = pack_sign_planar(a_planar, k_pad_to=k_pad_to, backend=be)
        b_kmajor = planar_to_kmajor(b_planar, backend=be)
        b_words = pack_sign_planar(b_kmajor, k_pad_to=k_pad_to, backend=be)
        planar = complex_bit_gemm(
            a_words,
            b_words,
            k_valid=self.problem.k,
            bit_op=self.bit_op or BitOp.XOR,
            backend=be,
        )
        out = planar[..., REAL, :, :].astype(xp.float32) + 1j * planar[..., IMAG, :, :].astype(
            xp.float32
        )
        return be.astype(out, xp.complex64)


def _is_complex_dtype(array: Any) -> bool:
    """Complex-dtype test that never copies the array off its device."""
    return np.issubdtype(np.dtype(array.dtype), np.complexfloating)


def gemm_once(
    device: Device,
    precision: Precision,
    a: Any,
    b: Any,
    *,
    backend: ArrayBackend | str | None = None,
    **kwargs,
) -> GemmResult:
    """One-shot convenience wrapper: plan from operand shapes and run."""
    be = get_backend(backend)
    a_arr, _ = ensure_batched(be.asarray(a), 3, backend=be)
    b_arr, _ = ensure_batched(be.asarray(b), 3, backend=be)
    batch, m, k = a_arr.shape
    n = b_arr.shape[2]
    plan = Gemm(device, precision, batch=batch, m=m, n=n, k=k, backend=be, **kwargs)
    return plan.run(a_arr, b_arr)
