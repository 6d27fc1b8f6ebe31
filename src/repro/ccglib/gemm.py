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

A weight (A) operand that serves many calls is prepared once with
:meth:`Gemm.prepare_a` — sign packing for int1, rounding to the input grid
for float16/tf32 — and passed to :meth:`Gemm.run` in place of the
interleaved array; a raw A goes through the same work on every call.

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

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.bit_gemm import complex_bit_gemm
from repro.ccglib.complex_mma import (
    complex_mma_f16_batched,
    complex_mma_tf32_batched,
    round_operand,
)
from repro.ccglib.layouts import IMAG, REAL, ensure_batched, to_planar
from repro.ccglib.packing import pack_sign_planar
from repro.ccglib.perfmodel import GemmProblem, model_gemm, resolve_bit_op, validate_config
from repro.ccglib.precision import Precision, require_supported, traits
from repro.ccglib.transpose import planar_to_kmajor
from repro.ccglib.tuning import TuneParams, select_params
from repro.errors import ShapeError
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


@dataclass(frozen=True, eq=False)
class PreparedOperand:
    """The A (weight) operand of a :class:`Gemm` plan, prepared once.

    Built by :meth:`Gemm.prepare_a`. ``data`` is what :meth:`Gemm.run`
    would otherwise derive from the interleaved A on every call: for int1
    the sign-packed words (batch, 2, M, padded_k / 32); for float16/tf32 a
    :class:`~repro.ccglib.complex_mma.RoundedPlanes` holding the planar
    (batch, 2, M, K) float32 planes already rounded to the precision's
    grid, the values the MMA rounds a per-call A to. The tags name the plan
    the operand is valid for; :meth:`Gemm.run` rejects any other.

    A snapshot: it does not follow later in-place updates of the weights
    it was prepared from.
    """

    precision: Precision
    #: (batch, M, K) of the interleaved operand.
    shape: tuple[int, int, int]
    padded_k: int
    #: name of the :class:`~repro.backend.ArrayBackend` holding ``data``.
    backend: str
    data: Any = field(repr=False)


class Gemm:
    """A complex matrix-multiply plan bound to a device.

    The MMA fragment shape and the 1-bit op are not parameters: ccglib
    resolves both from the device and precision (:attr:`fragment`,
    :attr:`bit_op`). :meth:`prepare_a` prepares a weight operand once for
    any number of :meth:`run` calls.

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
    experimental_ok:
        Enable experimental precisions (TF32); without it they raise
        :class:`~repro.errors.UnsupportedPrecisionError`.
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
        #: MMA fragment shape: the precision's default (paper Table I).
        self.fragment = traits(precision).default_fragment
        #: 1-bit multiply op (``None`` unless int1): XOR, or AND on
        #: Hopper-class devices where XOR is software-emulated (§III-E).
        self.bit_op = resolve_bit_op(device.spec, precision, None)
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

    def prepare_a(self, a: Any) -> PreparedOperand:
        """Validate the interleaved A operand and prepare it for :meth:`run`.

        ``a`` is (batch, M, K) complex (or (M, K) for batch=1). The result
        holds, on this plan's backend, the sign-packed planar words at
        :attr:`padded_k` for int1, and for float16/tf32 the planar planes
        already rounded to the precision's input grid, which the MMA then
        uses without rounding them again. A per-call A goes through the
        same preparation (int1) or the same rounding (float16/tf32, one
        chunk at a time), so passing the prepared operand instead skips
        exactly that work and gives a bit-identical output.
        """
        p = self.problem
        a = self._checked(a, "A", (p.batch, p.m, p.k))
        if self.precision is Precision.INT1:
            data = pack_sign_planar(
                to_planar(a, backend=self.backend), k_pad_to=self.padded_k, backend=self.backend
            )
        else:
            data = round_operand(a, self.precision.value, backend=self.backend)
        return PreparedOperand(
            precision=self.precision,
            shape=(p.batch, p.m, p.k),
            padded_k=self.padded_k,
            backend=self.backend.name,
            data=data,
        )

    def run(
        self,
        a: Any | None = None,
        b: Any | None = None,
        *,
        scale: Any | None = None,
        restore_scale: bool = False,
    ) -> GemmResult:
        """Execute the plan.

        Functional devices require ``a`` — the interleaved complex (batch,
        M, K) operand (or (M, K) for batch=1), or a :class:`PreparedOperand`
        from :meth:`prepare_a` of a plan with the same shape, padded K,
        precision and backend — and the interleaved complex ``b`` of shape
        (batch, K, N). Dry-run devices ignore the operands and return the
        predicted cost only. The result carries the launch's cost either way.

        ``scale`` normalizes B: the product uses ``b / scale`` cast to
        complex64, and ``restore_scale`` multiplies the complex64 output by
        ``scale`` again. The output is bit for bit that of those two
        whole-array steps around a plain run. On NumPy the float16/tf32
        MMA applies both to one cache-sized chunk of batch items at a time
        (:func:`~repro.ccglib.complex_mma.complex_mma_f16_batched`); int1
        applies them to the whole block, as do other backends.
        """
        cost = self.predict_cost()
        if not self.device.is_functional:
            return GemmResult(output=None, cost=cost)
        if a is None or b is None:
            raise ShapeError("functional execution requires both operands")
        p = self.problem
        if isinstance(a, PreparedOperand):
            self._check_prepared(a)
            a = a.data
        elif self.precision is Precision.INT1:
            a = self.prepare_a(a).data
        else:
            a = self._checked(a, "A", (p.batch, p.m, p.k))
        b = self._checked(b, "B", (p.batch, p.k, p.n))
        if self.precision is not Precision.INT1:
            return GemmResult(output=self._run_float(a, b, scale, restore_scale), cost=cost)
        be = self.backend
        if scale is not None:
            b = be.astype(b / scale, be.xp.complex64)
        output = self._run_int1(a, to_planar(b, backend=be))
        if restore_scale and scale is not None:
            output *= scale  # fresh output: in place (immutable backends rebind)
        return GemmResult(output=output, cost=cost)

    # -- internals ----------------------------------------------------------

    def _checked(self, operand: Any, side: str, expected: tuple[int, int, int]) -> Any:
        """Shape-check one interleaved operand against the plan."""
        be = self.backend
        operand = be.asarray(operand)
        if not _is_complex_dtype(operand):
            raise ShapeError("operands must be complex arrays (interleaved layout)")
        operand, _ = ensure_batched(operand, 3, backend=be)
        if tuple(operand.shape) != expected:
            raise ShapeError(
                f"operand shapes do not match the plan: {side} is {tuple(operand.shape)}, "
                f"the plan (batch={self.problem.batch}, M={self.problem.m}, "
                f"N={self.problem.n}, K={self.problem.k}) needs {expected}"
            )
        return operand

    def _check_prepared(self, a: PreparedOperand) -> None:
        p = self.problem
        got = (a.precision.value, a.shape, a.padded_k, a.backend)
        want = (self.precision.value, (p.batch, p.m, p.k), self.padded_k, self.backend.name)
        if got != want:
            raise ShapeError(
                f"prepared A operand (precision, (batch, M, K), padded K, backend) = {got} "
                f"is not valid for this plan, which needs {want}"
            )

    def _run_float(self, a: Any, b: Any, scale: Any | None, restore_scale: bool) -> Any:
        """float16 (and experimental tf32) functional path.

        One batched 5-step complex MMA over all batch items, straight from
        the interleaved operands (``a`` may be prepared rounded planes) to
        the interleaved complex64 output. On NumPy each cache-sized chunk
        of batch items de-interleaves, scales and rounds its own slices and
        restores the scale on its own output slice, so no block-sized
        planar, normalized or rounded copy of either operand is made.
        """
        mma = complex_mma_tf32_batched if self.precision is Precision.TF32 else complex_mma_f16_batched
        return mma(a, b, backend=self.backend, scale=scale, restore_scale=restore_scale)

    def _run_int1(self, a_words: Any, b_planar: Any) -> Any:
        """1-bit functional path: sign-quantize and pack B, binary GEMM (Eq. 5/6).

        ``a_words`` is the prepared A. Exact integer arithmetic throughout,
        so batching the packed GEMM over all items is trivially
        bit-identical to the historical loop.
        """
        be = self.backend
        xp = be.xp
        b_kmajor = planar_to_kmajor(b_planar, backend=be)
        b_words = pack_sign_planar(b_kmajor, k_pad_to=self.padded_k, backend=be)
        planar = complex_bit_gemm(
            a_words,
            b_words,
            k_valid=self.problem.k,
            bit_op=self.bit_op,
            backend=be,
        )
        if xp is np:
            # Fill complex64 storage directly: assignment casts each int32
            # count to float32 exactly as ``astype`` would.
            out = np.empty(planar.shape[:-3] + planar.shape[-2:], dtype=np.complex64)
            out.real = planar[..., REAL, :, :]
            out.imag = planar[..., IMAG, :, :]
            return out
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
