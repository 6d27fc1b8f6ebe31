"""Cross-backend validation harness for the functional execution layer.

Answers one question per backend: *does the full pack -> transpose -> GEMM
pipeline produce the same answers as the NumPy reference?* The harness runs
the real entry points (:meth:`repro.ccglib.gemm.Gemm.run` with a prepared A
operand, :meth:`repro.tcbf.plan.BeamformerPlan.execute` with its block scale,
:func:`repro.ccglib.packing.pack_sign_planar`, ...) on each backend over a
deterministic set of seeded shapes and compares against the NumPy backend
(the 1-bit GEMM also against the unpacked ±1 oracle ``bit_gemm_reference``)
with the per-precision tolerances of
:data:`repro.ccglib.precision.PARITY_TOLERANCES` — exact (bit-for-bit) for
the integer 1-bit path, small float tolerances for float16/TF32 where
backends may legitimately fuse or reorder the arithmetic.

Run it directly (exits non-zero on any failure)::

    PYTHONPATH=src python -m repro.backend.validate            # all backends
    PYTHONPATH=src python -m repro.backend.validate jax        # one backend

CI runs this in the optional-backends job after installing ``jax[cpu]``; a
machine with CuPy + a GPU validates the CUDA path the same way with zero
code changes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.backend import ArrayBackend, available_backends, get_backend, numpy_backend
from repro.backend.conformance import check_backend
from repro.ccglib.bit_gemm import bit_gemm_reference, complex_bit_gemm
from repro.ccglib.complex_mma import complex_mma_f16_batched, complex_mma_tf32_batched
from repro.ccglib.gemm import Gemm
from repro.ccglib.layouts import to_planar
from repro.ccglib.packing import pack_sign_planar, unpack_sign_planar
from repro.ccglib.precision import Precision, parity_tolerance
from repro.ccglib.transpose import planar_to_kmajor
from repro.gpusim.arch import BitOp
from repro.gpusim.device import Device
from repro.tcbf.plan import BeamformerPlan
from repro.tcbf.scaling import rms
from repro.util.bits import pack_bits, sign_to_bits, unpack_bits

#: (batch, m, n, k) GEMM shapes exercised per backend; quick mode keeps the
#: first two. Deliberately awkward K values so padding paths run too.
_SHAPES = ((1, 8, 4, 16), (2, 16, 8, 33), (3, 7, 5, 100), (1, 32, 16, 257))


@dataclass
class CaseResult:
    """Outcome of one validation case on one backend."""

    case: str
    passed: bool
    max_abs_err: float = 0.0
    detail: str = ""


@dataclass
class ValidationReport:
    """All validation outcomes for one backend."""

    backend: str
    version: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def failures(self) -> list[CaseResult]:
        return [c for c in self.cases if not c.passed]

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"[{status}] backend {self.backend} ({self.version}): "
                 f"{len(self.cases) - len(self.failures)}/{len(self.cases)} cases"]
        for c in self.cases:
            mark = "ok  " if c.passed else "FAIL"
            err = f" max|err|={c.max_abs_err:.3g}" if c.max_abs_err else ""
            tail = f" — {c.detail}" if c.detail and not c.passed else ""
            lines.append(f"  {mark} {c.case}{err}{tail}")
        return "\n".join(lines)


def _compare(
    case: str, got: np.ndarray, want: np.ndarray, rtol: float, atol: float
) -> CaseResult:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return CaseResult(case, False, detail=f"shape {got.shape} != {want.shape}")
    if rtol == 0.0 and atol == 0.0:
        if np.array_equal(got, want):
            return CaseResult(case, True)
        err = float(np.max(np.abs(got.astype(np.float64) - want.astype(np.float64))))
        return CaseResult(case, False, max_abs_err=err, detail="exact match required")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if np.allclose(got, want, rtol=rtol, atol=atol):
        return CaseResult(case, True, max_abs_err=err)
    return CaseResult(case, False, max_abs_err=err, detail=f"tolerance rtol={rtol}, atol={atol}")


def validate_backend(
    backend: ArrayBackend | str, quick: bool = False, seed: int = 1234
) -> ValidationReport:
    """Validate one backend against the NumPy reference pipeline."""
    be = get_backend(backend)
    ref = numpy_backend()
    report = ValidationReport(backend=be.name, version=be.version)
    rng = np.random.default_rng(seed)

    for problem in check_backend(be):
        report.cases.append(CaseResult("conformance", False, detail=problem))
    if not report.cases:
        report.cases.append(CaseResult("conformance", True))

    shapes = _SHAPES[:2] if quick else _SHAPES
    for batch, m, n, k in shapes:
        tag = f"b{batch}m{m}n{n}k{k}"
        a = (rng.normal(size=(batch, m, k)) + 1j * rng.normal(size=(batch, m, k))).astype(
            np.complex64
        )
        b = (rng.normal(size=(batch, k, n)) + 1j * rng.normal(size=(batch, k, n))).astype(
            np.complex64
        )
        a_planar = np.asarray(to_planar(a))
        b_planar = np.asarray(to_planar(b))

        # -- bit pack/unpack round-trip: exact on every backend ---------------
        values = rng.normal(size=(batch, 2, m, k)).astype(np.float32)
        bits_ref = np.asarray(sign_to_bits(values))
        words = be.to_numpy(pack_sign_planar(values, k_pad_to=_pad32(k), backend=be))
        words_ref = np.asarray(pack_sign_planar(values, k_pad_to=_pad32(k)))
        report.cases.append(_compare(f"pack/{tag}", words, words_ref, 0.0, 0.0))
        signs = be.to_numpy(unpack_sign_planar(be.asarray(words_ref), k, backend=be))
        report.cases.append(
            _compare(f"unpack/{tag}", signs, bits_ref.astype(np.int8) * 2 - 1, 0.0, 0.0)
        )

        # -- transpose to K-major: a pure reindex, exact ----------------------
        km = be.to_numpy(planar_to_kmajor(b_planar, backend=be))
        report.cases.append(
            _compare(f"transpose/{tag}", km, np.asarray(planar_to_kmajor(b_planar)), 0.0, 0.0)
        )

        # -- 1-bit GEMM: exact integer arithmetic, XOR (Eq. 5) and AND (Eq. 6)
        # Checked against NumPy's packed kernel and against the unpacked ±1
        # oracle, so a fault the packed kernels share cannot pass.
        aw = pack_sign_planar(a_planar, k_pad_to=_pad32(k), backend=be)
        bw = pack_sign_planar(planar_to_kmajor(b_planar, backend=be), k_pad_to=_pad32(k), backend=be)
        aw_ref = pack_sign_planar(a_planar, k_pad_to=_pad32(k))
        bw_ref = pack_sign_planar(planar_to_kmajor(b_planar), k_pad_to=_pad32(k))
        a_bits = np.asarray(sign_to_bits(a_planar))
        b_bits = np.asarray(sign_to_bits(planar_to_kmajor(b_planar)))
        oracle = np.stack([bit_gemm_reference(x, y) for x, y in zip(a_bits, b_bits)])
        tol = parity_tolerance(Precision.INT1)
        for op in BitOp:
            got = be.to_numpy(complex_bit_gemm(aw, bw, k_valid=k, bit_op=op, backend=be))
            want = np.asarray(complex_bit_gemm(aw_ref, bw_ref, k_valid=k, bit_op=op))
            for family, ref_out in (("int1-gemm", want), ("int1-oracle", oracle)):
                case = f"{family}/{op.value}-{tag}"
                report.cases.append(_compare(case, got, ref_out, tol.rtol, tol.atol))

        # -- float16 5-step schedule ------------------------------------------
        got = be.to_numpy(complex_mma_f16_batched(a_planar, b_planar, backend=be))
        want = np.asarray(complex_mma_f16_batched(a_planar, b_planar, backend=ref))
        tol = parity_tolerance(Precision.FLOAT16)
        scale = max(1.0, float(np.max(np.abs(want))))
        report.cases.append(
            _compare(f"f16-gemm/{tag}", got / scale, want / scale, tol.rtol, tol.atol)
        )

        # -- TF32 schedule (bitcast-based quantization) -----------------------
        got = be.to_numpy(complex_mma_tf32_batched(a_planar, b_planar, backend=be))
        want = np.asarray(complex_mma_tf32_batched(a_planar, b_planar, backend=ref))
        tol = parity_tolerance(Precision.TF32)
        report.cases.append(
            _compare(f"tf32-gemm/{tag}", got / scale, want / scale, tol.rtol, tol.atol)
        )

        # -- Gemm.run with a prepared A against a per-call A on NumPy ---------
        for precision in (Precision.INT1, Precision.FLOAT16, Precision.TF32):
            shape = dict(batch=batch, m=m, n=n, k=k, experimental_ok=True)
            plan = Gemm(Device("A100"), precision, backend=be, **shape)
            got = be.to_numpy(plan.run(plan.prepare_a(a), b).output)
            want = np.asarray(Gemm(Device("A100"), precision, **shape).run(a, b).output)
            tol = parity_tolerance(precision)
            scale = max(1.0, float(np.max(np.abs(want))))
            report.cases.append(
                _compare(
                    f"prepared-gemm/{precision.value}-{tag}",
                    got / scale, want / scale, tol.rtol, tol.atol,
                )
            )

        # -- BeamformerPlan.execute: the block scale through Gemm.run --------
        # Both plans get the scale the NumPy plan would compute, so the cases
        # compare the divide/restore path, not two RMS reductions (the rms
        # case below checks those).
        data = (3.0 * b).astype(np.complex64)
        block_scale = rms(data)
        for precision in (Precision.FLOAT16, Precision.INT1):
            for restore in (False, True):
                kw = dict(
                    n_beams=m, n_receivers=k, n_samples=n, batch=batch, precision=precision,
                    include_transpose=False, restore_output_scale=restore,
                )
                plan = BeamformerPlan(Device("A100"), backend=be, **kw)
                got = be.to_numpy(plan.execute(a, data, scale=block_scale).output)
                want = BeamformerPlan(Device("A100"), **kw).execute(a, data, scale=block_scale)
                want = np.asarray(want.output)
                tol = parity_tolerance(precision)
                scale = max(1.0, float(np.max(np.abs(want))))
                mode = "restore" if restore else "plain"
                report.cases.append(
                    _compare(
                        f"plan-execute/{precision.value}-{mode}-{tag}",
                        got / scale, want / scale, tol.rtol, tol.atol,
                    )
                )

    # -- raw word-level pack/unpack and the RMS reduction ---------------------
    raw_bits = (rng.integers(0, 2, size=(3, 5, 64))).astype(np.uint8)
    got_words = be.to_numpy(pack_bits(raw_bits, axis=-1, backend=be))
    report.cases.append(
        _compare("pack-bits", got_words, np.asarray(pack_bits(raw_bits, axis=-1)), 0.0, 0.0)
    )
    back = be.to_numpy(unpack_bits(be.asarray(got_words), axis=-1, backend=be))
    report.cases.append(_compare("unpack-bits", back, raw_bits, 0.0, 0.0))
    sig = (rng.normal(size=(4, 7, 9)) + 1j * rng.normal(size=(4, 7, 9))).astype(np.complex64)
    got_rms = rms(sig, backend=be)
    report.cases.append(
        _compare("rms", np.float64(got_rms), np.float64(rms(sig)), 1e-6, 1e-9)
    )
    return report


def _pad32(k: int) -> int:
    return -(-k // 32) * 32


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (0 = all backends pass)."""
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    names = [a for a in argv if not a.startswith("-")] or list(available_backends())
    code = 0
    for name in names:
        if name not in available_backends():
            print(f"[SKIP] backend {name}: not available "
                  f"(available: {', '.join(available_backends())})")
            code = 1
            continue
        report = validate_backend(name, quick=quick)
        print(report.summary())
        if not report.ok:
            code = 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
