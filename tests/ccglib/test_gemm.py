"""Public Gemm API: correctness, planning, dry-run."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.complex_mma import complex_mma_f16_batched, complex_mma_tf32_batched
from repro.backend import NumpyBackend
from repro.ccglib.gemm import Gemm, PreparedOperand, gemm_once
from repro.ccglib.layouts import to_interleaved, to_planar
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError, UnsupportedPrecisionError
from repro.gpusim.device import Device, ExecutionMode
from tests.conftest import GenericNumpyBackend, random_complex, random_pm1_complex


class TestFloat16Path:
    def test_matches_reference(self, a100_device, rng):
        a = random_complex(rng, (2, 24, 40))
        b = random_complex(rng, (2, 40, 12))
        result = gemm_once(a100_device, Precision.FLOAT16, a, b)
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        scale = np.abs(ref).max()
        assert np.abs(result.output - ref).max() / scale < 5e-3

    def test_unbatched_operands(self, a100_device, rng):
        a = random_complex(rng, (8, 16))
        b = random_complex(rng, (16, 4))
        result = gemm_once(a100_device, Precision.FLOAT16, a, b)
        assert result.output.shape == (1, 8, 4)

    @given(st.integers(0, 2**31))
    def test_batch_items_independent(self, seed):
        rng = np.random.default_rng(seed)
        dev = Device("A100")
        a = random_complex(rng, (3, 6, 10))
        b = random_complex(rng, (3, 10, 5))
        full = gemm_once(dev, Precision.FLOAT16, a, b).output
        solo = gemm_once(dev, Precision.FLOAT16, a[1:2], b[1:2]).output
        assert np.allclose(full[1], solo[0], rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize(
        "precision, mma",
        [(Precision.FLOAT16, complex_mma_f16_batched), (Precision.TF32, complex_mma_tf32_batched)],
        ids=["f16", "tf32"],
    )
    @pytest.mark.parametrize("shape", [(3, 7, 5, 9), (1, 16, 33, 64)])
    def test_output_is_interleaved_planar_mma_bitwise(self, rng, precision, mma, shape):
        batch, m, n, k = shape
        a = random_complex(rng, (batch, m, k))
        b = random_complex(rng, (batch, k, n), scale=3.0)
        plan = Gemm(Device("A100"), precision, batch=batch, m=m, n=n, k=k, experimental_ok=True)
        got = plan.run(a, b).output
        want = to_interleaved(mma(to_planar(a), to_planar(b)))
        assert got.dtype == np.complex64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestInt1Path:
    @given(st.integers(1, 40), st.integers(0, 2**31))
    def test_exact_for_pm1_inputs(self, k, seed):
        rng = np.random.default_rng(seed)
        dev = Device("A100")
        a = random_pm1_complex(rng, (5, k))
        b = random_pm1_complex(rng, (k, 4))
        result = gemm_once(dev, Precision.INT1, a, b)
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        assert np.array_equal(result.output[0], ref.astype(np.complex64))

    def test_and_path_on_hopper_exact(self, gh200_device, rng):
        a = random_pm1_complex(rng, (7, 100))
        b = random_pm1_complex(rng, (100, 3))
        result = gemm_once(gh200_device, Precision.INT1, a, b)
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        assert np.array_equal(result.output[0], ref.astype(np.complex64))
        assert result.cost.name == "gemm_int1_and"

    def test_sign_quantization_of_general_input(self, a100_device, rng):
        # Arbitrary complex inputs are reduced to their component signs.
        a = random_complex(rng, (3, 33))
        b = random_complex(rng, (33, 2))
        got = gemm_once(a100_device, Precision.INT1, a, b).output
        sa = np.sign(a.real) + 0j + 1j * np.sign(a.imag)
        sa = np.where(a.real >= 0, 1, -1) + 1j * np.where(a.imag >= 0, 1, -1)
        sb = np.where(b.real >= 0, 1, -1) + 1j * np.where(b.imag >= 0, 1, -1)
        ref = sa.astype(np.complex128) @ sb.astype(np.complex128)
        assert np.array_equal(got[0], ref.astype(np.complex64))

    def test_rejected_on_amd(self, mi300x_device):
        with pytest.raises(UnsupportedPrecisionError):
            Gemm(mi300x_device, Precision.INT1, 1, 8, 8, 256)


class TestPreparedOperand:
    """``Gemm.prepare_a`` once, then ``run`` many times: the same bytes."""

    PRECISIONS = [Precision.INT1, Precision.FLOAT16, Precision.TF32]

    @staticmethod
    def _plan(precision, shape, backend=None, device=None):
        batch, m, n, k = shape
        return Gemm(
            device or Device("A100"), precision, batch=batch, m=m, n=n, k=k,
            experimental_ok=True, backend=backend,
        )

    @pytest.mark.parametrize("backend", [NumpyBackend(), GenericNumpyBackend()], ids=lambda b: b.name)
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("shape", [(1, 7, 5, 45), (3, 6, 4, 300)])
    def test_prepared_and_per_call_a_give_identical_bytes(self, rng, backend, precision, shape):
        # K = 45 and 300 are multiples of neither 32 nor 256: the padding path runs.
        batch, m, n, k = shape
        a = random_complex(rng, (batch, m, k))
        b = random_complex(rng, (batch, k, n), scale=3.0)
        plan = self._plan(precision, shape, backend)
        prepared = plan.prepare_a(a)
        assert (prepared.precision, prepared.shape, prepared.padded_k) == (
            precision, (batch, m, k), plan.padded_k,
        )
        per_call = plan.run(a, b).output
        for _ in range(2):  # reused, not consumed
            got = plan.run(prepared, b).output
            assert got.dtype == np.complex64 and got.tobytes() == per_call.tobytes()

    @pytest.mark.parametrize("backend", [NumpyBackend(), GenericNumpyBackend()], ids=lambda b: b.name)
    @pytest.mark.parametrize("precision", PRECISIONS, ids=lambda p: p.value)
    @pytest.mark.parametrize("restore", [False, True], ids=["plain", "restore"])
    @pytest.mark.parametrize("scale", [2.5, np.float64(0.3), -4.0], ids=["f", "f64", "neg"])
    def test_scale_equals_the_whole_array_steps(self, rng, backend, precision, restore, scale):
        # ``run(a, b, scale=s, restore_scale=r)`` is ``run(a, b / s)`` with
        # the quotient cast to complex64, times ``s`` when restoring: bit for
        # bit, whether the divide runs chunk by chunk or over the block.
        shape = (3, 6, 4, 45)
        batch, m, n, k = shape
        a = random_complex(rng, (batch, m, k))
        b = random_complex(rng, (batch, k, n), scale=3.0)
        b0 = b.copy()
        plan = self._plan(precision, shape, backend)
        got = plan.run(a, b, scale=scale, restore_scale=restore).output
        want = plan.run(a, (b / scale).astype(np.complex64)).output
        if restore:
            want *= scale
        assert got.dtype == np.complex64 and got.tobytes() == want.tobytes()
        assert b.tobytes() == b0.tobytes()

    @pytest.mark.parametrize("shape", [(1, 7, 5, 45), (3, 6, 4, 300)])
    def test_int1_output_identical_on_both_backends(self, rng, shape):
        # NumPy fills complex64 storage directly; the generic path combines
        # float32 planes. Both must produce the same bytes.
        batch, m, n, k = shape
        a = random_complex(rng, (batch, m, k))
        b = random_complex(rng, (batch, k, n))
        outs = [
            self._plan(Precision.INT1, shape, be).run(a, b).output
            for be in (NumpyBackend(), GenericNumpyBackend())
        ]
        assert outs[0].flags.c_contiguous
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_int1_prepared_operand_holds_packed_words(self, rng):
        plan = self._plan(Precision.INT1, (2, 5, 3, 45))
        prepared = plan.prepare_a(random_complex(rng, (2, 5, 45)))
        assert prepared.data.dtype == np.uint32
        assert prepared.data.shape == (2, 2, 5, plan.padded_k // 32)

    def test_float_prepared_operand_holds_rounded_planes(self, rng):
        plan = self._plan(Precision.FLOAT16, (1, 5, 3, 45))
        a = random_complex(rng, (5, 45))
        prepared = plan.prepare_a(a)
        want = to_planar(a[None]).astype(np.float16).astype(np.float32)
        assert prepared.data.precision == "float16"
        assert prepared.data.planes.dtype == np.float32
        assert prepared.data.planes.tobytes() == want.tobytes()

    def test_operand_with_another_padded_k_rejected(self, rng):
        # Plans of one precision and K share a padded K; only a stale or
        # hand-built operand can disagree.
        plan = self._plan(Precision.INT1, (1, 7, 5, 45))
        stale = replace(plan.prepare_a(random_complex(rng, (1, 7, 45))), padded_k=512)
        with pytest.raises(ShapeError, match="not valid for this plan"):
            plan.run(stale, random_complex(rng, (1, 45, 5)))

    @pytest.mark.parametrize(
        "other",
        [
            dict(precision=Precision.INT1, shape=(1, 8, 5, 45)),
            dict(precision=Precision.INT1, shape=(2, 7, 5, 45)),
            dict(precision=Precision.FLOAT16, shape=(1, 7, 5, 45)),
            dict(precision=Precision.INT1, shape=(1, 7, 5, 45), backend=GenericNumpyBackend()),
        ],
        ids=["m", "batch", "precision", "backend"],
    )
    def test_operand_prepared_by_another_plan_rejected(self, rng, other):
        plan = self._plan(Precision.INT1, (1, 7, 5, 45))
        batch, m, _, k = other["shape"]
        foreign = self._plan(**other).prepare_a(random_complex(rng, (batch, m, k)))
        with pytest.raises(ShapeError, match="not valid for this plan"):
            plan.run(foreign, random_complex(rng, (1, 45, 5)))

    def test_prepare_a_validates(self, rng):
        plan = self._plan(Precision.INT1, (1, 7, 5, 45))
        with pytest.raises(ShapeError, match="do not match the plan"):
            plan.prepare_a(random_complex(rng, (1, 7, 44)))
        with pytest.raises(ShapeError, match="complex"):
            plan.prepare_a(np.ones((1, 7, 45)))
        assert isinstance(plan.prepare_a(random_complex(rng, (7, 45))), PreparedOperand)

    def test_prepare_a_records_nothing(self, rng, kernel_runs):
        # Preparing the operand is host-side work: no kernel runs.
        plan = self._plan(Precision.INT1, (1, 7, 5, 45))
        plan.prepare_a(random_complex(rng, (1, 7, 45)))
        assert kernel_runs == []


class TestPlanning:
    def test_shape_mismatch_rejected(self, a100_device, rng):
        plan = Gemm(a100_device, Precision.FLOAT16, 1, 8, 8, 8)
        a = random_complex(rng, (1, 8, 16))
        b = random_complex(rng, (1, 16, 8))
        with pytest.raises(ShapeError, match="do not match the plan"):
            plan.run(a, b)

    def test_real_operands_rejected(self, a100_device):
        plan = Gemm(a100_device, Precision.FLOAT16, 1, 4, 4, 4)
        with pytest.raises(ShapeError, match="complex"):
            plan.run(np.ones((1, 4, 4)), np.ones((1, 4, 4)))

    def test_missing_operands_rejected(self, a100_device):
        plan = Gemm(a100_device, Precision.FLOAT16, 1, 4, 4, 4)
        with pytest.raises(ShapeError):
            plan.run()

    def test_invalid_params_fail_at_plan_time(self, a100_device):
        from repro.errors import KernelConfigError

        with pytest.raises(KernelConfigError):
            Gemm(
                a100_device,
                Precision.FLOAT16,
                1, 64, 64, 64,
                params=TuneParams(64, 64, 64, 64, 9),
            )

    def test_padded_k(self, a100_device):
        plan = Gemm(a100_device, Precision.INT1, 1, 16, 16, 100)
        assert plan.padded_k == 256  # int1 fragment K granularity

    def test_small_problem_shrinks_tiles(self, a100_device):
        plan = Gemm(a100_device, Precision.FLOAT16, 1, 16, 16, 64)
        # Default A100 tile is 256x32; a 16x16 problem must not keep it.
        assert plan.params.block_m < 256

    def test_experimental_precision_gate(self, a100_device):
        with pytest.raises(UnsupportedPrecisionError, match="experimental"):
            Gemm(a100_device, Precision.TF32, 1, 16, 16, 16)
        plan = Gemm(a100_device, Precision.TF32, 1, 16, 16, 16, experimental_ok=True)
        assert plan.precision is Precision.TF32


class TestDryRun:
    def test_returns_cost_only(self):
        dev = Device("GH200", ExecutionMode.DRY_RUN)
        plan = Gemm(dev, Precision.INT1, 1, 38880, 8041, 524288)
        result = plan.run()
        assert result.output is None
        assert result.cost.time_s > 0
        assert result.cost == plan.predict_cost()

    def test_paper_scale_does_not_compute(self):
        # 1.3 PetaOps functionally would take hours; the dry run is instant
        # and the recorded cost carries the op count.
        dev = Device("GH200", ExecutionMode.DRY_RUN)
        result = Gemm(dev, Precision.INT1, 1, 38880, 8041, 524288).run()
        assert result.cost.useful_ops == pytest.approx(8 * 38880 * 8041 * 524288)

    def test_predict_cost_does_not_record(self, a100_device, kernel_runs):
        # A pure prediction: nothing runs, and asking twice gives the same cost.
        plan = Gemm(a100_device, Precision.FLOAT16, 1, 64, 64, 64)
        assert plan.predict_cost() == plan.predict_cost()
        assert kernel_runs == []


class TestFloat16Quantization:
    def test_fp16_rounding_visible(self, a100_device):
        # 2048 + 1 is not representable in fp16; the product must show it.
        a = np.array([[[2049.0 + 0j]]], dtype=np.complex64)
        b = np.array([[[1.0 + 0j]]], dtype=np.complex64)
        out = gemm_once(a100_device, Precision.FLOAT16, a, b).output
        assert out[0, 0, 0].real == np.float32(np.float16(2049.0))
