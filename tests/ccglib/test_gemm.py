"""Public Gemm API: correctness, planning, dry-run."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.complex_mma import complex_mma_f16_batched, complex_mma_tf32_batched
from repro.ccglib.gemm import Gemm, gemm_once
from repro.ccglib.layouts import to_interleaved, to_planar
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import TuneParams
from repro.errors import ShapeError, UnsupportedPrecisionError
from repro.gpusim.device import Device, ExecutionMode
from tests.conftest import random_complex, random_pm1_complex


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
        assert dev.timeline[-1].cost is result.cost

    def test_paper_scale_does_not_compute(self):
        # 1.3 PetaOps functionally would take hours; the dry run is instant
        # and the recorded cost carries the op count.
        dev = Device("GH200", ExecutionMode.DRY_RUN)
        result = Gemm(dev, Precision.INT1, 1, 38880, 8041, 524288).run()
        assert result.cost.useful_ops == pytest.approx(8 * 38880 * 8041 * 524288)

    def test_predict_cost_does_not_record(self, a100_device):
        plan = Gemm(a100_device, Precision.FLOAT16, 1, 64, 64, 64)
        plan.predict_cost()
        assert len(a100_device.timeline) == 0


class TestFloat16Quantization:
    def test_fp16_rounding_visible(self, a100_device):
        # 2048 + 1 is not representable in fp16; the product must show it.
        a = np.array([[[2049.0 + 0j]]], dtype=np.complex64)
        b = np.array([[[1.0 + 0j]]], dtype=np.complex64)
        out = gemm_once(a100_device, Precision.FLOAT16, a, b).output
        assert out[0, 0, 0].real == np.float32(np.float16(2049.0))
