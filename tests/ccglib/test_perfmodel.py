"""Analytical GEMM performance model: calibration, restrictions, trends."""

from __future__ import annotations

import pytest

from repro.ccglib.perfmodel import (
    GemmProblem,
    accumulator_registers,
    model_gemm,
    shared_memory_per_block,
    theoretical_min_bytes,
    validate_config,
)
from repro.ccglib.precision import Precision, traits
from repro.ccglib.tuning import TABLE_III, TuneParams, published_tuning
from repro.errors import KernelConfigError
from repro.gpusim.arch import BitOp
from repro.gpusim.specs import get_spec
from repro.gpusim.timing import Bound
from repro.kerneltuner.tuner import PAPER_TUNING_PROBLEMS
from repro.util.units import tera


class TestTableIIICalibration:
    """The calibration anchor: model == paper at the published configs."""

    @pytest.mark.parametrize("row", TABLE_III, ids=lambda r: f"{r.gpu}-{r.precision.value}")
    def test_performance_within_one_percent(self, row):
        spec = get_spec(row.gpu)
        cost = model_gemm(spec, row.precision, PAPER_TUNING_PROBLEMS[row.precision], row.params)
        assert cost.ops_per_second / tera == pytest.approx(row.tops, rel=0.01)

    @pytest.mark.parametrize("row", TABLE_III, ids=lambda r: f"{r.gpu}-{r.precision.value}")
    def test_energy_within_three_percent(self, row):
        spec = get_spec(row.gpu)
        cost = model_gemm(spec, row.precision, PAPER_TUNING_PROBLEMS[row.precision], row.params)
        assert cost.ops_per_joule / tera == pytest.approx(row.tops_per_joule, rel=0.03)

    @pytest.mark.parametrize("row", TABLE_III, ids=lambda r: f"{r.gpu}-{r.precision.value}")
    def test_large_tuned_kernels_are_compute_bound(self, row):
        spec = get_spec(row.gpu)
        cost = model_gemm(spec, row.precision, PAPER_TUNING_PROBLEMS[row.precision], row.params)
        assert cost.bound is Bound.COMPUTE


class TestRestrictions:
    def test_table3_configs_all_valid(self):
        for row in TABLE_III:
            validate_config(get_spec(row.gpu), row.precision, row.params)

    def test_block_warp_divisibility(self):
        with pytest.raises(KernelConfigError, match="divisible"):
            validate_config(get_spec("A100"), Precision.FLOAT16, TuneParams(96, 32, 64, 32, 2))

    def test_warp_fragment_multiple(self):
        with pytest.raises(KernelConfigError, match="fragment"):
            validate_config(get_spec("A100"), Precision.FLOAT16, TuneParams(64, 32, 8, 32, 2))

    def test_amd_rejects_multibuffer(self):
        with pytest.raises(KernelConfigError, match="asynchronous"):
            validate_config(get_spec("MI300X"), Precision.FLOAT16, TuneParams(128, 64, 64, 32, 2))

    def test_register_budget(self):
        # Huge warp tile -> accumulators alone exceed 255 regs on NVIDIA.
        params = TuneParams(256, 256, 128, 128, 1)
        assert accumulator_registers(params, 32) > 255
        with pytest.raises(KernelConfigError, match="registers"):
            validate_config(get_spec("A100"), Precision.FLOAT16, params)

    def test_shared_memory_budget(self):
        # AMD LDS is 64 KiB; four large fp16 stages do not fit... constructed
        # to pass divisibility but fail capacity on NVIDIA Ada (100 KiB).
        params = TuneParams(256, 256, 64, 64, 4)
        smem = shared_memory_per_block(params, traits(Precision.FLOAT16))
        assert smem > get_spec("AD4000").smem_per_sm_bytes
        with pytest.raises(KernelConfigError, match="shared memory"):
            validate_config(get_spec("AD4000"), Precision.FLOAT16, params)

    def test_too_many_warps(self):
        with pytest.raises(KernelConfigError, match="warps"):
            validate_config(get_spec("A100"), Precision.FLOAT16, TuneParams(256, 256, 16, 16, 1))

    def test_int1_on_amd_rejected(self):
        with pytest.raises(Exception):
            validate_config(get_spec("MI210"), Precision.INT1, TuneParams(128, 64, 32, 64, 1))


class TestPaddingEffects:
    def test_sawtooth(self):
        spec = get_spec("A100")
        params = published_tuning("A100", Precision.FLOAT16).params
        aligned = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 4096, 4096, 4096), params)
        off = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 4096, 4096, 4097), params)
        # One element over a K boundary pads a full fragment: slower.
        assert off.ops_per_second < aligned.ops_per_second

    def test_padded_dims_recorded(self):
        spec = get_spec("A100")
        params = published_tuning("A100", Precision.FLOAT16).params
        cost = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 100, 100, 100), params)
        assert cost.detail["padded_m"] % params.block_m == 0
        assert cost.detail["padded_k"] % 16 == 0

    def test_small_matrices_slower(self):
        spec = get_spec("GH200")
        params = published_tuning("GH200", Precision.FLOAT16).params
        small = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 512, 512, 512), params)
        big = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 8192, 8192, 8192), params)
        assert small.ops_per_second < 0.6 * big.ops_per_second


class TestBitOpEffects:
    def test_and_doubles_instructions(self):
        spec = get_spec("A100")
        params = published_tuning("A100", Precision.INT1).params
        problem = GemmProblem(1, 4096, 4096, 524288)
        xor = model_gemm(spec, Precision.INT1, problem, params, bit_op=BitOp.XOR)
        and_ = model_gemm(spec, Precision.INT1, problem, params, bit_op=BitOp.AND)
        assert and_.issued_ops == pytest.approx(2 * xor.issued_ops)
        assert xor.ops_per_second > and_.ops_per_second

    def test_hopper_auto_switch_beats_xor(self):
        spec = get_spec("GH200")
        params = published_tuning("GH200", Precision.INT1).params
        problem = PAPER_TUNING_PROBLEMS[Precision.INT1]
        auto = model_gemm(spec, Precision.INT1, problem, params)  # AND
        xor = model_gemm(spec, Precision.INT1, problem, params, bit_op=BitOp.XOR)
        assert auto.ops_per_second > 1.5 * xor.ops_per_second
        assert auto.name.endswith("and")


class TestResourceBounds:
    def test_tiny_k_is_memory_bound_at_large_mn(self):
        # Fig 3 small case: dominated by the C output traffic.
        spec = get_spec("A100")
        params = published_tuning("A100", Precision.FLOAT16).params
        cost = model_gemm(spec, Precision.FLOAT16, GemmProblem(256, 1024, 1024, 64), params)
        assert cost.bound is Bound.MEMORY

    def test_util_ranges(self):
        spec = get_spec("MI300X")
        params = published_tuning("MI300X", Precision.FLOAT16).params
        cost = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 8192, 8192, 8192), params)
        for key in ("util_tensor", "util_dram", "util_smem"):
            assert 0.0 <= cost.detail[key] <= 1.0

    def test_energy_at_least_idle(self):
        spec = get_spec("A100")
        params = published_tuning("A100", Precision.FLOAT16).params
        cost = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 256, 256, 256), params)
        assert cost.energy_j >= spec.power.idle_w * cost.time_s * 0.999

    def test_short_k_ramp_penalty(self):
        # LOFAR effect: K=512 cannot saturate a big GPU (paper §V-B on MI300X).
        spec = get_spec("MI300X")
        params = published_tuning("MI300X", Precision.FLOAT16).params
        short = model_gemm(spec, Precision.FLOAT16, GemmProblem(256, 1024, 1024, 512), params)
        long = model_gemm(spec, Precision.FLOAT16, GemmProblem(1, 8192, 8192, 8192), params)
        assert short.ops_per_second < 0.95 * long.ops_per_second
        # and a truly short K suffers visibly
        very_short = model_gemm(
            spec, Precision.FLOAT16, GemmProblem(256, 1024, 1024, 64), params
        )
        assert very_short.detail["f_ramp"] < 0.75


class TestTheoreticalBytes:
    def test_fp16_accounting(self):
        problem = GemmProblem(1, 8192, 8192, 8192)
        nbytes = theoretical_min_bytes(Precision.FLOAT16, problem)
        expected = 8192 * 8192 * 2 * 2 * 2 + 8192 * 8192 * 2 * 4
        assert nbytes == pytest.approx(expected)

    def test_int1_is_32x_smaller_on_inputs(self):
        problem = GemmProblem(1, 1024, 1024, 4096)
        f16 = theoretical_min_bytes(Precision.FLOAT16, problem)
        i1 = theoretical_min_bytes(Precision.INT1, problem)
        assert i1 < f16
