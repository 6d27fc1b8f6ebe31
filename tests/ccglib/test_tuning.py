"""Tuning parameters: Table III data, runtime selection, search space."""

from __future__ import annotations

import pytest

from repro.ccglib.perfmodel import validate_config
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import (
    TABLE_III,
    TuneParams,
    default_params,
    published_tuning,
    select_params,
)
from repro.gpusim.specs import GPU_CATALOG, get_spec
from repro.kerneltuner.space import config_to_params, gemm_search_space


class TestTableIII:
    def test_ten_rows(self):
        assert len(TABLE_III) == 10  # 7 float16 + 3 int1

    def test_amd_float16_single_buffer(self):
        for row in TABLE_III:
            if get_spec(row.gpu).arch.vendor.value == "amd":
                assert row.params.num_buffers == 1

    def test_mi300x_and_mi300a_share_params(self):
        # Paper: "The MI300X and MI300A optimal parameters are identical".
        x = published_tuning("MI300X", Precision.FLOAT16).params
        a = published_tuning("MI300A", Precision.FLOAT16).params
        assert x == a

    def test_lookup_missing(self):
        assert published_tuning("MI210", Precision.INT1) is None

    def test_warps_per_block(self):
        p = published_tuning("A100", Precision.FLOAT16).params
        assert p.warps_per_block == (256 // 64) * (32 // 32)


class TestDefaults:
    @pytest.mark.parametrize("gpu", list(GPU_CATALOG))
    def test_defaults_valid(self, gpu):
        spec = get_spec(gpu)
        params = default_params(spec, Precision.FLOAT16)
        validate_config(spec, Precision.FLOAT16, params)

    def test_fallback_for_untabulated_combination(self):
        # int1 has no AMD rows; default must still be a sane config.
        params = default_params(get_spec("MI210"), Precision.FLOAT16)
        assert params.num_buffers == 1


class TestSelectParams:
    def test_shrinks_for_tiny_m(self):
        spec = get_spec("A100")
        p = select_params(spec, Precision.FLOAT16, m=16, n=4096)
        assert p.block_m <= 64
        validate_config(spec, Precision.FLOAT16, p)

    def test_keeps_default_for_large_problem(self):
        spec = get_spec("A100")
        assert select_params(spec, Precision.FLOAT16, 8192, 8192) == default_params(
            spec, Precision.FLOAT16
        )

    def test_never_below_warp_tile(self):
        spec = get_spec("A100")
        p = select_params(spec, Precision.FLOAT16, m=1, n=1)
        assert p.block_m >= p.warp_m
        assert p.block_n >= p.warp_n

    def test_explicit_params_respected_but_adapted(self):
        spec = get_spec("A100")
        override = TuneParams(256, 256, 32, 32, 2)
        p = select_params(spec, Precision.FLOAT16, m=32, n=32, params=override)
        assert p.block_m == 32 and p.block_n == 32


class TestSearchSpace:
    def test_nvidia_has_buffer_choices(self):
        space = gemm_search_space(get_spec("A100"), Precision.FLOAT16)
        assert {c["num_buffers"] for c in space} == {1, 2, 4}

    def test_table3_configs_in_space(self):
        for row in TABLE_III:
            space = gemm_search_space(get_spec(row.gpu), row.precision)
            assert row.params in {config_to_params(c) for c in space}
