"""Search space with restrictions."""

from __future__ import annotations

import dataclasses

from repro.ccglib.precision import Precision
from repro.kerneltuner.space import (
    SearchSpace,
    config_to_params,
    gemm_search_space,
)
from repro.gpusim.specs import get_spec


class TestSearchSpace:
    def test_restrictions_filter(self):
        space = SearchSpace(
            parameters={"a": [1, 2, 3], "b": [1, 2]},
            restrictions=[lambda c: c["a"] != 2],
        )
        configs = list(space)
        assert all(c["a"] != 2 for c in configs)
        assert len(configs) == 4

    def test_cardinality_unrestricted(self):
        space = SearchSpace(parameters={"a": [1, 2], "b": [1, 2, 3]})
        configs = space.enumerate_valid()
        assert len(configs) == 6
        assert len({tuple(c.items()) for c in configs}) == 6

    def test_neighbours_are_valid_hamming_one(self):
        space = gemm_search_space(get_spec("A100"), Precision.FLOAT16)
        config = space.enumerate_valid()[0]
        for nb in space.neighbours(config):
            assert space.is_valid(nb)
            diffs = sum(1 for k in config if nb[k] != config[k])
            assert diffs == 1


class TestGemmSpace:
    def test_amd_single_buffer(self):
        space = gemm_search_space(get_spec("MI300X"), Precision.FLOAT16)
        assert all(c["num_buffers"] == 1 for c in space)

    def test_divisibility_enforced(self):
        space = gemm_search_space(get_spec("A100"), Precision.FLOAT16)
        for config in space:
            assert config["block_m"] % config["warp_m"] == 0
            assert config["block_n"] % config["warp_n"] == 0

    def test_warp_count_bounds(self):
        space = gemm_search_space(get_spec("GH200"), Precision.INT1)
        for config in space:
            warps = (config["block_m"] // config["warp_m"]) * (
                config["block_n"] // config["warp_n"]
            )
            assert 1 <= warps <= 16


class TestConversions:
    def test_fields_match_config(self):
        space = gemm_search_space(get_spec("A100"), Precision.FLOAT16)
        config = space.enumerate_valid()[5]
        assert dataclasses.asdict(config_to_params(config)) == config
