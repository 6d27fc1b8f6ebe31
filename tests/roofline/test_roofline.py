"""Roofline model (paper Fig 3 machinery)."""

from __future__ import annotations

import pytest

from repro.ccglib.perfmodel import model_gemm
from repro.ccglib.precision import Precision
from repro.ccglib.tuning import published_tuning
from repro.gpusim.specs import get_spec
from repro.roofline.model import (
    FIG3_PROBLEMS,
    build_roofline,
    is_memory_bound,
    place_point,
)


class TestCeilings:
    def test_fp16_ceiling_is_measured_not_theoretical(self):
        roof = build_roofline(get_spec("GH200"))
        # measured GH200 fp16 = ~646 TOPs/s (0.65 WMMA factor), not 990.
        assert roof.peaks_ops["float16 tensor"] == pytest.approx(646e12, rel=0.02)

    def test_int1_ceiling_halved_for_and_mode(self):
        roof = build_roofline(get_spec("GH200"))
        # Hopper uses AND: useful ceiling is half the instruction rate.
        assert roof.peaks_ops["int1 tensor"] == pytest.approx(10276e12 / 2, rel=0.02)

    def test_int1_ceiling_absent_on_amd(self):
        roof = build_roofline(get_spec("MI300X"))
        assert "int1 tensor" not in roof.peaks_ops
        assert "float32" in roof.peaks_ops

    def test_attainable_is_min_of_slope_and_peak(self):
        roof = build_roofline(get_spec("A100"))
        ridge = roof.ridge_point("float16 tensor")
        low_ai = ridge / 10
        assert roof.attainable("float16 tensor", low_ai) == pytest.approx(
            low_ai * roof.mem_bandwidth_bytes
        )
        assert roof.attainable("float16 tensor", ridge * 10) == roof.peaks_ops["float16 tensor"]

    def test_ridge_point_a100_fp16(self):
        roof = build_roofline(get_spec("A100"))
        # ~308 TOPs / 1.555 TB/s ~ 198 ops/byte.
        assert roof.ridge_point("float16 tensor") == pytest.approx(198, rel=0.05)


class TestPlacement:
    def _point(self, gpu, precision, size):
        spec = get_spec(gpu)
        problem = FIG3_PROBLEMS[(precision, size)]
        params = published_tuning(gpu, precision).params
        cost = model_gemm(spec, precision, problem, params)
        return place_point(spec, precision, problem, cost, size)

    @pytest.mark.parametrize("gpu", ["A100", "GH200", "MI300X"])
    def test_small_fp16_memory_bound(self, gpu):
        assert self._point(gpu, Precision.FLOAT16, "small").memory_bound

    @pytest.mark.parametrize("gpu", ["A100", "GH200"])
    def test_big_fp16_compute_bound(self, gpu):
        assert not self._point(gpu, Precision.FLOAT16, "big").memory_bound

    def test_small_close_to_slope_on_nvidia(self):
        # Paper: "especially the NVIDIA GPUs ... very close to the limit".
        point = self._point("A100", Precision.FLOAT16, "small")
        assert point.fraction_of_roofline > 0.85

    def test_big_between_half_and_peak(self):
        for gpu in ("A100", "GH200"):
            point = self._point(gpu, Precision.FLOAT16, "big")
            assert 0.4 < point.fraction_of_roofline <= 1.0

    def test_achieved_never_exceeds_attainable_meaningfully(self):
        for (precision, size) in FIG3_PROBLEMS:
            point = self._point("A100", precision, size)
            assert point.achieved_ops <= point.attainable_ops * 1.05

    def test_ai_matches_paper_scale(self):
        # fp16 big at 8192^3: AI ~ 4100 ops/byte (paper plots it near 2^12).
        point = self._point("A100", Precision.FLOAT16, "big")
        assert point.arithmetic_intensity == pytest.approx(4096, rel=0.15)
        # fp16 small: ~60 ops/byte (near 2^6).
        small = self._point("A100", Precision.FLOAT16, "small")
        assert small.arithmetic_intensity == pytest.approx(60, rel=0.2)

    def test_is_memory_bound_geometry(self):
        roof = build_roofline(get_spec("A100"))
        ridge = roof.ridge_point("float16 tensor")
        assert is_memory_bound(roof, "float16 tensor", ridge * 0.5)
        assert not is_memory_bound(roof, "float16 tensor", ridge * 2.0)
