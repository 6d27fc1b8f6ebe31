"""cudapeak micro-benchmarks vs paper Table I."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.table1 import PAPER_TABLE1
from repro.cudapeak.microbench import (
    TABLE1_BENCHMARKS,
    run_microbenchmark,
    run_table1,
)
from repro.errors import UnsupportedPrecisionError
from repro.gpusim.arch import (
    BitOp,
    FRAG_FLOAT16_16x16x16,
    FRAG_INT1_16x8x256,
    FRAG_INT1_8x8x128,
)
from repro.gpusim.specs import INT1_GPUS, get_spec
from repro.gpusim.tensorcore import mma_f16
from repro.util.bits import pack_bits, popcount_gemm


class TestAgainstPaper:
    @pytest.mark.parametrize(
        "key",
        list(PAPER_TABLE1),
        ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}-{k[3]}",
    )
    def test_each_cell_within_ten_percent(self, key):
        gpu, precision, frag_str, op = key
        frag = {"16x16x16": FRAG_FLOAT16_16x16x16, "8x8x128": FRAG_INT1_8x8x128,
                "16x8x256": FRAG_INT1_16x8x256}[frag_str]
        bit_op = BitOp(op) if op else None
        result = run_microbenchmark(get_spec(gpu), precision, frag, bit_op)
        assert result.measured_tops == pytest.approx(PAPER_TABLE1[key], rel=0.10)

    def test_full_matrix_has_19_entries(self):
        # 7 fp16 + 3 NVIDIA GPUs x 4 int1 variants = 19 (AMD int1 skipped).
        assert len(run_table1()) == 19

    def test_amd_int1_raises_directly(self):
        with pytest.raises(UnsupportedPrecisionError):
            run_microbenchmark(get_spec("MI300X"), "int1", FRAG_INT1_16x8x256, BitOp.XOR)

    def test_workstation_ratio_above_one(self):
        r = run_microbenchmark(get_spec("AD4000"), "float16", FRAG_FLOAT16_16x16x16)
        assert r.measured_tops > r.theoretical_tops

    def test_gh200_wmma_ratio(self):
        r = run_microbenchmark(get_spec("GH200"), "float16", FRAG_FLOAT16_16x16x16)
        assert 0.60 < r.measured_tops / r.theoretical_tops < 0.70  # paper: ~65%



class TestFragmentNumerics:
    """Each Table I fragment computes what it claims on the functional
    tensor-core emulation: float16 via ``mma_f16``, 1-bit via the popcount
    k-loop with the benchmark's multiply operand (Eq. 4 for XOR, Eq. 6 for
    AND), both against an exact matrix product."""

    @pytest.mark.parametrize("precision, frag, op", TABLE1_BENCHMARKS, ids=lambda v: str(v))
    def test_fragment_matches_exact_product(self, rng, precision, frag, op):
        if precision == "float16":
            a = rng.normal(size=(frag.m, frag.k)).astype(np.float16)
            b = rng.normal(size=(frag.k, frag.n)).astype(np.float16)
            want = a.astype(np.float64) @ b.astype(np.float64)
            assert np.allclose(mma_f16(a, b), want, rtol=1e-5, atol=1e-5)
            return
        a = rng.integers(0, 2, size=(frag.m, frag.k), dtype=np.uint8)
        b = rng.integers(0, 2, size=(frag.n, frag.k), dtype=np.uint8)
        want = (2 * a.astype(np.int64) - 1) @ (2 * b.astype(np.int64) - 1).T
        a_w, b_w = pack_bits(a), pack_bits(b)
        if op is BitOp.XOR:
            dot = frag.k - 2 * popcount_gemm(a_w, b_w, "xor")
        else:
            same = popcount_gemm(a_w, b_w, "and") + popcount_gemm(~a_w, ~b_w, "and")
            dot = 2 * same - frag.k
        assert np.array_equal(dot, want)

    @pytest.mark.parametrize("gpu", INT1_GPUS)
    def test_unknown_precision(self, gpu):
        with pytest.raises(UnsupportedPrecisionError):
            run_microbenchmark(get_spec(gpu), "int4", FRAG_INT1_8x8x128, BitOp.XOR)
