"""Complex MMA decomposition (paper §III-B 5-step schedule)."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backend import NumpyBackend
from repro.ccglib.complex_mma import (
    complex_mma_f16,
    complex_mma_f16_batched,
    complex_mma_f16_naive,
    complex_mma_tf32,
    complex_mma_tf32_batched,
    reference_complex_gemm,
    round_operand,
    _chunk_items,
    _round_f16_into,
)
from repro.errors import ShapeError
from tests.conftest import GenericNumpyBackend


def _planar(z: np.ndarray) -> np.ndarray:
    return np.stack([z.real, z.imag]).astype(np.float32)


@st.composite
def complex_tile(draw):
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 24))
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))).astype(np.complex64)
    b = (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))).astype(np.complex64)
    return a, b


class TestFiveStepSchedule:
    @given(complex_tile())
    def test_matches_reference_within_fp16_tolerance(self, ab):
        a, b = ab
        got = complex_mma_f16(_planar(a), _planar(b))
        want = reference_complex_gemm(a, b)
        got_c = got[0] + 1j * got[1]
        # float16 inputs: relative error bounded by ~2^-10 per element times
        # accumulation; loose but meaningful bound.
        scale = max(np.abs(want).max(), 1e-3)
        assert np.abs(got_c - want).max() / scale < 5e-2

    @given(complex_tile())
    def test_naive_equals_fused(self, ab):
        # The register-negation trick changes scheduling, not results:
        # fp16 negation is exact.
        a, b = ab
        fused = complex_mma_f16(_planar(a), _planar(b))
        naive = complex_mma_f16_naive(_planar(a), _planar(b))
        assert np.allclose(fused, naive, rtol=1e-6, atol=1e-6)

    def test_accumulation(self, rng):
        a = (rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))).astype(np.complex64)
        b = (rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))).astype(np.complex64)
        base = complex_mma_f16(_planar(a), _planar(b))
        acc = complex_mma_f16(_planar(a), _planar(b), base.copy())
        assert np.allclose(acc, 2 * base, rtol=1e-6)

    def test_pure_real_inputs(self, rng):
        a = rng.normal(size=(3, 5)).astype(np.complex64)
        b = rng.normal(size=(5, 2)).astype(np.complex64)
        out = complex_mma_f16(_planar(a), _planar(b))
        # real x real: imaginary component exactly zero.
        assert np.all(out[1] == 0)

    def test_pure_imaginary_inputs(self, rng):
        a = (1j * rng.normal(size=(3, 5))).astype(np.complex64)
        b = (1j * rng.normal(size=(5, 2))).astype(np.complex64)
        out = complex_mma_f16(_planar(a), _planar(b))
        # i*x * i*y = -x*y: purely real and negative-definite structure.
        assert np.all(out[1] == 0)
        ref = -(a.imag.astype(np.float16).astype(np.float32)
                @ b.imag.astype(np.float16).astype(np.float32))
        assert np.allclose(out[0], ref, rtol=1e-6)

    def test_output_dtype_float32(self, rng):
        a = rng.normal(size=(2, 2)).astype(np.complex64)
        out = complex_mma_f16(_planar(a), _planar(a))
        assert out.dtype == np.float32

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            complex_mma_f16(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError):
            complex_mma_f16(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                            np.zeros((2, 3, 3), dtype=np.float32))

    def test_fp32_accumulation_beats_fp16_accumulation(self, rng):
        # Long-K sums: fp32 accumulators (the tensor-core mode) must be far
        # more accurate than doing everything in fp16.
        k = 2048
        a = (rng.normal(size=(1, k)) + 1j * rng.normal(size=(1, k))).astype(np.complex64)
        b = (rng.normal(size=(k, 1)) + 1j * rng.normal(size=(k, 1))).astype(np.complex64)
        ref = reference_complex_gemm(a, b)[0, 0]
        got = complex_mma_f16(_planar(a), _planar(b))
        got_c = got[0, 0, 0] + 1j * got[1, 0, 0]
        # sanity: our error is small relative to the magnitude of the sum
        assert abs(got_c - ref) / max(abs(ref), 1.0) < 0.05


BACKENDS = [NumpyBackend(), GenericNumpyBackend()]

#: (batched, single-tile) entry points of one precision.
SCHEDULES = [
    (complex_mma_f16_batched, complex_mma_f16),
    (complex_mma_tf32_batched, complex_mma_tf32),
]


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)


#: A tile shape whose NumPy chunk holds about twenty batch items, and
#: batches of it that span three chunks with a ragged last one.
CHUNKED_MNK = (64, 48, 40)
CHUNKED_BATCHES = [(65,), (2, 32)]

#: (leading dims, (m, n, k)) cases: one chunk, then several.
BATCH_CASES = [
    ((3,), (7, 5, 13)),
    ((2, 3), (7, 5, 13)),
    *((batch, CHUNKED_MNK) for batch in CHUNKED_BATCHES),
]


class TestBatchedEqualsTiles:
    """The batched hot path against a loop of single-tile schedules, bit
    for bit, on both the NumPy chunked and the functional path."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda be: be.name)
    @pytest.mark.parametrize("batched, tile", SCHEDULES, ids=["f16", "tf32"])
    @pytest.mark.parametrize(
        "batch, mnk", BATCH_CASES, ids=["1dim", "2dim", "1dim-chunks", "2dim-chunks"]
    )
    @pytest.mark.parametrize("with_c", [False, True], ids=["no-c", "c"])
    def test_bit_identical(self, backend, batched, tile, batch, mnk, with_c):
        m, n, k = mnk
        rng = np.random.default_rng(11)
        a = rng.normal(size=batch + (2, m, k)).astype(np.float32)
        b = rng.normal(size=batch + (2, k, n)).astype(np.float32)
        c = rng.normal(size=batch + (2, m, n)).astype(np.float32) if with_c else None
        inputs = [x.copy() for x in (a, b, c) if x is not None]

        got = batched(a, b, c, backend=backend)

        assert got.shape == batch + (2, m, n) and got.dtype == np.float32
        for idx in np.ndindex(*batch):
            want = tile(a[idx], b[idx], None if c is None else c[idx])
            assert np.array_equal(_bits(got[idx]), _bits(want)), idx
        # Inputs are never written, not even the in-place step-3 negation.
        for before, after in zip(inputs, (a, b, c)):
            assert np.array_equal(_bits(before), _bits(after))
        for operand in (a, b, c):
            assert operand is None or not np.shares_memory(got, operand)

    def test_chunked_cases_span_three_chunks_with_a_ragged_last(self):
        m, n, k = CHUNKED_MNK
        for batch in CHUNKED_BATCHES:
            items = math.prod(batch)
            step = _chunk_items(items, m, k, n)
            assert -(-items // step) >= 3 and items % step, (batch, step)

    def test_a_batch_just_over_the_budget_is_one_chunk(self):
        # 64 items of 36 KiB make 2.25 MiB: nearer one 2 MiB chunk than two.
        assert _chunk_items(64, 32, 32, 32) == 64

    @pytest.mark.parametrize("batched, tile", SCHEDULES, ids=["f16", "tf32"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float64])
    def test_other_input_dtypes_left_untouched(self, batched, tile, dtype):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, 2, 3, 9)).astype(dtype)
        b = rng.normal(size=(2, 2, 9, 4)).astype(dtype)
        a0, b0 = a.copy(), b.copy()
        got = batched(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
        assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
        for i in range(2):
            assert np.array_equal(_bits(got[i]), _bits(tile(a[i], b[i])))


def _round_f32_to_f16(values: np.ndarray) -> np.ndarray:
    out = np.empty(values.shape, dtype=np.float32)
    _round_f16_into(values, out)
    return out


class TestFloat16Rounding:
    """The integer-op float16 rounding of the NumPy hot path equals the
    float16 round trip bit for bit, at every range edge."""

    EDGES = [
        0.0, -0.0, 2.0**-25, 2.0**-24, 3 * 2.0**-25, 2.0**-14 * (1 - 2.0**-11), 2.0**-14,
        1.0, 1 + 2.0**-11, 1 + 3 * 2.0**-11, 2049.0, 65504.0, 65519.99, 65520.0, 65536.0,
        3.4e38, np.inf, np.nan,
    ]

    def test_edges_and_random_match_cast(self, rng):
        edges = np.array(self.EDGES, dtype=np.float32)
        spread = rng.normal(size=4096) * 2.0 ** rng.integers(-30, 20, size=4096)
        values = np.concatenate([edges, -edges, spread.astype(np.float32)])
        with np.errstate(over="ignore"):
            want = values.astype(np.float16).astype(np.float32)
            got = _round_f32_to_f16(values)
        assert np.array_equal(_bits(got), _bits(want))

    def test_strided_input(self, rng):
        values = rng.normal(size=(2, 6, 8)).astype(np.float32)[:, ::2, 1::3]
        want = values.astype(np.float16).astype(np.float32)
        assert np.array_equal(_bits(_round_f32_to_f16(values)), _bits(want))


class TestInterleavedOperands:
    """Interleaved complex operands and pre-rounded A against the planar path."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda be: be.name)
    @pytest.mark.parametrize("batched", [complex_mma_f16_batched, complex_mma_tf32_batched])
    @pytest.mark.parametrize("rounded", [False, True], ids=["per-call", "rounded"])
    def test_interleaved_result_is_the_planar_result(self, backend, batched, rounded):
        rng = np.random.default_rng(5)
        a = (rng.normal(size=(4, 7, 9)) + 1j * rng.normal(size=(4, 7, 9))).astype(np.complex64)
        b = (rng.normal(size=(4, 9, 3)) + 1j * rng.normal(size=(4, 9, 3))).astype(np.complex64)
        planar = batched(np.stack([a.real, a.imag], 1), np.stack([b.real, b.imag], 1))
        precision = "tf32" if batched is complex_mma_tf32_batched else "float16"
        a_op = round_operand(a, precision, backend=backend) if rounded else a
        got = np.asarray(batched(a_op, b, backend=backend))
        assert got.dtype == np.complex64 and got.shape == (4, 7, 3)
        assert np.array_equal(_bits(got.real), _bits(planar[:, 0]))
        assert np.array_equal(_bits(got.imag), _bits(planar[:, 1]))

    def test_operand_rounded_to_another_grid_rejected(self):
        a = np.ones((1, 2, 3), dtype=np.complex64)
        b = np.ones((1, 3, 2), dtype=np.complex64)
        with pytest.raises(ShapeError, match="rounded to tf32"):
            complex_mma_f16_batched(round_operand(a, "tf32"), b)

    def test_scale_needs_an_interleaved_b(self):
        a = np.ones((1, 2, 3), dtype=np.complex64)
        with pytest.raises(ShapeError, match="interleaved"):
            complex_mma_f16_batched(a, np.ones((1, 2, 3, 2), dtype=np.float32), scale=2.0)


class TestAccumulatorValidation:
    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda be: be.name)
    @pytest.mark.parametrize("batched", [complex_mma_f16_batched, complex_mma_tf32_batched])
    def test_batched_rejects_unbatched_accumulator(self, backend, batched):
        # A (2, m, n) accumulator must not broadcast over a batch of 3.
        a = np.zeros((3, 2, 4, 8), dtype=np.float32)
        b = np.zeros((3, 2, 8, 5), dtype=np.float32)
        with pytest.raises(ShapeError):
            batched(a, b, np.zeros((2, 4, 5), dtype=np.float32), backend=backend)

    @pytest.mark.parametrize("tile", [complex_mma_f16, complex_mma_tf32])
    def test_tile_rejects_wrong_accumulator(self, tile):
        a, b = np.zeros((2, 2, 4)), np.zeros((2, 4, 3))
        with pytest.raises(ShapeError):
            tile(a, b, np.zeros((2, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            tile(a, b, np.zeros((1, 2, 2, 3), dtype=np.float32))


class TestChunkedMemory:
    def test_peak_allocation_is_the_output_plus_one_chunk(self):
        """At the ``lofar-f16`` shape, batch x M x N x K = 32 x 256 x 256 x 64,
        the NumPy schedule allocates its complex64 output plus chunk-sized
        planes, not whole-batch operand and accumulator planes."""
        batch, m, n, k = 32, 256, 256, 64
        rng = np.random.default_rng(3)
        a = rng.normal(size=(batch, 2, m, k)).astype(np.float32)
        b = rng.normal(size=(batch, 2, k, n)).astype(np.float32)
        out_bytes = batch * m * n * np.dtype(np.complex64).itemsize
        tracemalloc.start()
        try:
            got = complex_mma_f16_batched(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (batch, 2, m, n)
        assert peak < out_bytes + 4 * 2**20, peak
