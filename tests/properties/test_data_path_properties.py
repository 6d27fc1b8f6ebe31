"""Property-based invariants of the functional data path.

These are the invariants a downstream user relies on: quantization +
packing + transpose + GEMM compose losslessly for representable inputs, at
every shape including awkward padding cases.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.ccglib.gemm import gemm_once
from repro.ccglib.layouts import to_interleaved, to_planar
from repro.ccglib.packing import pack_sign_planar, unpack_sign_planar
from repro.ccglib.precision import Precision
from repro.ccglib.transpose import planar_to_kmajor
from repro.gpusim.device import Device
from repro.util.validation import round_up


@st.composite
def pm1_gemm(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], (m, k)) + 1j * rng.choice([-1.0, 1.0], (m, k))
    b = rng.choice([-1.0, 1.0], (k, n)) + 1j * rng.choice([-1.0, 1.0], (k, n))
    return a.astype(np.complex64), b.astype(np.complex64)


class TestEndToEndInt1:
    @given(pm1_gemm())
    def test_int1_gemm_exact_for_representable_inputs(self, ab):
        """The headline invariant: 1-bit beamforming of ±1 data is exact,
        for every K (including heavy fragment padding)."""
        a, b = ab
        dev = Device("A100")
        got = gemm_once(dev, Precision.INT1, a, b).output[0]
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        assert np.array_equal(got, ref.astype(np.complex64))

    @given(pm1_gemm())
    def test_int1_scale_invariance(self, ab):
        """Sign quantization: positive scaling never changes the result."""
        a, b = ab
        dev = Device("A100")
        base = gemm_once(dev, Precision.INT1, a, b).output
        scaled = gemm_once(dev, Precision.INT1, 3.7 * a, 0.25 * b).output
        assert np.array_equal(base, scaled)


class TestPackingProperties:
    @given(st.integers(1, 5), st.integers(1, 200), st.integers(0, 2**31))
    def test_pack_unpack_identity(self, rows, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, k)).astype(np.float32)
        values[values == 0] = 1.0
        k_pad = round_up(k, 256)
        packed = pack_sign_planar(values, k_pad_to=k_pad)
        assert packed.shape[-1] == k_pad // 32
        signs = unpack_sign_planar(packed, k)
        assert np.array_equal(signs, np.where(values >= 0, 1, -1).astype(np.int8))

    @given(st.integers(1, 5), st.integers(1, 100), st.integers(0, 2**31))
    def test_padding_region_all_minus_one(self, rows, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, k)).astype(np.float32)
        packed = pack_sign_planar(values, k_pad_to=round_up(k, 256))
        full = unpack_sign_planar(packed, round_up(k, 256))
        assert np.all(full[..., k:] == -1)


class TestLayoutProperties:
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2**31))
    def test_planar_kmajor_composition(self, r, c, seed):
        rng = np.random.default_rng(seed)
        z = (rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))).astype(np.complex64)
        planar = to_planar(z)
        km = planar_to_kmajor(planar)  # (2, c, r)
        assert np.array_equal(to_interleaved(km), z.T)
        assert np.array_equal(to_interleaved(planar), z)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**31))
    def test_float16_gemm_tolerance_scales(self, m, n, seed):
        rng = np.random.default_rng(seed)
        k = 16
        a = (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))).astype(np.complex64)
        b = (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))).astype(np.complex64)
        got = gemm_once(Device("MI210"), Precision.FLOAT16, a, b).output[0]
        ref = a.astype(np.complex128) @ b.astype(np.complex128)
        denom = max(np.abs(ref).max(), 1e-3)
        assert np.abs(got - ref).max() / denom < 2e-2
